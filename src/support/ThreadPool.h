//===- support/ThreadPool.h - Work-queue thread pool -----------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-queue thread pool for the parallel experiment engine.
/// Experiment cells are pure functions of their inputs (every latency
/// stream is seeded per cell, never shared), so the pool only has to get
/// two things right: results land at the slot of their *input* index
/// (deterministic ordering regardless of completion order), and a pool of
/// one worker degenerates to plain serial execution on the calling thread
/// so the serial baseline stays exactly the code path it always was.
///
/// Worker count resolution: an explicit constructor argument wins; 0 means
/// "the BSCHED_JOBS environment variable, else hardware concurrency".
/// Every count that comes from outside the program (BSCHED_JOBS, a CLI
/// flag) is capped at MaxWorkers, since a pool starts all of its threads
/// at once.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SUPPORT_THREADPOOL_H
#define BSCHED_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bsched {

/// Fixed-size worker pool draining a FIFO task queue.
class ThreadPool {
public:
  /// The largest worker count accepted from the environment or a command
  /// line.
  static constexpr unsigned MaxWorkers = 256;

  /// Spawns \p Workers worker threads; 0 resolves via defaultWorkerCount().
  /// A pool of one spawns no threads at all — tasks run inline in run() /
  /// parallelForEach(), which keeps single-job runs bit-for-bit the serial
  /// code path.
  explicit ThreadPool(unsigned Workers = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of workers tasks may run on (>= 1; 1 means inline execution).
  unsigned workerCount() const { return Workers; }

  /// Enqueues \p Task. With one worker, runs it inline before returning.
  ///
  /// Fault capture: a task that throws (including a "pool-task" fail
  /// point) never escapes — the exception is converted into a recorded
  /// fault string, the task is counted as finished, and wait() still
  /// returns. Losing a worker thread or deadlocking the pool on a
  /// throwing task is exactly the failure mode the chaos harness pins.
  void run(std::function<void()> Task);

  /// Blocks until every task enqueued so far has finished.
  void wait();

  /// Tasks whose exception was captured since the last takeFaults().
  uint64_t faultCount() const;

  /// Drains the captured fault messages (insertion order).
  std::vector<std::string> takeFaults();

  /// Records a fault message (used by the task wrappers; public so
  /// parallelForEach can capture per-index body faults too).
  void recordFault(std::string Message);

  /// BSCHED_JOBS if it is a count from 1 to MaxWorkers in bare decimal
  /// digits (as `--workers` takes it), else hardware concurrency (at
  /// least 1).
  static unsigned defaultWorkerCount();

private:
  void workerLoop();

  /// Runs \p Task, converting any escape into a recorded fault.
  void runGuarded(const std::function<void()> &Task);

  unsigned Workers;
  std::vector<std::thread> Threads;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable TaskReady; ///< Queue became non-empty (or stop).
  std::condition_variable Idle;      ///< All tasks finished.
  unsigned Pending = 0;              ///< Queued + currently running tasks.
  bool Stop = false;

  mutable std::mutex FaultMutex;
  std::vector<std::string> Faults; ///< Captured task exceptions.
};

/// Runs Body(Index) for every Index in [0, Count) across \p Pool and blocks
/// until all complete. Iterations are claimed dynamically (an expensive
/// cell does not stall the others behind a static partition); callers get
/// deterministic output by writing results into slot Index of a pre-sized
/// vector. With a one-worker pool this is exactly a for loop.
///
/// A Body(I) that throws is captured as a pool fault (see
/// ThreadPool::takeFaults) and the remaining indices still run — one bad
/// cell never strands the rest of the range or deadlocks the caller.
void parallelForEach(ThreadPool &Pool, size_t Count,
                     const std::function<void(size_t)> &Body);

} // namespace bsched

#endif // BSCHED_SUPPORT_THREADPOOL_H
