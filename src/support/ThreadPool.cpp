//===- support/ThreadPool.cpp - Work-queue thread pool ----------------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Check.h"
#include "support/CliOptions.h"
#include "support/FailPoint.h"

#include <atomic>
#include <climits>
#include <cstdlib>
#include <exception>

using namespace bsched;

unsigned ThreadPool::defaultWorkerCount() {
  uint64_t Jobs = 0;
  if (const char *Env = std::getenv("BSCHED_JOBS");
      Env && parseCount(Env, Jobs, UINT_MAX) && Jobs >= 1)
    return static_cast<unsigned>(Jobs);
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : Hw;
}

ThreadPool::ThreadPool(unsigned WorkerCount)
    : Workers(WorkerCount == 0 ? defaultWorkerCount() : WorkerCount) {
  if (Workers < 2)
    return; // Inline mode: no threads, run() executes on the caller.
  Threads.reserve(Workers);
  for (unsigned I = 0; I != Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stop = true;
  }
  TaskReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::run(std::function<void()> Task) {
  BSCHED_CHECK(Task != nullptr, "ThreadPool::run requires a task");
  if (Threads.empty()) {
    runGuarded(Task);
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    BSCHED_CHECK(!Stop, "ThreadPool::run after shutdown began");
    Queue.push_back(std::move(Task));
    ++Pending;
  }
  TaskReady.notify_one();
}

void ThreadPool::wait() {
  if (Threads.empty())
    return;
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] { return Pending == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      TaskReady.wait(Lock, [this] { return Stop || !Queue.empty(); });
      if (Queue.empty())
        return; // Stop requested and nothing left to drain.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    runGuarded(Task);
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Pending == 0)
        Idle.notify_all();
    }
  }
}

void ThreadPool::runGuarded(const std::function<void()> &Task) {
  // The "pool-task" fail point models a task dying at entry; together
  // with the catch below it proves a throwing task cannot kill a worker
  // thread (std::terminate) or strand Pending (deadlocked wait()).
  try {
    throwIfFailPointHit(failpoints::PoolTask);
    Task();
  } catch (const std::exception &E) {
    recordFault(E.what());
  } catch (...) {
    recordFault("unknown exception in pool task");
  }
}

uint64_t ThreadPool::faultCount() const {
  std::lock_guard<std::mutex> Lock(FaultMutex);
  return Faults.size();
}

std::vector<std::string> ThreadPool::takeFaults() {
  std::lock_guard<std::mutex> Lock(FaultMutex);
  std::vector<std::string> Out = std::move(Faults);
  Faults.clear();
  return Out;
}

void ThreadPool::recordFault(std::string Message) {
  std::lock_guard<std::mutex> Lock(FaultMutex);
  Faults.push_back(std::move(Message));
}

void bsched::parallelForEach(ThreadPool &Pool, size_t Count,
                             const std::function<void(size_t)> &Body) {
  if (Count == 0)
    return;
  // Per-index fault capture: a throwing Body(I) is recorded and the
  // remaining indices still run, on both the inline and pooled paths.
  auto GuardedBody = [&Pool, &Body](size_t I) {
    try {
      Body(I);
    } catch (const std::exception &E) {
      Pool.recordFault(E.what());
    } catch (...) {
      Pool.recordFault("unknown exception in parallelForEach body");
    }
  };
  if (Pool.workerCount() < 2 || Count == 1) {
    for (size_t I = 0; I != Count; ++I)
      GuardedBody(I);
    return;
  }

  // Dynamic claiming: each runner pulls the next unclaimed index until the
  // range is exhausted. One runner per worker is enough — runners loop.
  auto Next = std::make_shared<std::atomic<size_t>>(0);
  size_t Runners = std::min<size_t>(Pool.workerCount(), Count);
  for (size_t R = 0; R != Runners; ++R)
    Pool.run([Next, Count, &GuardedBody] {
      for (size_t I; (I = Next->fetch_add(1, std::memory_order_relaxed)) <
                     Count;)
        GuardedBody(I);
    });
  Pool.wait();
}
