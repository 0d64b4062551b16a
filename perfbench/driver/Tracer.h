//===- perfbench/driver/Tracer.h - In-memory ns spans ----------*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span store. The benchmark records a span around each
/// call it makes into a layer (Replay.h); every span keeps its name, start
/// and end (steady clock, ns), parent span and op id. Spans stay in one
/// vector per thread until the run ends, then go to a file in one write;
/// perfbench/benchstats.py derives self time (a span minus its children)
/// from it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DRIVER_TRACER_H
#define PERFBENCH_DRIVER_TRACER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layer calls the replay times, named `<module>.<call>`. Op is the
/// root span of one benchmark op; its self time is the harness's own work.
enum class Call : uint16_t {
  Op,
  ServerDecode,   ///< CompileRequest::fromJson
  ParserParse,    ///< parseIr
  CacheKey,       ///< experimentCacheKey (a miss; a hit keys in CacheLookup)
  CacheLookup,    ///< CompileCache::compile on a hit
  IrVerify,       ///< verifyFunction
  DagBuild,       ///< buildDagInto
  SchedWeight,    ///< Weighter::assignWeights
  SchedList,      ///< scheduleDag
  ScheduleCert,   ///< certifySchedule
  MemDepCert,     ///< certifyMemDep
  RegAlloc,       ///< allocateRegisters
  AllocCert,      ///< certifyAllocation
  IrPrint,        ///< printFunction
  ServerEncode,   ///< CompileResponse::toJson
  SimBlock,       ///< simulateBlock
  StatsBootstrap, ///< bootstrapMeans / pairedImprovement
  NumCalls
};

const char *callName(Call C);

/// All span names, indexed by Call.
std::vector<std::string> callNames();

/// One recorded span: 32 bytes, the layout of the spans file.
struct Span {
  int64_t StartNs;
  int64_t EndNs;
  int32_t Parent; ///< Index into the same thread's log; -1 for a root.
  uint32_t Op;
  uint32_t Instrs; ///< Instructions the call worked on (0 = not a block).
  uint16_t Name;
  uint16_t Pad;
};
static_assert(sizeof(Span) == 32, "spans file layout");

/// Arms the tracer: each thread may keep up to \p SpansPerThread spans
/// before traceFull() reports true.
void startTracing(size_t SpansPerThread);

/// True once the calling thread's log is at its cap: callers finish the op
/// in flight and start no new one.
bool traceFull();

/// Spans recorded so far across threads (call while no thread traces).
size_t spansRecorded();

/// Writes every thread's spans, parents renumbered to file-wide indices.
bool writeSpans(const std::string &Path);

/// Times one call. Nested scopes on a thread record their parent.
class Scope {
public:
  explicit Scope(Call C, uint32_t Instrs = 0);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  void *Log;
  int32_t Index;
  int32_t Prev;
};

/// Opens the root span of one op under a fresh op id, which every span
/// nested in it records.
Scope opScope(uint32_t Instrs = 0);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_TRACER_H
