//===- perfbench/driver/Tracer.cpp - In-memory ns spans -------------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

using namespace perfbench;

namespace {

struct ThreadLog {
  std::vector<Span> Spans;
  int32_t Open = -1;
  uint32_t Op = 0;
};

std::mutex LogsMutex;
std::vector<std::unique_ptr<ThreadLog>> Logs; // Guarded by LogsMutex.
size_t Cap = 0;
std::atomic<uint32_t> NextOp{0};
thread_local ThreadLog *Mine = nullptr;

ThreadLog &threadLog() {
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(LogsMutex);
    Logs.push_back(std::make_unique<ThreadLog>());
    Mine = Logs.back().get();
    Mine->Spans.reserve(Cap + Cap / 8);
  }
  return *Mine;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

const char *perfbench::callName(Call C) {
  switch (C) {
  case Call::Op:
    return "op";
  case Call::ServerDecode:
    return "server.decode";
  case Call::ParserParse:
    return "parser.parse";
  case Call::CacheKey:
    return "pipeline.cache_key";
  case Call::CacheLookup:
    return "pipeline.cache_lookup";
  case Call::IrVerify:
    return "ir.verify";
  case Call::DagBuild:
    return "dag.build";
  case Call::SchedWeight:
    return "sched.weight";
  case Call::SchedList:
    return "sched.list";
  case Call::ScheduleCert:
    return "analysis.schedule_cert";
  case Call::MemDepCert:
    return "analysis.memdep_cert";
  case Call::RegAlloc:
    return "regalloc.allocate";
  case Call::AllocCert:
    return "analysis.alloc_cert";
  case Call::IrPrint:
    return "ir.print";
  case Call::ServerEncode:
    return "server.encode";
  case Call::SimBlock:
    return "sim.block";
  case Call::StatsBootstrap:
    return "stats.bootstrap";
  case Call::NumCalls:
    break;
  }
  return "unknown";
}

std::vector<std::string> perfbench::callNames() {
  std::vector<std::string> Names;
  for (unsigned C = 0; C != static_cast<unsigned>(Call::NumCalls); ++C)
    Names.push_back(callName(static_cast<Call>(C)));
  return Names;
}

void perfbench::startTracing(size_t SpansPerThread) { Cap = SpansPerThread; }

bool perfbench::traceFull() { return threadLog().Spans.size() >= Cap; }

size_t perfbench::spansRecorded() {
  std::lock_guard<std::mutex> Lock(LogsMutex);
  size_t N = 0;
  for (const auto &L : Logs)
    N += L->Spans.size();
  return N;
}

bool perfbench::writeSpans(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(LogsMutex);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  int32_t Base = 0;
  for (const auto &L : Logs) {
    std::vector<Span> Copy = L->Spans;
    for (Span &S : Copy)
      if (S.Parent >= 0)
        S.Parent += Base;
    Out.write(reinterpret_cast<const char *>(Copy.data()),
              static_cast<std::streamsize>(Copy.size() * sizeof(Span)));
    Base += static_cast<int32_t>(Copy.size());
  }
  return static_cast<bool>(Out);
}

Scope::Scope(Call C, uint32_t Instrs) {
  ThreadLog &L = threadLog();
  Log = &L;
  Index = static_cast<int32_t>(L.Spans.size());
  Prev = L.Open;
  L.Spans.push_back(
      {0, 0, L.Open, L.Op, Instrs, static_cast<uint16_t>(C), 0});
  L.Open = Index;
  L.Spans.back().StartNs = nowNs();
}

Scope::~Scope() {
  const int64_t End = nowNs();
  ThreadLog &L = *static_cast<ThreadLog *>(Log);
  L.Spans[Index].EndNs = End;
  L.Open = Prev;
}

Scope perfbench::opScope(uint32_t Instrs) {
  threadLog().Op = NextOp.fetch_add(1) + 1;
  return Scope(Call::Op, Instrs);
}
