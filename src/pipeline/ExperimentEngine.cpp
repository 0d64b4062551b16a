//===- pipeline/ExperimentEngine.cpp - Parallel experiment engine ---------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "pipeline/ExperimentEngine.h"

#include "ir/IrPrinter.h"
#include "support/FailPoint.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cassert>
#include <chrono>
#include <mutex>
#include <unordered_map>

using namespace bsched;

std::string CellOutcome::firstError() const {
  for (const Diagnostic &D : Errors)
    if (D.isError())
      return D.formatted();
  return {};
}

std::string EngineResult::summaryJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("workers").value(Counters.Workers);
  W.key("cells").value(Counters.Cells);
  W.key("failed").value(Counters.Failed);
  W.key("cache_hits").value(Counters.CacheHits);
  W.key("cache_misses").value(Counters.CacheMisses);
  W.key("wall_ms").valueFixed(Counters.WallMillis, 3);
  W.key("cell_wall_ms").valueFixed(Counters.CellWallMillis, 3);
  W.key("per_cell").beginArray();
  for (const CellOutcome &Cell : Cells) {
    W.beginObject();
    W.key("label").value(Cell.Label);
    W.key("ok").value(Cell.ok());
    W.key("wall_ms").valueFixed(Cell.WallMillis, 3);
    W.key("cache_hits").value(Cell.CacheHits);
    W.key("cache_misses").value(Cell.CacheMisses);
    W.key("error").value(Cell.firstError());
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

namespace {

bool identicalCompiled(const CompiledFunction &A, const CompiledFunction &B) {
  return printFunction(A.Compiled) == printFunction(B.Compiled) &&
         A.SpillPerBlock == B.SpillPerBlock &&
         A.StaticInstructions == B.StaticInstructions &&
         A.StaticSpills == B.StaticSpills &&
         A.DynamicInstructions == B.DynamicInstructions &&
         A.DynamicSpills == B.DynamicSpills &&
         A.Degradation == B.Degradation;
}

bool identicalSim(const ProgramSimResult &A, const ProgramSimResult &B) {
  return A.BootstrapRuntimes == B.BootstrapRuntimes &&
         A.MeanRuntime == B.MeanRuntime &&
         A.DynamicInstructions == B.DynamicInstructions &&
         A.MeanInterlockCycles == B.MeanInterlockCycles;
}

} // namespace

bool bsched::identicalEngineResults(const EngineResult &A,
                                    const EngineResult &B) {
  if (A.Cells.size() != B.Cells.size())
    return false;
  for (size_t I = 0; I != A.Cells.size(); ++I) {
    const CellOutcome &CellA = A.Cells[I];
    const CellOutcome &CellB = B.Cells[I];
    if (CellA.Label != CellB.Label || CellA.ok() != CellB.ok())
      return false;
    if (!CellA.ok()) {
      if (joinDiagnostics(CellA.Errors) != joinDiagnostics(CellB.Errors))
        return false;
      continue;
    }
    const SchedulerComparison &CA = *CellA.Comparison;
    const SchedulerComparison &CB = *CellB.Comparison;
    if (!identicalCompiled(CA.TraditionalCompiled, CB.TraditionalCompiled) ||
        !identicalCompiled(CA.CandidateCompiled, CB.CandidateCompiled) ||
        !identicalSim(CA.TraditionalSim, CB.TraditionalSim) ||
        !identicalSim(CA.CandidateSim, CB.CandidateSim) ||
        CA.Improvement.MeanPercent != CB.Improvement.MeanPercent ||
        CA.Improvement.Ci95.Lo != CB.Improvement.Ci95.Lo ||
        CA.Improvement.Ci95.Hi != CB.Improvement.Ci95.Hi)
      return false;
  }
  return true;
}

/// The program half of a run's cache keys (programCacheKey), printed at
/// most once per distinct program, on the worker that first compiles it.
/// Cells borrow their programs for the whole run and the pool joins before
/// run() returns, so a program's address names it, and its key stays
/// current, for as long as the table lives.
class ExperimentEngine::ProgramKeys {
public:
  const std::string &of(const Function &Program) {
    Slot *S;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      S = &Slots[&Program];
    }
    std::call_once(S->Once, [&] { S->Key = programCacheKey(Program); });
    return S->Key;
  }

private:
  struct Slot {
    std::once_flag Once;
    std::string Key;
  };
  std::mutex Mutex;
  std::unordered_map<const Function *, Slot> Slots;
};

CellOutcome ExperimentEngine::runCell(const ExperimentCell &Cell,
                                      ProgramKeys &Keys) {
  BSCHED_CHECK(Cell.Program != nullptr,
               "experiment cell without a program");
  BSCHED_CHECK(Cell.Memory != nullptr,
               "experiment cell without a memory system");

  CellOutcome Outcome;
  Outcome.Label = Cell.Label;

  const auto Start = std::chrono::steady_clock::now();

  // The engine owns the cell's observability wiring: compiles that run
  // and every simulation record into the engine's registry (sharded, so
  // workers record without contending), and all spans go to the engine
  // trace.
  PipelineConfig Base = Cell.Base;
  Base.Obs.Metrics = Obs.Metrics;
  Base.Obs.Trace = Obs.Trace;
  SimulationConfig Sim = Cell.Sim;
  Sim.Obs.Metrics = Obs.Metrics;
  Sim.Obs.Trace = Obs.Trace;

  // Validate the cell's config at entry so a bad matrix row reports a
  // config diagnostic directly instead of one wrapped per compilation.
  Status ConfigStatus = Base.validate();
  if (ConfigStatus.ok()) {
    // The "engine-cell" fail point models a cell dying wholesale, keyed
    // by its label so the same cell faults serially and in parallel; a
    // cell body that throws for any other reason is captured the same
    // way — one bad cell degrades to diagnostics, the matrix completes.
    std::optional<Diagnostic> Injected =
        checkFailPoint(failpoints::EngineCell, stableHash(Cell.Label));
    if (Injected) {
      Outcome.Errors.push_back(std::move(*Injected));
    } else try {
      ErrorOr<SchedulerComparison> Comparison = runComparisonWith(
          [&](const Function &F, const PipelineConfig &Config) {
            assert(&F == Cell.Program && "a cell compiles its own program");
            bool Hit = false;
            ErrorOr<CompiledFunction> Compiled =
                Cache->compile(F, Keys.of(F), Config, &Hit);
            ++(Hit ? Outcome.CacheHits : Outcome.CacheMisses);
            return Compiled;
          },
          *Cell.Program, *Cell.Memory, Cell.OptimisticLatency, Sim,
          Cell.Candidate, Base);
      if (Comparison)
        Outcome.Comparison = std::move(*Comparison);
      else
        Outcome.Errors = Comparison.takeErrors();
    } catch (const FailPointException &E) {
      Outcome.Errors.push_back(failPointDiagnostic(E.site()));
    } catch (const std::exception &E) {
      Outcome.Errors.push_back(
          {0, 0, std::string("experiment cell fault: ") + E.what(),
           Severity::Error, DiagCode::EngineCellFault});
    }
  } else {
    Outcome.Errors = ConfigStatus.diagnostics();
  }

  const auto End = std::chrono::steady_clock::now();
  Outcome.WallMillis =
      std::chrono::duration<double, std::milli>(End - Start).count();
  return Outcome;
}

EngineResult ExperimentEngine::run(const std::vector<ExperimentCell> &Cells) {
  EngineResult Result;
  Result.Cells.resize(Cells.size());

  const auto Start = std::chrono::steady_clock::now();
  ProgramKeys Keys;
  parallelForEach(Pool, Cells.size(), [&](size_t Index) {
    Result.Cells[Index] = runCell(Cells[Index], Keys);
  });
  const auto End = std::chrono::steady_clock::now();

  // Backstop: a cell whose very body escaped runCell's capture (pool-level
  // fault) left its slot default-constructed. Synthesize a structured
  // diagnostic so every non-success is explained — never a silent hole.
  for (size_t Index = 0; Index != Cells.size(); ++Index) {
    CellOutcome &Cell = Result.Cells[Index];
    if (!Cell.ok() && Cell.Errors.empty()) {
      Cell.Label = Cells[Index].Label;
      Cell.Errors.push_back({0, 0,
                             "experiment cell lost to a pool-level fault",
                             Severity::Error, DiagCode::EngineCellFault});
    }
  }

  Result.Counters.Workers = Pool.workerCount();
  Result.Counters.Cells = static_cast<unsigned>(Cells.size());
  Result.Counters.WallMillis =
      std::chrono::duration<double, std::milli>(End - Start).count();
  for (const CellOutcome &Cell : Result.Cells) {
    Result.Counters.Failed += !Cell.ok();
    Result.Counters.CacheHits += Cell.CacheHits;
    Result.Counters.CacheMisses += Cell.CacheMisses;
    Result.Counters.CellWallMillis += Cell.WallMillis;
  }

  if (Obs.Metrics) {
    Obs.Metrics->counter("bsched.engine.cells").add(Result.Counters.Cells);
    Obs.Metrics->counter("bsched.engine.failed_cells")
        .add(Result.Counters.Failed);
    Obs.Metrics->counter("bsched.engine.cache_hits")
        .add(Result.Counters.CacheHits);
    Obs.Metrics->counter("bsched.engine.cache_misses")
        .add(Result.Counters.CacheMisses);
    Obs.Metrics->gauge("bsched.engine.workers").set(Result.Counters.Workers);
  }
  return Result;
}
