//===- bench/bench_engine_scaling.cpp - Engine worker scaling -------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Measures the parallel experiment engine itself: the full Perfect Club
// sweep is run serially (1 worker) and at increasing worker counts, each
// run is checked bit-identical to the serial baseline, and the wall time,
// speedup, and compile-cache accounting are reported. The numbers land in
// EXPERIMENTS.md; on an N-core host the sweep should approach Nx until it
// runs out of kernels.
//
// Run: build/bench/bench_engine_scaling [workers...] [--trace-out=FILE]
//                                       (workers default 1 2 4 8)
// Each worker count is an integer in [1, 256]; anything else prints the
// usage and exits 2. Exit 1 means a run lost a cell or did not match the
// serial run.
//
// Also measures the observability layer's own cost (the serial sweep on
// an engine with a metric registry vs. one without), writes the
// machine-readable BENCH_engine_scaling.json artifact, and — with
// --trace-out — emits a Chrome trace of one serial sweep plus the top
// phases by total time.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "obs/Trace.h"
#include "support/CliOptions.h"
#include "support/Table.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>

using namespace bsched;
using namespace bsched::bench;

namespace {

/// True, after printing the first failed cell, when \p R lost any cell:
/// every table below assumes a complete matrix.
bool degraded(const EngineResult &R) {
  for (const CellOutcome &Cell : R.Cells)
    if (!Cell.ok()) {
      std::fprintf(stderr, "cell %s failed: %s\n", Cell.Label.c_str(),
                   Cell.firstError().c_str());
      return true;
    }
  return false;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<unsigned> WorkerCounts;
  std::string TraceOut;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--trace-out=", 12) == 0) {
      TraceOut = argv[I] + 12;
      continue;
    }
    uint64_t N = 0;
    if (!parseCount(argv[I], N, 256) || N < 1) {
      std::fprintf(stderr,
                   "usage: %s [workers 1..256 ...] [--trace-out=FILE]\n",
                   argv[0]);
      return 2;
    }
    WorkerCounts.push_back(static_cast<unsigned>(N));
  }
  if (WorkerCounts.empty())
    WorkerCounts = {1, 2, 4, 8};

  std::vector<std::pair<Benchmark, Function>> Programs = paperPrograms();
  NetworkSystem Memory(2, 5);
  SimulationConfig Sim = paperSimulation();

  // One balanced-vs-traditional cell per kernel under pipeline config
  // \p Base; every run below repeats this matrix.
  auto Cells = [&](const PipelineConfig &Base) {
    std::vector<ExperimentCell> Matrix;
    for (const auto &[B, F] : Programs)
      Matrix.push_back({benchmarkName(B), &F, &Memory, 2.0,
                        SchedulerPolicy::Balanced, Base, Sim});
    return Matrix;
  };

  std::printf("Perfect Club sweep (%zu kernels) on %s, %u runs/block.\n"
              "Each worker count repeats the identical sweep; results are\n"
              "checked bit-identical to the 1-worker baseline.\n\n",
              Programs.size(), Memory.name().c_str(), Sim.NumRuns);

  Table T("Experiment engine scaling");
  T.setHeader({"Workers", "Wall ms", "Speedup", "Cache hits", "Identical"});

  struct ScalingRow {
    unsigned Workers;
    double WallMs;
    double Speedup;
    uint64_t CacheHits;
  };
  std::vector<ScalingRow> ScalingRows;

  const std::vector<ExperimentCell> Matrix = Cells(PipelineConfig());
  EngineResult Baseline;
  double BaselineMs = 0.0;
  for (unsigned Workers : WorkerCounts) {
    EngineResult R = ExperimentEngine(Workers).run(Matrix);
    if (degraded(R))
      return 1;

    bool Identical;
    if (Workers == WorkerCounts.front()) {
      Baseline = R;
      BaselineMs = R.Counters.WallMillis;
      Identical = true;
    } else {
      Identical = identicalEngineResults(Baseline, R);
    }

    T.addRow({std::to_string(R.Counters.Workers),
              formatDouble(R.Counters.WallMillis, 0),
              formatDouble(BaselineMs / R.Counters.WallMillis, 2) + "x",
              std::to_string(R.Counters.CacheHits),
              Identical ? "yes" : "NO"});
    ScalingRows.push_back({R.Counters.Workers, R.Counters.WallMillis,
                           BaselineMs / R.Counters.WallMillis,
                           R.Counters.CacheHits});
    if (!Identical) {
      T.print(stdout);
      std::fprintf(stderr,
                   "error: %u-worker sweep diverged from the serial run\n",
                   Workers);
      return 1;
    }
  }
  T.print(stdout);
  std::printf("\nEvery cell here is a distinct kernel, so the cache has "
              "nothing to share\n(hits stay 0) and the speedup is pure "
              "worker parallelism, bounded by\nphysical cores. The matrix "
              "benches (bench_table2_unlimited etc.) are\nwhere the cache "
              "fires: one kernel appears under many memory systems.\n\n");

  // Certifier overhead: the same serial sweep with translation validation
  // on (the default — every schedule and allocation proved) and off. The
  // delta is the price of certification; the results must be identical
  // because certification only observes.
  Table C("Certification overhead (serial sweep)");
  C.setHeader({"Certify", "Wall ms", "Overhead", "Identical"});
  EngineResult CertRuns[2];
  double CertMs[2] = {0.0, 0.0};
  for (int On = 1; On >= 0; --On) {
    PipelineConfig Base;
    Base.Certify = On != 0;
    EngineResult R = ExperimentEngine(1).run(Cells(Base));
    if (degraded(R))
      return 1;
    CertMs[On] = R.Counters.WallMillis;
    CertRuns[On] = std::move(R);
  }
  bool CertIdentical = identicalEngineResults(CertRuns[0], CertRuns[1]);
  C.addRow({"off", formatDouble(CertMs[0], 0), "--", "--"});
  C.addRow({"on", formatDouble(CertMs[1], 0),
            formatDouble(100.0 * (CertMs[1] - CertMs[0]) /
                             (CertMs[0] > 0.0 ? CertMs[0] : 1.0), 1) + "%",
            CertIdentical ? "yes" : "NO"});
  C.print(stdout);
  if (!CertIdentical) {
    std::fprintf(stderr,
                 "error: certification changed the compiled results\n");
    return 1;
  }

  // Observability overhead: the same serial sweep on an engine without a
  // metric registry (the layer compiled in but idle — every instrument
  // handle null) and on one with a registry, which every compile and
  // simulation records into. Results must be identical because metrics
  // only observe; the delta is the price of collection itself.
  // EXPERIMENTS.md records this number plus the idle-vs-BSCHED_NO_OBS
  // comparison.
  std::printf("\n");
  Table O("Observability overhead (serial sweep)");
  O.setHeader({"Metrics", "Wall ms", "Overhead", "Identical"});
  MetricRegistry Metrics;
  EngineResult ObsRuns[2];
  double ObsMs[2] = {0.0, 0.0};
  for (int On = 0; On <= 1; ++On) {
    ObsContext Obs;
    if (On)
      Obs.Metrics = &Metrics;
    EngineResult R = ExperimentEngine(1, Obs).run(Matrix);
    if (degraded(R))
      return 1;
    ObsMs[On] = R.Counters.WallMillis;
    ObsRuns[On] = std::move(R);
  }
  bool ObsIdentical = identicalEngineResults(ObsRuns[0], ObsRuns[1]);
  double ObsOverheadPct = 100.0 * (ObsMs[1] - ObsMs[0]) /
                          (ObsMs[0] > 0.0 ? ObsMs[0] : 1.0);
  O.addRow({"off (idle)", formatDouble(ObsMs[0], 0), "--", "--"});
  O.addRow({"on", formatDouble(ObsMs[1], 0),
            formatDouble(ObsOverheadPct, 1) + "%",
            ObsIdentical ? "yes" : "NO"});
  O.print(stdout);
  if (!ObsIdentical) {
    std::fprintf(stderr,
                 "error: metric collection changed the compiled results\n");
    return 1;
  }

  // With --trace-out, one more serial sweep records every pipeline phase
  // into a Chrome trace (open in ui.perfetto.dev) and the top phases by
  // total time are printed — what scripts/profile.sh drives.
  if (!TraceOut.empty()) {
    TraceRecorder Trace;
    ObsContext Obs;
    Obs.Trace = &Trace;
    if (degraded(ExperimentEngine(1, Obs).run(Matrix)))
      return 1;
    std::string Error;
    if (!Trace.writeFile(TraceOut, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("\n[trace] wrote %s (load it in ui.perfetto.dev)\n",
                TraceOut.c_str());
    std::printf("Top phases by total time:\n");
    for (const PhaseTotal &P : Trace.topPhases(5))
      std::printf("  %-10s %10.1f ms over %llu spans\n", P.Name.c_str(),
                  static_cast<double>(P.TotalUs) / 1000.0,
                  static_cast<unsigned long long>(P.Count));
  }

  // Machine-readable artifact of everything above.
  JsonWriter W;
  W.beginObject();
  W.key("name").value("engine_scaling");
  W.key("config").beginObject();
  W.key("kernels").value(Programs.size());
  W.key("memory_system").value(Memory.name());
  W.key("runs_per_block").value(Sim.NumRuns);
  W.endObject();
  W.key("scaling").beginArray();
  for (const ScalingRow &Row : ScalingRows) {
    W.beginObject();
    W.key("workers").value(Row.Workers);
    W.key("wall_ms").valueFixed(Row.WallMs, 3);
    W.key("speedup").valueFixed(Row.Speedup, 3);
    W.key("cache_hits").value(Row.CacheHits);
    W.endObject();
  }
  W.endArray();
  W.key("certify_overhead").beginObject();
  W.key("off_wall_ms").valueFixed(CertMs[0], 3);
  W.key("on_wall_ms").valueFixed(CertMs[1], 3);
  W.key("overhead_percent")
      .valueFixed(100.0 * (CertMs[1] - CertMs[0]) /
                      (CertMs[0] > 0.0 ? CertMs[0] : 1.0),
                  2);
  W.endObject();
  W.key("obs_overhead").beginObject();
  W.key("idle_wall_ms").valueFixed(ObsMs[0], 3);
  W.key("collecting_wall_ms").valueFixed(ObsMs[1], 3);
  W.key("overhead_percent").valueFixed(ObsOverheadPct, 2);
  W.endObject();
  W.key("cycles").value(
      counterOrZero(Metrics.snapshot(), "bsched.sim.cycles"));
  W.endObject();
  writeBenchArtifact("engine_scaling", W);
  return 0;
}
