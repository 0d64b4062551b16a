//===- perfbench/driver/main.cpp - Benchmark driver entry point -----------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
// Runs one workload of the repository benchmark and writes its raw
// measurements for perfbench/run.py, which builds and invokes it:
//
//   perfbench_driver --workload paper-tables|serve-cold|serve-warm|huge-compile
//                    --seed N --seconds S --trace 0|1 --out DIR
//                    [--server PATH/TO/bsched_server]
//
// Exit 0 once DIR/raw.json is written (failed ops are counted inside it);
// 1 on a usage error or when the workload could not run at all.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Tracer.h"

#include "support/Json.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string_view>

using namespace perfbench;

namespace {

/// How this driver was built, for the result's provenance.
bool writeBuildInfo(const std::string &Dir) {
  bsched::JsonWriter W;
  W.beginObject();
  W.key("compiler").value(PERFBENCH_COMPILER);
  W.key("build_type").value(PERFBENCH_BUILD_TYPE);
#ifdef BSCHED_NO_OBS
  W.key("BSCHED_NO_OBS").value(true);
#else
  W.key("BSCHED_NO_OBS").value(false);
#endif
#ifdef BSCHED_NO_FAILPOINTS
  W.key("BSCHED_NO_FAILPOINTS").value(true);
#else
  W.key("BSCHED_NO_FAILPOINTS").value(false);
#endif
  W.endObject();
  std::ofstream Out(Dir + "/build.json", std::ios::trunc);
  Out << W.str() << '\n';
  return static_cast<bool>(Out);
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--out DIR [--server EXE]\n",
               Argv0);
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string_view Flag = argv[I];
    const char *Value = argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Value, &End, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::strtod(Value, &End);
    else if (Flag == "--trace")
      Opts.Trace = std::string_view(Value) == "1";
    else if (Flag == "--out")
      Opts.OutDir = Value;
    else if (Flag == "--server")
      Opts.ServerExe = Value;
    else
      return usage(argv[0]);
    if (End && *End != '\0')
      return usage(argv[0]);
  }
  if (argc % 2 != 1 || Opts.OutDir.empty() || !(Opts.Seconds > 0.0))
    return usage(argv[0]);

  // A daemon that vanishes mid-request must show up as a failed op, not
  // kill the client.
  std::signal(SIGPIPE, SIG_IGN);
  RunResult R;
  try {
    if (Opts.Workload == "paper-tables")
      R = runPaperTables(Opts);
    else if (Opts.Workload == "huge-compile")
      R = runHugeCompile(Opts);
    else if (Opts.Workload == "serve-cold" || Opts.Workload == "serve-warm")
      R = runServe(Opts, Opts.Workload == "serve-warm");
    else
      return usage(argv[0]);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench_driver: %s\n", E.what());
    return 1;
  }
  if (Opts.Trace) {
    R.SpanNames = callNames();
    if (!writeSpans(Opts.OutDir + "/spans.bin"))
      return 1;
  }
  return R.write(Opts.OutDir) && writeBuildInfo(Opts.OutDir) ? 0 : 1;
}
