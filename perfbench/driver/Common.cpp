//===- perfbench/driver/Common.cpp - Shared benchmark plumbing ------------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/Json.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perfbench;

void RunResult::fail(std::string Why, uint64_t Ops) {
  Failed += Ops;
  if (Problems.size() < 20)
    Problems.push_back(std::move(Why));
}

namespace {

bool writeDoubles(const std::string &Path, const std::vector<double> &Values) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Values.data()),
            static_cast<std::streamsize>(Values.size() * sizeof(double)));
  return static_cast<bool>(Out);
}

void writeFigures(bsched::JsonWriter &W, const char *Key,
                  const std::vector<Figure> &Figures) {
  W.key(Key).beginArray();
  for (const Figure &F : Figures) {
    W.beginObject();
    W.key("name").value(F.Name);
    W.key("value").value(F.Value);
    W.key("unit").value(F.Unit);
    W.endObject();
  }
  W.endArray();
}

} // namespace

bool RunResult::write(const std::string &Dir) const {
  bsched::JsonWriter W;
  W.beginObject();
  W.key("setup_s").beginArray();
  for (double S : SetupS)
    W.value(S);
  W.endArray();
  W.key("attempted").value(Attempted);
  W.key("failed").value(Failed);
  W.key("problems").beginArray();
  for (const std::string &P : Problems)
    W.value(P);
  W.endArray();
  W.key("rate_per_s").beginArray();
  for (double R : RatePerS)
    W.value(R);
  W.endArray();
  W.key("code_growth").value(CodeGrowth);
  W.key("peak_rss_mib").value(PeakRssMib);
  char Digest[17];
  std::snprintf(Digest, sizeof(Digest), "%016llx",
                static_cast<unsigned long long>(InputDigest));
  W.key("input_digest").value(Digest);
  writeFigures(W, "info", Info);
  writeFigures(W, "layer", Layer);
  W.key("span_names").beginArray();
  for (const std::string &N : SpanNames)
    W.value(N);
  W.endArray();
  W.endObject();

  std::ofstream Out(Dir + "/raw.json", std::ios::trunc);
  Out << W.str() << '\n';
  return static_cast<bool>(Out) &&
         writeDoubles(Dir + "/latency_ms.f64", LatencyMs) &&
         writeDoubles(Dir + "/done_s.f64", DoneS) &&
         writeDoubles(Dir + "/untraced_op_ms.f64", UntracedOpMs) &&
         writeDoubles(Dir + "/handle_ms.f64", HandleMs) &&
         writeDoubles(Dir + "/wait_ms.f64", WaitMs);
}

double perfbench::peakRssMib(const std::string &Pid) {
  std::ifstream In("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream Fields(Line.substr(6));
      double Kib = 0.0;
      Fields >> Kib;
      return Kib / 1024.0;
    }
  return 0.0;
}

uint64_t perfbench::fnv1a(std::string_view Text) {
  uint64_t Hash = 0xCBF29CE484222325ULL;
  for (char C : Text) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 0x100000001B3ULL;
  }
  return Hash;
}

uint64_t perfbench::bodyHash(std::string_view PrintedIr) {
  size_t Eol = PrintedIr.find('\n');
  return fnv1a(Eol == std::string_view::npos ? std::string_view()
                                             : PrintedIr.substr(Eol + 1));
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ULL * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}
