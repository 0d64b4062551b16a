//===- support/FailPoint.cpp - Deterministic fault injection ----------------=/
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

using namespace bsched;

namespace {

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of \p X.
double unitDouble(uint64_t X) {
  return static_cast<double>(X >> 11) * 0x1.0p-53;
}

/// Armed sites are rare and evaluations behind the armed flag are test
/// traffic, so one mutex over the whole table is plenty.
struct SiteState {
  double Probability = 0.0;
  uint64_t Seed = 0;
  uint64_t Stream = 0; ///< Advancing state for stream evaluations.
  uint64_t Evals = 0;
  uint64_t Hits = 0;
};

std::atomic<bool> AnyEnabled{false};

} // namespace

struct FailPointRegistry::Impl {
  mutable std::mutex Mutex;
  std::unordered_map<std::string, SiteState> Sites;
  std::string EnvError;

  SiteState *find(std::string_view Site) {
    auto It = Sites.find(std::string(Site));
    return It == Sites.end() ? nullptr : &It->second;
  }

  bool evaluate(SiteState &S, uint64_t Draw) {
    ++S.Evals;
    bool Hit = S.Probability >= 1.0 || unitDouble(Draw) < S.Probability;
    S.Hits += Hit;
    return Hit;
  }
};

FailPointRegistry::FailPointRegistry() : I(new Impl) {
  // A malformed spec arms nothing; envError() hands the reason to the
  // program, which reports it.
  if (const char *Env = std::getenv("BSCHED_FAILPOINTS"))
    parseSpec(Env, &I->EnvError);
}

FailPointRegistry &FailPointRegistry::instance() {
  static FailPointRegistry *Singleton = new FailPointRegistry;
  return *Singleton;
}

namespace {
/// The fast path (anyFailPointsEnabled) short-circuits before touching the
/// registry, so a process that never arms a site programmatically would
/// otherwise never parse BSCHED_FAILPOINTS. Constructing the singleton at
/// load time closes that gap; when the variable is unset this is one
/// getenv.
[[maybe_unused]] const bool EnvSpecArmed =
    (FailPointRegistry::instance(), true);
} // namespace

void FailPointRegistry::enable(std::string_view Site, double Probability,
                               uint64_t Seed) {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  SiteState &S = I->Sites[std::string(Site)];
  S = SiteState();
  S.Probability = Probability < 0.0 ? 0.0 : Probability;
  S.Seed = Seed;
  S.Stream = mix64(Seed);
  AnyEnabled.store(true, std::memory_order_relaxed);
}

void FailPointRegistry::disable(std::string_view Site) {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  I->Sites.erase(std::string(Site));
  if (I->Sites.empty())
    AnyEnabled.store(false, std::memory_order_relaxed);
}

void FailPointRegistry::disableAll() {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  I->Sites.clear();
  AnyEnabled.store(false, std::memory_order_relaxed);
}

bool FailPointRegistry::anyEnabled() const {
  return AnyEnabled.load(std::memory_order_relaxed);
}

bool FailPointRegistry::shouldFail(std::string_view Site) {
  if (!anyEnabled())
    return false;
  std::lock_guard<std::mutex> Lock(I->Mutex);
  SiteState *S = I->find(Site);
  if (!S)
    return false;
  S->Stream = mix64(S->Stream);
  return I->evaluate(*S, S->Stream);
}

bool FailPointRegistry::shouldFail(std::string_view Site, uint64_t Key) {
  if (!anyEnabled())
    return false;
  std::lock_guard<std::mutex> Lock(I->Mutex);
  SiteState *S = I->find(Site);
  if (!S)
    return false;
  // Pure in (Seed, Key): the same compile faults the same way regardless
  // of evaluation order across threads.
  return I->evaluate(*S, mix64(S->Seed ^ mix64(Key)));
}

uint64_t FailPointRegistry::evaluations() const {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  uint64_t N = 0;
  for (const auto &[Name, S] : I->Sites)
    N += S.Evals;
  return N;
}

uint64_t FailPointRegistry::hits() const {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  uint64_t N = 0;
  for (const auto &[Name, S] : I->Sites)
    N += S.Hits;
  return N;
}

bool FailPointRegistry::parseSpec(std::string_view Spec,
                                  std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = "bad BSCHED_FAILPOINTS entry: " + Why +
               " (expected site:prob:seed[,site:prob:seed...])";
    return false;
  };
  // A spec that a typo or an unusable number would leave partly armed
  // makes a chaos run quietly test less than it says: check every entry
  // before arming any.
  struct Arming {
    std::string Site;
    double Prob;
    uint64_t Seed;
  };
  std::vector<Arming> Armings;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    std::string_view Entry =
        Spec.substr(Pos, End == std::string_view::npos ? End : End - Pos);
    Pos = End == std::string_view::npos ? Spec.size() : End + 1;
    if (Entry.empty())
      continue;

    size_t C1 = Entry.find(':');
    size_t C2 = C1 == std::string_view::npos ? C1 : Entry.find(':', C1 + 1);
    if (C1 == std::string_view::npos || C2 == std::string_view::npos)
      return Fail("'" + std::string(Entry) + "'");
    std::string Site(Entry.substr(0, C1));
    std::string ProbText(Entry.substr(C1 + 1, C2 - C1 - 1));
    std::string SeedText(Entry.substr(C2 + 1));
    if (std::find(std::begin(failpoints::All), std::end(failpoints::All),
                  Site) == std::end(failpoints::All))
      return Fail("unknown site '" + Site + "'");

    // NaN fails both comparisons.
    char *ProbEnd = nullptr;
    double Prob = std::strtod(ProbText.c_str(), &ProbEnd);
    if (ProbEnd == ProbText.c_str() || *ProbEnd != '\0' ||
        !(Prob >= 0.0 && Prob <= 1.0))
      return Fail("probability '" + ProbText + "' (not in [0, 1])");
    // strtoull would wrap a sign and saturate an overflow silently.
    char *SeedEnd = nullptr;
    errno = 0;
    uint64_t Seed = std::strtoull(SeedText.c_str(), &SeedEnd, 0);
    if (SeedText.empty() || !std::isdigit(static_cast<unsigned char>(
                                SeedText.front())) ||
        *SeedEnd != '\0' || errno == ERANGE)
      return Fail("seed '" + SeedText + "' (not an unsigned 64-bit integer)");
    Armings.push_back({std::move(Site), Prob, Seed});
  }
  for (const Arming &A : Armings)
    enable(A.Site, A.Prob, A.Seed);
  return true;
}

std::string FailPointRegistry::envError() const {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  return I->EnvError;
}

bool bsched::anyFailPointsEnabled() {
  return AnyEnabled.load(std::memory_order_relaxed);
}

bool bsched::failPointHit(std::string_view Site) {
  if (!anyFailPointsEnabled())
    return false;
  return FailPointRegistry::instance().shouldFail(Site);
}

bool bsched::failPointHit(std::string_view Site, uint64_t Key) {
  if (!anyFailPointsEnabled())
    return false;
  return FailPointRegistry::instance().shouldFail(Site, Key);
}

Diagnostic bsched::failPointDiagnostic(std::string_view Site) {
  return {0, 0,
          "injected fault at fail point '" + std::string(Site) + "'",
          Severity::Error, DiagCode::InjectedFault};
}

std::optional<Diagnostic> bsched::checkFailPoint(std::string_view Site,
                                                 uint64_t Key) {
  if (failPointHit(Site, Key))
    return failPointDiagnostic(Site);
  return std::nullopt;
}

void bsched::throwIfFailPointHit(std::string_view Site) {
  if (failPointHit(Site))
    throw FailPointException(Site);
}

uint64_t bsched::failPointMix(uint64_t A, uint64_t B) {
  return mix64(A ^ mix64(B));
}
