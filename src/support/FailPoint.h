//===- support/FailPoint.h - Deterministic fault injection -----*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded fail-point registry (DESIGN.md §3i): named
/// sites at every ErrorOr boundary of the stack can be armed to fail with
/// a given probability, turning OOM/transient-failure paths into testable
/// code. Two evaluation modes:
///
///  - *Keyed* (`shouldFail(Site, Key)`): a pure function of (site seed,
///    probability, caller key). The pipeline keys sites by kernel content,
///    so a given compile faults identically whether the experiment engine
///    runs serially or across a pool — chaos sweeps stay bit-comparable.
///  - *Stream* (`shouldFail(Site)`): a per-site counter-advancing
///    sequence, deterministic under serial execution. Used where no
///    natural content key exists (the thread-pool task-entry site).
///
/// Arming: programmatic (`enable`/`ScopedFailPoint`) or the
/// `BSCHED_FAILPOINTS=site:prob:seed[,site:prob:seed...]` environment
/// variable, read once on first registry use. Site names are lowercase,
/// dash-separated stage names (the `failpoints::` constants below).
///
/// The disarmed fast path is one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_SUPPORT_FAILPOINT_H
#define BSCHED_SUPPORT_FAILPOINT_H

#include "support/Diagnostic.h"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace bsched {

/// Canonical site names, one per guarded stage joint. Keep DESIGN.md §3i's
/// table in sync when adding one.
namespace failpoints {
constexpr const char *Parse = "parse";
constexpr const char *DagBuild = "dag-build";
constexpr const char *ClosureAlloc = "closure-alloc";
constexpr const char *Weighting = "weighting";
constexpr const char *Scheduling = "scheduling";
constexpr const char *RegAlloc = "regalloc";
constexpr const char *Certify = "certify";
constexpr const char *Sim = "sim";
constexpr const char *PoolTask = "pool-task";
constexpr const char *EngineCell = "engine-cell";
/// Every site above; parseSpec arms no other name.
constexpr const char *All[] = {Parse,     DagBuild, ClosureAlloc, Weighting,
                               Scheduling, RegAlloc, Certify,      Sim,
                               PoolTask,   EngineCell};
} // namespace failpoints

/// Thrown by throwIfFailPointHit (the thread-pool task-entry site); the
/// pool's fault capture converts it into a recorded fault string.
class FailPointException : public std::runtime_error {
public:
  explicit FailPointException(std::string_view Site)
      : std::runtime_error("injected fault at fail point '" +
                           std::string(Site) + "'"),
        SiteName(Site) {}

  const std::string &site() const { return SiteName; }

private:
  std::string SiteName;
};

/// The process-wide registry of armed fail points. Thread-safe; the
/// disarmed fast path never takes the mutex.
class FailPointRegistry {
public:
  static FailPointRegistry &instance();

  /// Arms \p Site: evaluations fail with probability \p Probability
  /// (clamped to [0, 1]; >= 1 fails every time) drawn deterministically
  /// from \p Seed. Re-enabling a site replaces its arming and resets its
  /// stream and counters.
  void enable(std::string_view Site, double Probability, uint64_t Seed);

  /// Disarms \p Site (no-op when not armed).
  void disable(std::string_view Site);

  /// Disarms every site and clears all counters.
  void disableAll();

  /// True when at least one site is armed (one relaxed atomic load).
  bool anyEnabled() const;

  /// Stream evaluation: advances \p Site's sequence. False when the site
  /// is unarmed.
  bool shouldFail(std::string_view Site);

  /// Keyed evaluation: pure function of (site seed, probability, \p Key).
  /// False when the site is unarmed.
  bool shouldFail(std::string_view Site, uint64_t Key);

  /// Total evaluations / injected failures since the last disableAll().
  uint64_t evaluations() const;
  uint64_t hits() const;

  /// Arms sites from "site:prob:seed[,site:prob:seed...]": a
  /// failpoints::All name, a probability in [0, 1] and an unsigned seed
  /// that fits in 64 bits. Returns false (and explains in \p Error, when
  /// non-null) on a malformed entry, having armed none of them.
  bool parseSpec(std::string_view Spec, std::string *Error = nullptr);

  /// The parse error from the BSCHED_FAILPOINTS environment variable, if
  /// any ("" = none). The registry never prints it: a program whose run
  /// can reach a fail-point site checks this before running, so a typo
  /// is an error instead of a run without injection.
  std::string envError() const;

private:
  FailPointRegistry();
  struct Impl;
  Impl *I; // Leaked singleton state: no destruction-order hazards.
};

/// One relaxed load when nothing is armed anywhere.
bool anyFailPointsEnabled();

/// Stream-evaluates \p Site. Always false when disarmed.
bool failPointHit(std::string_view Site);

/// Key-evaluates \p Site. Always false when disarmed.
bool failPointHit(std::string_view Site, uint64_t Key);

/// The structured diagnostic an injected fault surfaces as (BS810).
Diagnostic failPointDiagnostic(std::string_view Site);

/// failPointHit + failPointDiagnostic in one call: the diagnostic when the
/// keyed site fires, std::nullopt otherwise.
std::optional<Diagnostic> checkFailPoint(std::string_view Site,
                                         uint64_t Key);

/// Stream-evaluates \p Site and throws FailPointException on a hit — the
/// entry used inside thread-pool tasks, where the pool's fault capture is
/// the boundary under test.
void throwIfFailPointHit(std::string_view Site);

/// Deterministic 64-bit key combiner (splitmix64 finalizer over A ^ B);
/// callers derive per-block/per-pass sub-keys with it.
uint64_t failPointMix(uint64_t A, uint64_t B);

/// RAII arming for tests: enables the site on construction, restores the
/// previous disarmed state on destruction.
class ScopedFailPoint {
public:
  ScopedFailPoint(std::string_view Site, double Probability, uint64_t Seed)
      : Site(Site) {
    FailPointRegistry::instance().enable(Site, Probability, Seed);
  }
  ~ScopedFailPoint() { FailPointRegistry::instance().disable(Site); }
  ScopedFailPoint(const ScopedFailPoint &) = delete;
  ScopedFailPoint &operator=(const ScopedFailPoint &) = delete;

private:
  std::string Site;
};

} // namespace bsched

#endif // BSCHED_SUPPORT_FAILPOINT_H
