//===- bench/repro/PaperExperiments.h - The paper's experiments -*- C++ -*-===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One definition of each experiment: the paper's Figures 1-5 and Tables
/// 1-5, its variants (sections 3, 4.1 and 4.2), its section 6 extensions
/// and alias pruning. Each holds its inputs, table, claims and artifact,
/// from PipelineConfig::paperDefault() and the default simulation seed;
/// every simulated number comes from experiment-engine cells. Each bench
/// main is one benchMain call; repro_digest hashes what every definition
/// measured.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_BENCH_REPRO_PAPEREXPERIMENTS_H
#define BSCHED_BENCH_REPRO_PAPEREXPERIMENTS_H

#include <cstdio>
#include <string>
#include <string_view>

namespace bsched::repro {

/// One run of a paper experiment. A bench main reports to stdout and
/// writes the BENCH artifact; repro_digest reports nowhere, hashing Bits.
/// Only repro_digest reads Bits, so only a report that goes nowhere keeps
/// them.
struct Report {
  std::FILE *Out = nullptr; ///< Where the report goes; nullptr: nowhere.
  std::string Bits;         ///< The exact bytes of every result, in order.
  bool ClaimsHold = true;   ///< Cleared by a failed claim (exit code 1).

  bool keepsBits() const { return !Out; }
  void say(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Append a number's bytes (a double's bit pattern) or a string to Bits
  /// when it is kept.
  template <typename T> void add(T V) {
    if (keepsBits())
      Bits.append(reinterpret_cast<const char *>(&V), sizeof V);
  }
  void addText(std::string_view Text) {
    if (keepsBits())
      (Bits += Text) += '\0';
  }
};

using Experiment = void (*)(Report &);

void figures1to5(Report &R); ///< Weights, schedules, Fig. 3's interlocks.
void table1(Report &R);      ///< Fig. 7's weight-contribution matrix.
void table2(Report &R);      ///< UNLIMITED; checks 11 shape claims.
void table3(Report &R);      ///< MDG on every system and processor.
void table4(Report &R);      ///< Spill share of executed instructions.
void table5(Report &R);      ///< N(30,5) on every processor model.

void ablationAverage(Report &R);   ///< Section 3's block-average LLP.
void ablationUnionFind(Report &R); ///< Section 3's union-find Chances.
void ablationAliasing(Report &R);  ///< Section 4.2's alias transformation.
void ablationSpillPool(Report &R); ///< Section 4.1's spill-register pool.
void ablationRenaming(Report &R);  ///< Section 4.1's renaming alternative.
void extFp(Report &R);             ///< Section 6: multi-cycle FP ops.
void extSuperscalar(Report &R);    ///< Section 6: issue widths 1, 2, 4.
void extKnownLatency(Report &R);   ///< Section 6: known hits opt out.
void extSuperblock(Report &R);     ///< Section 6: scheduling-region size.
/// Memory edges pruned by the symbolic analysis; a compiled program whose
/// interpreted memory image diverges from its source fails the claim.
void aliasPruning(Report &R);

/// Runs \p Run reporting to stdout; the exit code for main: 0, 1 for a
/// failed claim, or 2, before anything runs, when BSCHED_FAILPOINTS is
/// malformed.
int benchMain(Experiment Run);

} // namespace bsched::repro

#endif // BSCHED_BENCH_REPRO_PAPEREXPERIMENTS_H
