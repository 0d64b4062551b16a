//===- bench/repro/repro_digest.cpp - Digest of every experiment ----------==//
//
// Runs every experiment once and prints a stableHash of what each
// measured, then one of all of them. The `repro_digest` ctest pins these
// lines (repro/digest.txt), so "nothing moved" is one command. A
// malformed BSCHED_FAILPOINTS exits 2 before any experiment runs.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "bench/repro/PaperExperiments.h"
#include "support/StringUtils.h"

#include <cinttypes>

int main() {
  using namespace bsched::repro;
  if (!bsched::bench::failPointSpecOk())
    return 2;
  // Every experiment under its digest name: the paper's in its order, then
  // the others under their bench names.
  const struct {
    const char *Name;
    Experiment Run;
  } Experiments[] = {{"fig1-5", figures1to5},
                     {"table1", table1},
                     {"table2", table2},
                     {"table3", table3},
                     {"table4", table4},
                     {"table5", table5},
                     {"ablation_average", ablationAverage},
                     {"ablation_unionfind", ablationUnionFind},
                     {"ablation_aliasing", ablationAliasing},
                     {"ablation_spillpool", ablationSpillPool},
                     {"ablation_renaming", ablationRenaming},
                     {"ext_fp", extFp},
                     {"ext_superscalar", extSuperscalar},
                     {"ext_known_latency", extKnownLatency},
                     {"ext_superblock", extSuperblock},
                     {"alias_pruning", aliasPruning}};
  std::string All;
  for (const auto &E : Experiments) {
    Report R;
    E.Run(R);
    std::printf("%-6s 0x%016" PRIx64 "\n", E.Name, bsched::stableHash(R.Bits));
    All += R.Bits;
  }
  std::printf("total  0x%016" PRIx64 "\n", bsched::stableHash(All));
}
