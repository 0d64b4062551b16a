//===- bench/bench_ablation_renaming.cpp - Post-RA renaming ablation -------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::ablationRenaming); }
