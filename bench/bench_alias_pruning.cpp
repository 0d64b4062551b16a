//===- bench/bench_alias_pruning.cpp - Symbolic memory disambiguation ------==//
// Writes BENCH_alias_pruning.json; exits 1 if a compiled memory image
// diverges from its source program.
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::aliasPruning); }
