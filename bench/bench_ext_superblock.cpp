//===- bench/bench_ext_superblock.cpp - Block-enlargement extension --------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::extSuperblock); }
