//===- bench/bench_table4_spills.cpp - Table 4 reproduction ---------------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::table4); }
