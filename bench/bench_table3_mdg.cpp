//===- bench/bench_table3_mdg.cpp - Table 3 reproduction ------------------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::table3); }
