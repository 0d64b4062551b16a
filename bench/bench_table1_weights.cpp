//===- bench/bench_table1_weights.cpp - Table 1 reproduction --------------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::table1); }
