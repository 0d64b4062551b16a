//===- bench/bench_table5_n30.cpp - Table 5 reproduction ------------------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::table5); }
