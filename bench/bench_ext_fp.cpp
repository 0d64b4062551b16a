//===- bench/bench_ext_fp.cpp - Multi-cycle FP extension -------------------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::extFp); }
