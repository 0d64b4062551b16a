//===- bench/bench_fig3_interlocks.cpp - Figures 1-5 reproduction ---------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::figures1to5); }
