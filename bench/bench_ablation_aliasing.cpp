//===- bench/bench_ablation_aliasing.cpp - Aliasing-transform ablation -----==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::ablationAliasing); }
