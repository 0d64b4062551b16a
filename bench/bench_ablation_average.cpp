//===- bench/bench_ablation_average.cpp - Average-LLP ablation -------------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::ablationAverage); }
