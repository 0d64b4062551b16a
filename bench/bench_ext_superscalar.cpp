//===- bench/bench_ext_superscalar.cpp - Superscalar extension -------------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::extSuperscalar); }
