//===- bench/bench_ablation_unionfind.cpp - Chances-estimate ablation ------==//
#include "bench/repro/PaperExperiments.h"
int main() {
  return bsched::repro::benchMain(bsched::repro::ablationUnionFind);
}
