//===- bench/bench_ablation_spillpool.cpp - Spill-pool ablation ------------==//
#include "bench/repro/PaperExperiments.h"
int main() {
  return bsched::repro::benchMain(bsched::repro::ablationSpillPool);
}
