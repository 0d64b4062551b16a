//===- bench/bench_table2_unlimited.cpp - Table 2 reproduction ------------==//
// Prints Table 2, defined in bench/repro/PaperExperiments.cpp; exits 1
// unless its shape claims hold (the `table2_shape` ctest).
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::table2); }
