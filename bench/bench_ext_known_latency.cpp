//===- bench/bench_ext_known_latency.cpp - Known-latency extension ---------==//
#include "bench/repro/PaperExperiments.h"
int main() { return bsched::repro::benchMain(bsched::repro::extKnownLatency); }
