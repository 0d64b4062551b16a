//===- tests/StatsTest.cpp - Unit tests for bootstrap statistics ----------==//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "stats/Bootstrap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

using namespace bsched;

TEST(BootstrapTest, MeansClusterAroundSampleMean) {
  std::vector<double> Samples;
  for (int I = 0; I != 30; ++I)
    Samples.push_back(100.0 + I); // Mean 114.5.
  Rng R(1);
  std::vector<double> Means = bootstrapMeans(Samples, 200, R);
  ASSERT_EQ(Means.size(), 200u);
  EXPECT_NEAR(mean(Means), 114.5, 1.0);
  for (double M : Means) {
    EXPECT_GE(M, 100.0);
    EXPECT_LE(M, 129.0);
  }
}

TEST(BootstrapTest, ConstantSamplesGiveConstantMeans) {
  std::vector<double> Samples(30, 42.0);
  Rng R(2);
  for (double M : bootstrapMeans(Samples, 50, R))
    EXPECT_DOUBLE_EQ(M, 42.0);
}

TEST(BootstrapTest, DeterministicGivenSeed) {
  std::vector<double> Samples{1, 2, 3, 4, 5, 6, 7, 8};
  Rng R1(7), R2(7);
  EXPECT_EQ(bootstrapMeans(Samples, 20, R1), bootstrapMeans(Samples, 20, R2));
}

TEST(BootstrapTest, ResampleVarianceShrinksWithSampleSize) {
  Rng Data(3);
  std::vector<double> Small, Large;
  for (int I = 0; I != 10; ++I)
    Small.push_back(50.0 + 10.0 * Data.nextGaussian());
  for (int I = 0; I != 1000; ++I)
    Large.push_back(50.0 + 10.0 * Data.nextGaussian());
  Rng R1(4), R2(4);
  double SpreadSmall = stddev(bootstrapMeans(Small, 200, R1));
  double SpreadLarge = stddev(bootstrapMeans(Large, 200, R2));
  EXPECT_GT(SpreadSmall, SpreadLarge);
}

TEST(PairedImprovementTest, PositiveWhenCandidateFaster) {
  std::vector<double> Base(100, 200.0);
  std::vector<double> Cand(100, 150.0);
  ImprovementEstimate E = pairedImprovement(Base, Cand);
  EXPECT_NEAR(E.MeanPercent, 25.0, 1e-12);
  EXPECT_NEAR(E.Ci95.Lo, 25.0, 1e-12);
  EXPECT_NEAR(E.Ci95.Hi, 25.0, 1e-12);
  EXPECT_TRUE(E.significant());
}

TEST(PairedImprovementTest, NegativeWhenCandidateSlower) {
  std::vector<double> Base(100, 100.0);
  std::vector<double> Cand(100, 110.0);
  ImprovementEstimate E = pairedImprovement(Base, Cand);
  EXPECT_NEAR(E.MeanPercent, -10.0, 1e-12);
  EXPECT_TRUE(E.significant());
}

TEST(PairedImprovementTest, CiBracketsNoisyDifferences) {
  Rng R(11);
  std::vector<double> Base, Cand;
  for (int I = 0; I != 100; ++I) {
    Base.push_back(100.0 + R.nextGaussian());
    Cand.push_back(95.0 + R.nextGaussian());
  }
  ImprovementEstimate E = pairedImprovement(Base, Cand);
  EXPECT_NEAR(E.MeanPercent, 5.0, 1.0);
  EXPECT_LT(E.Ci95.Lo, E.MeanPercent);
  EXPECT_GT(E.Ci95.Hi, E.MeanPercent);
  EXPECT_TRUE(E.significant());
}

TEST(PairedImprovementTest, PinnedBitsForUnsortedInputWithTies) {
  // Every Table 2-5 cell reports these three numbers, so their bits are
  // pinned: the improvements arrive unsorted, with ties (three equal
  // pairs, two zero improvements), and both CI bounds interpolate.
  std::vector<double> Base = {103.25, 97.5, 101.0, 99.75, 101.0, 104.5,
                              98.0,   101.0, 96.25, 102.5, 100.0};
  std::vector<double> Cand = {99.0, 97.5, 95.5, 101.25, 95.5, 97.0,
                              99.5, 95.5, 93.0, 99.0,   100.0};
  ImprovementEstimate E = pairedImprovement(Base, Cand);
  EXPECT_EQ(std::bit_cast<uint64_t>(E.MeanPercent), 0x4006d3a5a0c7f157u)
      << E.MeanPercent;
  EXPECT_EQ(std::bit_cast<uint64_t>(E.Ci95.Lo), 0xbff861e3f3e6b3d5u)
      << E.Ci95.Lo;
  EXPECT_EQ(std::bit_cast<uint64_t>(E.Ci95.Hi), 0x401afa0568ac35feu)
      << E.Ci95.Hi;
}

TEST(PairedImprovementTest, InsignificantWhenOverlapping) {
  Rng R(13);
  std::vector<double> Base, Cand;
  for (int I = 0; I != 100; ++I) {
    Base.push_back(100.0 + 5.0 * R.nextGaussian());
    Cand.push_back(100.0 + 5.0 * R.nextGaussian());
  }
  ImprovementEstimate E = pairedImprovement(Base, Cand);
  EXPECT_FALSE(E.significant());
}
