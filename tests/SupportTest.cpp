//===- tests/SupportTest.cpp - Unit tests for the support library --------===//
//
// Part of the bsched project: a reproduction of Kerns & Eggers,
// "Balanced Scheduling" (PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

using namespace bsched;

//===----------------------------------------------------------------------===
// UnionFind
//===----------------------------------------------------------------------===

TEST(UnionFindTest, StartsAsSingletons) {
  UnionFind UF(5);
  EXPECT_EQ(UF.size(), 5u);
  EXPECT_EQ(UF.numSets(), 5u);
  for (unsigned I = 0; I != 5; ++I)
    EXPECT_EQ(UF.find(I), I);
}

TEST(UnionFindTest, UniteMergesSets) {
  UnionFind UF(6);
  UF.unite(0, 1);
  UF.unite(2, 3);
  EXPECT_EQ(UF.numSets(), 4u);
  EXPECT_TRUE(UF.connected(0, 1));
  EXPECT_TRUE(UF.connected(2, 3));
  EXPECT_FALSE(UF.connected(1, 2));
  UF.unite(1, 2);
  EXPECT_TRUE(UF.connected(0, 3));
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, SelfUniteIsNoOp) {
  UnionFind UF(3);
  unsigned Root = UF.unite(1, 1);
  EXPECT_EQ(Root, 1u);
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, UniteReturnsStableRepresentative) {
  UnionFind UF(4);
  unsigned Root = UF.unite(0, 1);
  EXPECT_EQ(UF.find(0), Root);
  EXPECT_EQ(UF.find(1), Root);
  unsigned Root2 = UF.unite(Root, 2);
  EXPECT_EQ(UF.find(2), Root2);
  EXPECT_EQ(UF.find(0), Root2);
}

TEST(UnionFindTest, ResetRestoresSingletons) {
  UnionFind UF(4);
  UF.unite(0, 3);
  UF.reset(2);
  EXPECT_EQ(UF.size(), 2u);
  EXPECT_EQ(UF.numSets(), 2u);
  EXPECT_FALSE(UF.connected(0, 1));
}

TEST(UnionFindTest, LargeChainConnectsEverything) {
  constexpr unsigned N = 10000;
  UnionFind UF(N);
  for (unsigned I = 0; I + 1 != N; ++I)
    UF.unite(I, I + 1);
  EXPECT_EQ(UF.numSets(), 1u);
  EXPECT_TRUE(UF.connected(0, N - 1));
}

//===----------------------------------------------------------------------===
// Rng
//===----------------------------------------------------------------------===

TEST(RngTest, SameSeedSameStream) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.nextUInt64(), B.nextUInt64());
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng A(1), B(2);
  int Differences = 0;
  for (int I = 0; I != 16; ++I)
    Differences += A.nextUInt64() != B.nextUInt64();
  EXPECT_GT(Differences, 12);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RngTest, NextBoundedInRange) {
  Rng R(11);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBounded(17), 17u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng R(3);
  for (int I = 0; I != 50; ++I) {
    EXPECT_FALSE(R.nextBernoulli(0.0));
    EXPECT_TRUE(R.nextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyNearP) {
  Rng R(99);
  int Hits = 0;
  constexpr int N = 100000;
  for (int I = 0; I != N; ++I)
    Hits += R.nextBernoulli(0.8);
  double Rate = static_cast<double>(Hits) / N;
  EXPECT_NEAR(Rate, 0.8, 0.01);
}

TEST(RngTest, GaussianMomentsNearStandardNormal) {
  Rng R(123);
  RunningStat S;
  for (int I = 0; I != 200000; ++I)
    S.add(R.nextGaussian());
  EXPECT_NEAR(S.mean(), 0.0, 0.02);
  EXPECT_NEAR(S.stddev(), 1.0, 0.02);
}

TEST(RngTest, SplitProducesIndependentStreams) {
  Rng Parent(5);
  Rng ChildA = Parent.split(1);
  Rng ChildB = Parent.split(2);
  int Same = 0;
  for (int I = 0; I != 16; ++I)
    Same += ChildA.nextUInt64() == ChildB.nextUInt64();
  EXPECT_LT(Same, 2);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng R(77);
  uint64_t First = R.nextUInt64();
  R.nextUInt64();
  R.reseed(77);
  EXPECT_EQ(R.nextUInt64(), First);
}

//===----------------------------------------------------------------------===
// Statistics
//===----------------------------------------------------------------------===

TEST(StatisticsTest, RunningStatMatchesClosedForm) {
  RunningStat S;
  for (double V : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(V);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  // Unbiased sample variance of the classic example is 32/7.
  EXPECT_NEAR(S.variance(), 32.0 / 7.0, 1e-12);
}

TEST(StatisticsTest, RunningStatEmptyAndSingle) {
  RunningStat S;
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.variance(), 0.0);
  S.add(3.5);
  EXPECT_DOUBLE_EQ(S.mean(), 3.5);
  EXPECT_EQ(S.variance(), 0.0);
}

TEST(StatisticsTest, VectorMeanAndStddev) {
  std::vector<double> V = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(V), 3.0);
  EXPECT_NEAR(stddev(V), std::sqrt(2.5), 1e-12);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(StatisticsTest, QuantileInterpolates) {
  std::vector<double> V = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(V, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(V, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(V, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile(V, 0.25), 17.5);
}

TEST(StatisticsTest, QuantileUnsortedInput) {
  // An unsorted sample is sorted once by its owner (as pairedImprovement
  // does) and then read at any number of quantiles.
  std::vector<double> V = {40, 10, 30, 20};
  std::sort(V.begin(), V.end());
  EXPECT_DOUBLE_EQ(percentile(V, 0.5), 25.0);
}

TEST(StatisticsTest, PercentileHardenedEdgeCases) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);            // Empty: defined, not UB.
  EXPECT_EQ(percentile({7.0}, 0.0), 7.0);         // Single element...
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);        // ...at any P.
  std::vector<double> V = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(V, -0.5), 1.0);     // P clamps low...
  EXPECT_DOUBLE_EQ(percentile(V, 2.0), 2.0);      // ...and high.
}

TEST(StatisticsTest, IntervalContains) {
  Interval I{-1.5, 2.5};
  EXPECT_TRUE(I.contains(0.0));
  EXPECT_TRUE(I.contains(-1.5));
  EXPECT_TRUE(I.contains(2.5));
  EXPECT_FALSE(I.contains(3.0));
  EXPECT_DOUBLE_EQ(I.width(), 4.0);
}

//===----------------------------------------------------------------------===
// StringUtils
//===----------------------------------------------------------------------===

TEST(StringUtilsTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(StringUtilsTest, SplitKeepsEmptyPieces) {
  auto Pieces = split("a, b,, c", ',');
  ASSERT_EQ(Pieces.size(), 4u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "b");
  EXPECT_EQ(Pieces[2], "");
  EXPECT_EQ(Pieces[3], "c");
}

TEST(StringUtilsTest, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(StringUtilsTest, FormatTwelfthsMatchesPaperStyle) {
  // The values printed in the paper's Table 1.
  EXPECT_EQ(formatTwelfths(10.0), "10");
  EXPECT_EQ(formatTwelfths(1.25), "1 1/4");
  EXPECT_EQ(formatTwelfths(2.0 + 5.0 / 12.0), "2 5/12");
  EXPECT_EQ(formatTwelfths(2.0 + 11.0 / 12.0), "2 11/12");
  EXPECT_EQ(formatTwelfths(1.0 / 3.0), "1/3");
  EXPECT_EQ(formatTwelfths(0.0), "0");
}

TEST(StringUtilsTest, FormatTwelfthsFallsBackToDecimal) {
  EXPECT_EQ(formatTwelfths(0.1), "0.1000");
}

//===----------------------------------------------------------------------===
// Table
//===----------------------------------------------------------------------===

TEST(TableTest, AlignsColumns) {
  Table T;
  T.setHeader({"Name", "X"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "23"});
  std::string S = T.toString();
  EXPECT_NE(S.find("Name"), std::string::npos);
  EXPECT_NE(S.find("longer"), std::string::npos);
  // Numeric column right-aligned: "1" lines up under "23"'s last digit.
  EXPECT_NE(S.find(" 1\n"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TableTest, TitleAndSeparator) {
  Table T("My Title");
  T.setHeader({"A"});
  T.addRow({"1"});
  T.addSeparator();
  T.addRow({"2"});
  std::string S = T.toString();
  EXPECT_EQ(S.find("My Title"), 0u);
  EXPECT_NE(S.find("---"), std::string::npos);
}

TEST(TableTest, RowsShorterThanHeaderArePadded) {
  Table T;
  T.setHeader({"A", "B", "C"});
  T.addRow({"x"});
  EXPECT_NO_FATAL_FAILURE({ std::string S = T.toString(); });
}

//===----------------------------------------------------------------------===
// BitVector
//===----------------------------------------------------------------------===

#include "support/BitVector.h"

TEST(BitVectorTest, SetResetTest) {
  BitVector BV(130); // Crosses two word boundaries.
  EXPECT_EQ(BV.size(), 130u);
  EXPECT_FALSE(BV.any());
  BV.set(0);
  BV.set(63);
  BV.set(64);
  BV.set(129);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(63));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(129));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 4u);
  BV.reset(63);
  EXPECT_FALSE(BV.test(63));
  EXPECT_EQ(BV.count(), 3u);
}

TEST(BitVectorTest, SetAllRespectsTail) {
  BitVector BV(70);
  BV.setAll();
  EXPECT_EQ(BV.count(), 70u); // No stray bits beyond the logical size.
  BV.clearAll();
  EXPECT_EQ(BV.count(), 0u);
  EXPECT_FALSE(BV.any());
}

TEST(BitVectorTest, SetOperations) {
  BitVector A(100), B(100);
  A.set(3);
  A.set(70);
  B.set(70);
  B.set(99);

  BitVector Or = A;
  Or |= B;
  EXPECT_EQ(Or.count(), 3u);

  BitVector And = A;
  And &= B;
  EXPECT_EQ(And.count(), 1u);
  EXPECT_TRUE(And.test(70));

  BitVector Diff = A;
  Diff.andNot(B);
  EXPECT_EQ(Diff.count(), 1u);
  EXPECT_TRUE(Diff.test(3));
}

TEST(BitVectorTest, ForEachSetBitAscending) {
  BitVector BV(200);
  for (unsigned I : {5u, 64u, 65u, 190u})
    BV.set(I);
  std::vector<unsigned> Seen;
  BV.forEachSetBit([&](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{5, 64, 65, 190}));
}

TEST(BitVectorTest, EqualityAndResize) {
  BitVector A(10), B(10);
  A.set(7);
  EXPECT_FALSE(A == B);
  B.set(7);
  EXPECT_TRUE(A == B);
  A.resize(20); // Resize clears.
  EXPECT_EQ(A.count(), 0u);
  EXPECT_EQ(A.size(), 20u);
}

//===----------------------------------------------------------------------===
// ThreadPool
//===----------------------------------------------------------------------===

#include "support/ThreadPool.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

TEST(ThreadPoolTest, ResolvesWorkerCount) {
  ThreadPool Serial(1);
  EXPECT_EQ(Serial.workerCount(), 1u);
  ThreadPool Four(4);
  EXPECT_EQ(Four.workerCount(), 4u);
  ThreadPool Default(0);
  EXPECT_GE(Default.workerCount(), 1u);
}

TEST(ThreadPoolTest, RunExecutesEveryTask) {
  ThreadPool Pool(4);
  std::atomic<unsigned> Count{0};
  for (unsigned I = 0; I != 64; ++I)
    Pool.run([&] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 64u);
}

TEST(ThreadPoolTest, ParallelForEachCoversEachIndexOnce) {
  for (unsigned Workers : {1u, 2u, 8u}) {
    ThreadPool Pool(Workers);
    std::vector<std::atomic<unsigned>> Touched(97);
    parallelForEach(Pool, Touched.size(),
                    [&](size_t Index) { ++Touched[Index]; });
    for (size_t I = 0; I != Touched.size(); ++I)
      EXPECT_EQ(Touched[I].load(), 1u) << "workers " << Workers << " index "
                                       << I;
  }
}

TEST(ThreadPoolTest, SingleWorkerRunsInlineInIndexOrder) {
  // The one-worker pool is the serial baseline: iterations run on the
  // calling thread, in order.
  ThreadPool Pool(1);
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<size_t> Order;
  parallelForEach(Pool, 10, [&](size_t Index) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(Index);
  });
  std::vector<size_t> Expected{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(Order, Expected);
}

TEST(ThreadPoolTest, ParallelForEachHandlesEmptyRange) {
  ThreadPool Pool(4);
  bool Ran = false;
  parallelForEach(Pool, 0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPoolTest, DefaultWorkerCountHonorsEnvOverride) {
  ASSERT_EQ(unsetenv("BSCHED_JOBS"), 0);
  const unsigned Fallback = ThreadPool::defaultWorkerCount();
  EXPECT_GE(Fallback, 1u);
  ASSERT_EQ(setenv("BSCHED_JOBS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::defaultWorkerCount(), 5u);
  // Anything --workers would reject, zero, or a count that does not fit
  // an unsigned (and used to wrap) falls back. Only the count is asked
  // for; no pool is built from these values.
  for (const char *Bad : {"-2", "0", "", " 3", "+3", "3 ", "3x", "4294967296",
                          "4294967298", "99999999999999999999"}) {
    ASSERT_EQ(setenv("BSCHED_JOBS", Bad, 1), 0);
    EXPECT_EQ(ThreadPool::defaultWorkerCount(), Fallback) << '"' << Bad << '"';
  }
  ASSERT_EQ(unsetenv("BSCHED_JOBS"), 0);
}

//===----------------------------------------------------------------------===
// JsonWriter
//===----------------------------------------------------------------------===

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter W;
  W.beginObject();
  W.key("cells").value(8u);
  W.key("ok").value(true);
  W.key("rows").beginArray().value("a").value(2).endArray();
  W.key("nested").beginObject().key("x").value(-3).endObject();
  W.endObject();
  EXPECT_EQ(W.str(),
            R"({"cells":8,"ok":true,"rows":["a",2],"nested":{"x":-3}})");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter W;
  W.value(std::string_view("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(W.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  EXPECT_EQ(JsonWriter::escape("plain"), "\"plain\"");
}

TEST(JsonWriterTest, DoublesRoundTripShortest) {
  {
    JsonWriter W;
    W.value(0.1);
    EXPECT_EQ(W.str(), "0.1");
  }
  {
    JsonWriter W;
    W.value(1.0 / 3.0);
    double Back = std::stod(W.str());
    EXPECT_EQ(Back, 1.0 / 3.0);
  }
  {
    JsonWriter W;
    W.value(std::nan(""));
    EXPECT_EQ(W.str(), "null"); // JSON has no NaN literal.
  }
}

TEST(JsonWriterTest, ValueFixedAndRawValue) {
  JsonWriter W;
  W.beginObject();
  W.key("wall_ms").valueFixed(1.23456, 3);
  W.key("sub").rawValue(R"({"a":1})");
  W.endObject();
  EXPECT_EQ(W.str(), R"({"wall_ms":1.235,"sub":{"a":1}})");
}

TEST(JsonWriterTest, TopLevelScalar) {
  JsonWriter W;
  W.value(42);
  EXPECT_EQ(W.str(), "42");
}
