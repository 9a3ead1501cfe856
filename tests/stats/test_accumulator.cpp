#include "stats/accumulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.hpp"

namespace btsc::stats {
namespace {

TEST(AccumulatorTest, EmptyDefaults) {
  Accumulator a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.sem(), 0.0);
}

TEST(AccumulatorTest, SingleSample) {
  Accumulator a;
  a.add(42.0);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 42.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 42.0);
  EXPECT_DOUBLE_EQ(a.max(), 42.0);
}

TEST(AccumulatorTest, KnownMeanAndVariance) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.sum(), 40.0, 1e-9);
}

TEST(AccumulatorTest, SemShrinksWithN) {
  Accumulator small, big;
  btsc::sim::Rng r(1);
  for (int i = 0; i < 10; ++i) small.add(r.uniform01());
  for (int i = 0; i < 1000; ++i) big.add(r.uniform01());
  EXPECT_GT(small.sem(), big.sem());
}

TEST(AccumulatorTest, MergeMatchesSequential) {
  btsc::sim::Rng r(2);
  Accumulator whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = r.uniform01() * 10.0;
    whole.add(x);
    (i < 250 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(AccumulatorTest, MergeOfSingletonPartialsMatchesSequential) {
  // The sweep engine folds one single-sample accumulator per replication;
  // the folded statistics must agree with a plain sequential stream.
  btsc::sim::Rng r(7);
  Accumulator sequential, folded;
  for (int i = 0; i < 200; ++i) {
    const double x = r.uniform01() * 100.0 - 50.0;
    sequential.add(x);
    Accumulator single;
    single.add(x);
    folded.merge(single);
  }
  EXPECT_EQ(folded.count(), sequential.count());
  EXPECT_NEAR(folded.mean(), sequential.mean(), 1e-10);
  EXPECT_NEAR(folded.variance(), sequential.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(folded.min(), sequential.min());
  EXPECT_DOUBLE_EQ(folded.max(), sequential.max());
}

TEST(AccumulatorTest, MergeIsAssociativeAcrossShardings) {
  // Three shards merged ((a+b)+c) vs (a+(b+c)): statistics must agree to
  // numerical tolerance regardless of the reduction tree.
  btsc::sim::Rng r(11);
  Accumulator a, b, c;
  for (int i = 0; i < 300; ++i) {
    const double x = r.uniform01() * 10.0;
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
  }
  Accumulator left = a;
  left.merge(b);
  left.merge(c);
  Accumulator bc = b;
  bc.merge(c);
  Accumulator right = a;
  right.merge(bc);
  EXPECT_EQ(left.count(), right.count());
  EXPECT_NEAR(left.mean(), right.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), right.min());
  EXPECT_DOUBLE_EQ(left.max(), right.max());
}

TEST(AccumulatorTest, MergePreservesExtremaAcrossManyPartials) {
  Accumulator whole;
  for (int shard = 0; shard < 8; ++shard) {
    Accumulator part;
    part.add(static_cast<double>(shard));
    part.add(static_cast<double>(-shard));
    whole.merge(part);
  }
  EXPECT_EQ(whole.count(), 16u);
  EXPECT_DOUBLE_EQ(whole.min(), -7.0);
  EXPECT_DOUBLE_EQ(whole.max(), 7.0);
  EXPECT_DOUBLE_EQ(whole.mean(), 0.0);
}

TEST(AccumulatorTest, MergeWithEmptySides) {
  Accumulator a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // empty right
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);  // empty left
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(AccumulatorTest, Ci95HalfWidthScale) {
  Accumulator a;
  for (int i = 0; i < 100; ++i) a.add(i % 2 == 0 ? 0.0 : 1.0);
  // sd ~ 0.5025, sem ~ 0.05025, CI95 ~ 0.0985
  EXPECT_NEAR(a.ci95_half_width(), 1.96 * a.sem(), 1e-3);
}

TEST(HistogramTest, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_low(4), 8.0);
}

TEST(HistogramTest, CountsFallIntoRightBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(1.9);
  h.add(2.0);
  h.add(9.99);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, OutOfRangeSaturates) {
  Histogram h(0.0, 10.0, 5);
  h.add(-5.0);
  h.add(100.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
}

TEST(HistogramTest, QuantileMonotone) {
  Histogram h(0.0, 100.0, 100);
  btsc::sim::Rng r(3);
  for (int i = 0; i < 10000; ++i) h.add(r.uniform01() * 100.0);
  const double q25 = h.quantile(0.25);
  const double q50 = h.quantile(0.50);
  const double q75 = h.quantile(0.75);
  EXPECT_LE(q25, q50);
  EXPECT_LE(q50, q75);
  EXPECT_NEAR(q50, 50.0, 5.0);
}

TEST(HistogramTest, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(5.0, 5.0, 3), std::invalid_argument);
}

TEST(HistogramTest, ToStringContainsBars) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string s = h.to_string(10);
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find("[0, 1)"), std::string::npos);
}

TEST(RatioCounterTest, BasicRatio) {
  RatioCounter rc;
  for (int i = 0; i < 10; ++i) rc.add(i < 7);
  EXPECT_EQ(rc.trials(), 10u);
  EXPECT_EQ(rc.successes(), 7u);
  EXPECT_DOUBLE_EQ(rc.ratio(), 0.7);
}

TEST(RatioCounterTest, WilsonIntervalContainsRatio) {
  RatioCounter rc;
  for (int i = 0; i < 50; ++i) rc.add(i % 5 != 0);  // 80%
  const auto [lo, hi] = rc.wilson95();
  EXPECT_LT(lo, rc.ratio());
  EXPECT_GT(hi, rc.ratio());
  EXPECT_GE(lo, 0.0);
  EXPECT_LE(hi, 1.0);
}

TEST(RatioCounterTest, EmptyIntervalIsFullRange) {
  RatioCounter rc;
  const auto [lo, hi] = rc.wilson95();
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST(RatioCounterTest, WilsonBoundsAreExactAtZeroAndAll) {
  // k = 0 and k = n: the bound at the observed end is exactly 0 or 1,
  // not 0 or 1 up to rounding, for every trial count.
  for (int n : {1, 2, 7, 20, 1000, 100000}) {
    RatioCounter none, all;
    for (int i = 0; i < n; ++i) {
      none.add(false);
      all.add(true);
    }
    const auto [nlo, nhi] = none.wilson95();
    const auto [alo, ahi] = all.wilson95();
    EXPECT_EQ(nlo, 0.0) << "n " << n;
    EXPECT_GT(nhi, 0.0) << "n " << n;
    EXPECT_EQ(ahi, 1.0) << "n " << n;
    EXPECT_LT(alo, 1.0) << "n " << n;
    EXPECT_EQ(1.0 - ahi, 0.0) << "n " << n;
  }
}

TEST(RatioCounterTest, MergeAddsTrialsAndSuccesses) {
  RatioCounter a, b;
  for (int i = 0; i < 10; ++i) a.add(i < 4);   // 4/10
  for (int i = 0; i < 30; ++i) b.add(i < 24);  // 24/30
  a.merge(b);
  EXPECT_EQ(a.trials(), 40u);
  EXPECT_EQ(a.successes(), 28u);
  EXPECT_DOUBLE_EQ(a.ratio(), 0.7);
}

TEST(RatioCounterTest, MergeWithEmptyIsIdentity) {
  RatioCounter a, empty;
  a.add(true);
  a.add(false);
  a.merge(empty);
  EXPECT_EQ(a.trials(), 2u);
  EXPECT_EQ(a.successes(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.trials(), 2u);
  EXPECT_EQ(empty.successes(), 1u);
}

TEST(RatioCounterTest, ExtremesStayInBounds) {
  RatioCounter all, none;
  for (int i = 0; i < 20; ++i) {
    all.add(true);
    none.add(false);
  }
  const auto [alo, ahi] = all.wilson95();
  const auto [nlo, nhi] = none.wilson95();
  EXPECT_LE(ahi, 1.0);
  EXPECT_LT(alo, 1.0);  // uncertainty remains
  EXPECT_GE(nlo, 0.0);
  EXPECT_GT(nhi, 0.0);
}

}  // namespace
}  // namespace btsc::stats
