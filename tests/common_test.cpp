// Unit tests for the common substrate: RNG, statistics, quantile
// estimators, samplers and histograms.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "common/zipf.h"

namespace esp {
namespace {

TEST(Time, RoundTripConversions) {
  EXPECT_EQ(FromSeconds(1.5), 1'500'000'000);
  EXPECT_EQ(FromMillis(20), 20'000'000);
  EXPECT_EQ(FromMicros(3), 3'000);
  EXPECT_DOUBLE_EQ(ToSeconds(FromSeconds(2.25)), 2.25);
  EXPECT_DOUBLE_EQ(ToMillis(FromMillis(0.5)), 0.5);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent1(7);
  Rng parent2(7);
  Rng child1 = parent1.Fork();
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.Next(), child2.Next());
  // Parent streams continue identically after forking.
  for (int i = 0; i < 32; ++i) EXPECT_EQ(parent1.Next(), parent2.Next());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntIsInRangeAndRoughlyUniform) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const std::int64_t v = rng.UniformInt(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(5);
  EXPECT_THROW(rng.UniformInt(3, 2), std::invalid_argument);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(stats.Mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.StdDev(), 2.0, 0.05);
}

TEST(Rng, LogNormalMeanCvHitsTargets) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 300000; ++i) stats.Add(rng.LogNormalMeanCv(0.01, 0.5));
  EXPECT_NEAR(stats.Mean(), 0.01, 0.0005);
  EXPECT_NEAR(stats.Cv(), 0.5, 0.02);
}

TEST(Rng, LogNormalZeroCvIsDeterministic) {
  Rng rng(17);
  EXPECT_DOUBLE_EQ(rng.LogNormalMeanCv(3.0, 0.0), 3.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ZipfRankOneIsMostFrequent) {
  Rng rng(31);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t k = rng.Zipf(10, 1.5);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 10u);
    ++counts[k];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
}

TEST(Rng, ZipfRejectsExponentAtOrBelowOne) {
  Rng rng(31);
  EXPECT_THROW(rng.Zipf(10, 1.0), std::invalid_argument);
}

TEST(ZipfSampler, MatchesAnalyticPmf) {
  // P(k) = (1/k) / H_5 for s = 1 over ranks 1..5.
  ZipfSampler sampler(5, 1.0);
  Rng rng(37);
  std::vector<int> counts(6, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  double harmonic = 0;
  for (int k = 1; k <= 5; ++k) harmonic += 1.0 / k;
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const double pmf = 1.0 / static_cast<double>(k) / harmonic;
    EXPECT_NEAR(counts[k] / static_cast<double>(n), pmf, 0.01);
  }
}

TEST(RunningStats, WelfordMatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats stats;
  for (double x : xs) stats.Add(x);
  const double mean = 31.0 / 5.0;
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 4.0;
  EXPECT_DOUBLE_EQ(stats.Mean(), mean);
  EXPECT_NEAR(stats.Variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 16.0);
  EXPECT_EQ(stats.count(), 5u);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(41);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(0, 1);
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-12);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-10);
  EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.Add(3.0);
  a.Merge(b);  // empty.Merge(nonempty)
  EXPECT_DOUBLE_EQ(a.Mean(), 3.0);
  RunningStats c;
  a.Merge(c);  // nonempty.Merge(empty)
  EXPECT_DOUBLE_EQ(a.Mean(), 3.0);
  EXPECT_EQ(a.count(), 1u);
}

TEST(RunningStats, CvIsZeroWhenUndefined) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.Cv(), 0.0);
  s.Add(0.0);
  s.Add(0.0);
  EXPECT_DOUBLE_EQ(s.Cv(), 0.0);
}

class P2QuantileParam : public ::testing::TestWithParam<double> {};

TEST_P(P2QuantileParam, TracksExactQuantileOnLogNormal) {
  const double q = GetParam();
  P2Quantile est(q);
  Rng rng(43);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.LogNormalMeanCv(10.0, 1.0);
    est.Add(x);
    xs.push_back(x);
  }
  std::sort(xs.begin(), xs.end());
  const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
  EXPECT_NEAR(est.Value(), exact, exact * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2QuantileParam,
                         ::testing::Values(0.5, 0.9, 0.95, 0.99));

TEST(P2Quantile, SmallSampleUsesExactOrderStatistic) {
  P2Quantile est(0.5);
  est.Add(1.0);
  est.Add(3.0);
  est.Add(2.0);
  EXPECT_DOUBLE_EQ(est.Value(), 2.0);
}

TEST(P2Quantile, EmptyIsZeroAndResetWorks) {
  P2Quantile est(0.95);
  EXPECT_DOUBLE_EQ(est.Value(), 0.0);
  for (int i = 0; i < 100; ++i) est.Add(i);
  est.Reset();
  EXPECT_EQ(est.count(), 0u);
  EXPECT_DOUBLE_EQ(est.Value(), 0.0);
}

TEST(P2Quantile, RejectsBadQuantile) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

TEST(LogHistogram, QuantilesOfKnownDistribution) {
  LogHistogram hist(1e-6, 1.02);
  Rng rng(61);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.Exponential(1.0);
    hist.Add(x);
    xs.push_back(x);
  }
  std::sort(xs.begin(), xs.end());
  for (double q : {0.5, 0.95, 0.99}) {
    const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
    EXPECT_NEAR(hist.Quantile(q), exact, exact * 0.06) << "q=" << q;
  }
  EXPECT_NEAR(hist.Mean(), 1.0, 0.02);
}

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram a(1.0, 1.1);
  LogHistogram b(1.0, 1.1);
  a.Add(5.0);
  b.Add(50.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GT(a.Quantile(0.99), 10.0);
}

TEST(LogHistogram, MergeRejectsMismatchedParameters) {
  LogHistogram a(1.0, 1.1);
  LogHistogram c(1.0, 1.2);
  EXPECT_THROW(a.Merge(c), std::invalid_argument);
}

TEST(LogHistogram, IgnoresNegativeAndNonFinite) {
  LogHistogram h;
  h.Add(-1.0);
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace esp
