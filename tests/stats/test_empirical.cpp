#include "stats/empirical.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

EmpiricalDistribution dist(std::vector<double> v) {
  return EmpiricalDistribution(std::move(v));
}

std::vector<double> values_of(const EmpiricalDistribution& d) {
  return {d.values().begin(), d.values().end()};
}

std::vector<std::uint32_t> counts_of(const EmpiricalDistribution& d) {
  return {d.cumulative_counts().begin(), d.cumulative_counts().end()};
}

TEST(Empirical, BasicStatistics) {
  const auto d = dist({4, 1, 3, 2});
  EXPECT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 4.0);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_DOUBLE_EQ(d.variance(), 1.25);
  EXPECT_DOUBLE_EQ(d.stddev(), std::sqrt(1.25));
}

TEST(Empirical, SamplesAreSorted) {
  const auto d = dist({3, 1, 2, 3});
  EXPECT_EQ(values_of(d), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(counts_of(d), (std::vector<std::uint32_t>{1, 2, 4}));
}

TEST(Empirical, NonFiniteSamplesAreAnError) {
  EXPECT_THROW(dist({1.0, std::numeric_limits<double>::infinity()}), PreconditionError);
  EXPECT_THROW(dist({std::nan("")}), PreconditionError);
}

TEST(Empirical, EmptyQueriesAreErrors) {
  const EmpiricalDistribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_THROW((void)d.min(), PreconditionError);
  EXPECT_THROW((void)d.mean(), PreconditionError);
  EXPECT_THROW((void)d.cdf(0.0), PreconditionError);
}

TEST(Empirical, CdfCountsInclusively) {
  const auto d = dist({1, 2, 2, 3});
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(d.cdf(3.0), 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(99.0), 1.0);
}

TEST(Empirical, ExceedanceIsComplementOfCdf) {
  const auto d = dist({1, 2, 3, 4});
  for (double x : {0.0, 1.5, 2.0, 4.0, 5.0}) {
    EXPECT_DOUBLE_EQ(d.exceedance(x), 1.0 - d.cdf(x));
  }
}

TEST(Empirical, ExceedanceIsTheDetectorFalsePositiveRate) {
  // A threshold at the 99th percentile leaves at most 1% strictly above.
  util::Xoshiro256 rng(5);
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.uniform01() * 1000.0);
  const auto d = dist(std::move(v));
  EXPECT_LE(d.exceedance(d.quantile(0.99)), 0.01 + 1e-9);
}

TEST(Empirical, ShiftedCdfMatchesManualShift) {
  const auto d = dist({10, 20, 30});
  // P(X + 5 <= 20) = P(X <= 15) = 1/3
  EXPECT_DOUBLE_EQ(d.shifted_cdf(5.0, 20.0), 1.0 / 3.0);
  // P(X + 25 <= 20) = P(X <= -5) = 0
  EXPECT_DOUBLE_EQ(d.shifted_cdf(25.0, 20.0), 0.0);
}

TEST(Empirical, MaxHiddenShiftSatisfiesEvasionTarget) {
  util::Xoshiro256 rng(9);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.uniform01() * 100.0);
  const auto d = dist(std::move(v));
  const double t = d.quantile(0.99);
  const double b = d.max_hidden_shift(t, 0.9);
  EXPECT_GT(b, 0.0);
  // The attack must evade with at least the target probability...
  EXPECT_GE(d.shifted_cdf(b, t), 0.9);
  // ...and adding a bit more volume must break the guarantee (maximality).
  EXPECT_LT(d.shifted_cdf(b + 1.0, t), 0.9);
}

TEST(Empirical, MaxHiddenShiftZeroWhenThresholdTooTight) {
  const auto d = dist({10, 20, 30});
  // Threshold below the 90th-percentile value: no room at all.
  EXPECT_DOUBLE_EQ(d.max_hidden_shift(5.0, 0.9), 0.0);
}

TEST(Empirical, MergePoolsAllSamples) {
  const std::vector<EmpiricalDistribution> parts{dist({1, 2}), dist({3}), dist({4, 5, 6})};
  const auto merged = EmpiricalDistribution::merge(parts);
  EXPECT_EQ(merged.size(), 6u);
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 6.0);
  EXPECT_DOUBLE_EQ(merged.mean(), 3.5);
}

TEST(Empirical, MergedQuantileDominatedByHeavyPart) {
  // The homogeneous-policy effect: one heavy user drags the pooled
  // threshold far above the light users' personal ones.
  std::vector<double> light(990, 1.0);
  std::vector<double> heavy(10, 1000.0);
  const std::vector<EmpiricalDistribution> parts{dist(std::move(light)),
                                                 dist(std::move(heavy))};
  const auto merged = EmpiricalDistribution::merge(parts);
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), 1.0);
  EXPECT_DOUBLE_EQ(merged.quantile(0.995), 1000.0);
}

TEST(Empirical, MergeOfNothingIsEmpty) {
  const std::vector<EmpiricalDistribution> none;
  EXPECT_TRUE(EmpiricalDistribution::merge(none).empty());
}

TEST(Empirical, MergeSkipsEmptyParts) {
  const std::vector<EmpiricalDistribution> parts{EmpiricalDistribution{}, dist({2, 1}),
                                                 EmpiricalDistribution{}};
  const auto merged = EmpiricalDistribution::merge(parts);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 2.0);

  const auto a = dist({1, 3});
  const std::vector<EmpiricalDistribution> twice{a, EmpiricalDistribution{}, a};
  const auto doubled = EmpiricalDistribution::merge(twice);
  EXPECT_EQ(values_of(doubled), (std::vector<double>{1, 3}));
  EXPECT_EQ(counts_of(doubled), (std::vector<std::uint32_t>{2, 4}));
}

TEST(Empirical, MergeKeepsSamplesSortedWithDuplicates) {
  const std::vector<EmpiricalDistribution> parts{dist({5, 1, 5}), dist({3, 5, 1})};
  const auto merged = EmpiricalDistribution::merge(parts);
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_EQ(values_of(merged), (std::vector<double>{1, 3, 5}));
  EXPECT_EQ(counts_of(merged), (std::vector<std::uint32_t>{2, 3, 6}));
  // Pooled queries agree with a flat rebuild from the concatenated samples.
  const auto flat = dist({5, 1, 5, 3, 5, 1});
  for (double q : {0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), flat.quantile(q));
  }
  EXPECT_DOUBLE_EQ(merged.cdf(3.0), flat.cdf(3.0));
}

TEST(Empirical, MergeIsOrderInsensitive) {
  const std::vector<EmpiricalDistribution> ab{dist({1, 4}), dist({2, 3})};
  const std::vector<EmpiricalDistribution> ba{dist({2, 3}), dist({1, 4})};
  const auto m1 = EmpiricalDistribution::merge(ab);
  const auto m2 = EmpiricalDistribution::merge(ba);
  EXPECT_EQ(values_of(m1), values_of(m2));
  EXPECT_EQ(counts_of(m1), counts_of(m2));
}

TEST(Empirical, QuantileMatchesNearestRankDefinition) {
  const auto d = dist({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.99), 5.0);
}

TEST(Empirical, CopySharesSortedArena) {
  const auto original = dist({3, 1, 2});
  const auto copy = original;  // zero-copy: a pointer, not the runs
  EXPECT_EQ(copy.values().data(), original.values().data());
  EXPECT_EQ(copy.cumulative_counts().data(), original.cumulative_counts().data());
}

TEST(Empirical, FromSortedMatchesSortingConstructor) {
  const auto sorted = dist({1, 2, 2, 7});
  const auto resorted = dist({7, 2, 1, 2});
  EXPECT_EQ(values_of(sorted), values_of(resorted));
  EXPECT_EQ(counts_of(sorted), counts_of(resorted));
  EXPECT_DOUBLE_EQ(sorted.quantile(0.5), resorted.quantile(0.5));
}

TEST(Empirical, MergeMatchesFlatBuildOnRandomizedInputs) {
  util::Xoshiro256 rng(12345);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t part_count = 1 + static_cast<std::size_t>(rng.uniform01() * 7.0);
    std::vector<EmpiricalDistribution> parts;
    std::vector<double> concat;
    for (std::size_t p = 0; p < part_count; ++p) {
      const auto n = static_cast<std::size_t>(rng.uniform01() * 40.0);
      std::vector<double> samples;
      samples.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Coarse grid forces cross-part duplicates, which the merge must
        // coalesce into one run.
        samples.push_back(std::floor(rng.uniform01() * 20.0));
      }
      concat.insert(concat.end(), samples.begin(), samples.end());
      parts.emplace_back(std::move(samples));
    }
    const auto merged = EmpiricalDistribution::merge(parts);
    const auto flat = dist(std::move(concat));
    ASSERT_EQ(values_of(merged), values_of(flat)) << "trial " << trial;
    ASSERT_EQ(counts_of(merged), counts_of(flat)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace monohids::stats
