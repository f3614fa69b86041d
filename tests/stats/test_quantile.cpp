#include "stats/quantile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

TEST(NearestRank, KnownValues) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(quantile_nearest_rank_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_nearest_rank_sorted(v, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(quantile_nearest_rank_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_nearest_rank_sorted(v, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(quantile_nearest_rank_sorted(v, 1.0), 10.0);
}

TEST(NearestRank, ReturnsObservedValueOnly) {
  const std::vector<double> v{10, 20, 30};
  for (double q : {0.1, 0.4, 0.51, 0.9, 0.99}) {
    const double result = quantile_nearest_rank_sorted(v, q);
    EXPECT_TRUE(result == 10 || result == 20 || result == 30);
  }
}

TEST(NearestRank, SingleElement) {
  const std::vector<double> v{42};
  EXPECT_DOUBLE_EQ(quantile_nearest_rank_sorted(v, 0.5), 42.0);
}

TEST(Interpolated, MatchesKnownType7Values) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile_interpolated_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_interpolated_sorted(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_interpolated_sorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_interpolated_sorted(v, 1.0 / 3.0), 2.0);
}

TEST(Quantile, EmptySampleIsAnError) {
  const std::vector<double> empty;
  EXPECT_THROW((void)quantile_nearest_rank_sorted(empty, 0.5), PreconditionError);
  EXPECT_THROW((void)quantile_interpolated_sorted(empty, 0.5), PreconditionError);
}

TEST(Quantile, OutOfRangeProbabilityIsAnError) {
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)quantile_nearest_rank_sorted(v, -0.1), PreconditionError);
  EXPECT_THROW((void)quantile_nearest_rank_sorted(v, 1.1), PreconditionError);
}

TEST(Quantile, UnsortedConvenienceSorts) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile_nearest_rank(v, 0.5), 3.0);
}

// Property: the nearest-rank quantile q has at least ceil(q*n) samples <= it.
class QuantileProperty : public ::testing::TestWithParam<double> {};

TEST_P(QuantileProperty, RankGuarantee) {
  util::Xoshiro256 rng(17);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.uniform01() * 50.0);
  std::sort(v.begin(), v.end());
  const double q = GetParam();
  const double value = quantile_nearest_rank_sorted(v, q);
  const auto at_or_below = static_cast<std::size_t>(
      std::upper_bound(v.begin(), v.end(), value) - v.begin());
  EXPECT_GE(at_or_below, static_cast<std::size_t>(std::ceil(q * 1000)));
}

INSTANTIATE_TEST_SUITE_P(Probabilities, QuantileProperty,
                         ::testing::Values(0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                                           0.999));

// Property: interpolated quantile is monotone in q and bounded by extremes.
TEST(QuantileProperty, InterpolatedMonotone) {
  util::Xoshiro256 rng(23);
  std::vector<double> v;
  for (int i = 0; i < 300; ++i) v.push_back(rng.uniform01());
  std::sort(v.begin(), v.end());
  double prev = v.front();
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double cur = quantile_interpolated_sorted(v, q);
    EXPECT_GE(cur, prev);
    EXPECT_GE(cur, v.front());
    EXPECT_LE(cur, v.back());
    prev = cur;
  }
}

}  // namespace
}  // namespace monohids::stats
