#include "stats/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace monohids::stats {
namespace {

TEST(LogNormal, MedianAndMeanFormulas) {
  const LogNormalSampler s(1.0, 0.5);
  EXPECT_DOUBLE_EQ(s.median(), std::exp(1.0));
  EXPECT_DOUBLE_EQ(s.mean(), std::exp(1.0 + 0.125));
}

TEST(LogNormal, EmpiricalMomentsMatch) {
  util::Xoshiro256 rng(41);
  const LogNormalSampler s(0.5, 0.4);
  double acc = 0.0;
  std::vector<double> values;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = s.sample(rng);
    EXPECT_GT(v, 0.0);
    acc += v;
    values.push_back(v);
  }
  EXPECT_NEAR(acc / n, s.mean(), s.mean() * 0.02);
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  EXPECT_NEAR(values[n / 2], s.median(), s.median() * 0.02);
}

TEST(Poisson, ZeroMeanIsAlwaysZero) {
  util::Xoshiro256 rng(48);
  EXPECT_EQ(sample_poisson(rng, 0.0), 0u);
}

class PoissonMoments : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMoments, MeanAndVarianceMatch) {
  const double mean = GetParam();
  util::Xoshiro256 rng(49);
  double acc = 0.0, acc2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double k = static_cast<double>(sample_poisson(rng, mean));
    acc += k;
    acc2 += k * k;
  }
  const double m = acc / n;
  const double var = acc2 / n - m * m;
  EXPECT_NEAR(m, mean, std::max(0.05, mean * 0.03));
  EXPECT_NEAR(var, mean, std::max(0.1, mean * 0.06));
}

// Spans the inversion (< 30) and normal-approximation (>= 30) regimes.
INSTANTIATE_TEST_SUITE_P(Means, PoissonMoments,
                         ::testing::Values(0.1, 1.0, 5.0, 20.0, 50.0, 200.0));

TEST(Exponential, MeanIsInverseRate) {
  util::Xoshiro256 rng(50);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += sample_exponential(rng, 4.0);
  EXPECT_NEAR(acc / n, 0.25, 0.01);
}

TEST(Exponential, InvalidRateIsAnError) {
  util::Xoshiro256 rng(51);
  EXPECT_THROW((void)sample_exponential(rng, 0.0), PreconditionError);
}

TEST(UniformInt, StaysInRangeAndCoversIt) {
  util::Xoshiro256 rng(52);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = sample_uniform_int(rng, 10, 15);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 15u);
    ++seen[v - 10];
  }
  for (int c : seen) EXPECT_GT(c, 0);
}

TEST(UniformInt, DegenerateRange) {
  util::Xoshiro256 rng(53);
  EXPECT_EQ(sample_uniform_int(rng, 7, 7), 7u);
}

TEST(UniformInt, InvertedRangeIsAnError) {
  util::Xoshiro256 rng(54);
  EXPECT_THROW((void)sample_uniform_int(rng, 5, 4), PreconditionError);
}

TEST(StandardNormal, MomentsMatch) {
  util::Xoshiro256 rng(55);
  double acc = 0.0, acc2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = sample_standard_normal(rng);
    acc += z;
    acc2 += z * z;
  }
  EXPECT_NEAR(acc / n, 0.0, 0.01);
  EXPECT_NEAR(acc2 / n, 1.0, 0.02);
}

}  // namespace
}  // namespace monohids::stats
