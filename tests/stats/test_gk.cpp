#include "stats/gk_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

TEST(Gk, InvalidEpsilonIsAnError) {
  EXPECT_THROW(GkSketch(0.0), PreconditionError);
  EXPECT_THROW(GkSketch(0.5), PreconditionError);
}

TEST(Gk, EmptyQuantileIsAnError) {
  const GkSketch sketch(0.01);
  EXPECT_THROW((void)sketch.quantile(0.5), PreconditionError);
}

/// Rank error of the sketch answer vs the sorted reference.
double rank_error(const std::vector<double>& sorted, double answer, double q) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), answer) - sorted.begin();
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), answer) - sorted.begin();
  const double target = std::ceil(q * static_cast<double>(sorted.size()));
  if (target < static_cast<double>(lo)) return static_cast<double>(lo) - target;
  if (target > static_cast<double>(hi)) return target - static_cast<double>(hi);
  return 0.0;
}

struct GkCase {
  double epsilon;
  std::uint64_t n;
};

class GkGuarantee : public ::testing::TestWithParam<GkCase> {};

TEST_P(GkGuarantee, RankErrorWithinEpsilonN) {
  const auto [eps, n] = GetParam();
  util::Xoshiro256 rng(31);
  GkSketch sketch(eps);
  std::vector<double> all;
  all.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double x = rng.uniform01() * 1e6;
    sketch.add(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double answer = sketch.quantile(q);
    EXPECT_LE(rank_error(all, answer, q), 2.0 * eps * static_cast<double>(n) + 1.0)
        << "q=" << q << " eps=" << eps << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, GkGuarantee,
                         ::testing::Values(GkCase{0.01, 10000}, GkCase{0.005, 20000},
                                           GkCase{0.05, 5000}, GkCase{0.02, 50000}));

TEST(Gk, CompressesWellBelowStreamSize) {
  util::Xoshiro256 rng(33);
  GkSketch sketch(0.01);
  const std::uint64_t n = 100000;
  for (std::uint64_t i = 0; i < n; ++i) sketch.add(rng.uniform01());
  EXPECT_EQ(sketch.count(), n);
  // Theory: O((1/eps) log(eps n)); generous practical bound.
  EXPECT_LT(sketch.tuple_count(), 2000u);
}

TEST(Gk, HandlesSortedAndReversedStreams) {
  for (bool reversed : {false, true}) {
    GkSketch sketch(0.02);
    for (int i = 0; i < 10000; ++i) {
      sketch.add(reversed ? 10000.0 - i : static_cast<double>(i));
    }
    const double median = sketch.quantile(0.5);
    EXPECT_NEAR(median, 5000.0, 2.0 * 0.02 * 10000.0 + 1);
  }
}

TEST(Gk, ExtremeQuantilesPinToRange) {
  GkSketch sketch(0.01);
  for (int i = 1; i <= 1000; ++i) sketch.add(static_cast<double>(i));
  EXPECT_GE(sketch.quantile(0.0), 1.0);
  EXPECT_LE(sketch.quantile(1.0), 1000.0);
}

TEST(Gk, HeavyTailedStream) {
  util::Xoshiro256 rng(35);
  GkSketch sketch(0.01);
  std::vector<double> all;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    // Pareto(xm = 1, alpha = 1.2) by inverse CDF.
    double u = rng.uniform01();
    if (u <= 0.0) u = 0x1.0p-53;
    const double x = 1.0 / std::pow(u, 1.0 / 1.2);
    sketch.add(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  const double answer = sketch.quantile(0.99);
  EXPECT_LE(rank_error(all, answer, 0.99), 2.0 * 0.01 * n + 1.0);
}

}  // namespace
}  // namespace monohids::stats
