#include "stats/ks.hpp"

#include <gtest/gtest.h>

#include "stats/sampling.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

/// The D statistic of two sample sets, through the distribution overload.
double ks(const std::vector<double>& a, const std::vector<double>& b) {
  return ks_statistic(EmpiricalDistribution(a), EmpiricalDistribution(b));
}

TEST(Ks, IdenticalSamplesHaveZeroDistance) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ks(v, v), 0.0);
}

TEST(Ks, DisjointSupportsApproachOne) {
  const std::vector<double> lo{1, 2, 3};
  const std::vector<double> hi{100, 200, 300};
  EXPECT_DOUBLE_EQ(ks(lo, hi), 1.0);
}

TEST(Ks, KnownHandComputedValue) {
  // F_a steps at 1,2,3,4 (quarters); F_b steps at 3,4,5,6.
  // At x=2: F_a=0.5, F_b=0 -> D = 0.5.
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(ks(a, b), 0.5);
}

TEST(Ks, SymmetricInArguments) {
  util::Xoshiro256 rng(1);
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) a.push_back(rng.uniform01());
  for (int i = 0; i < 300; ++i) b.push_back(rng.uniform01() * 2);
  EXPECT_DOUBLE_EQ(ks(a, b), ks(b, a));
}

TEST(Ks, SameDistributionSamplesAreClose) {
  util::Xoshiro256 rng(2);
  std::vector<double> a, b;
  for (int i = 0; i < 5000; ++i) a.push_back(rng.uniform01());
  for (int i = 0; i < 5000; ++i) b.push_back(rng.uniform01());
  EXPECT_LT(ks(a, b), 0.05);
}

TEST(Ks, ScaleShiftIsDetected) {
  // Same shape, 3x scale: D of uniform(0,1) vs uniform(0,3) is 2/3.
  util::Xoshiro256 rng(3);
  std::vector<double> a, b;
  for (int i = 0; i < 20000; ++i) a.push_back(rng.uniform01());
  for (int i = 0; i < 20000; ++i) b.push_back(rng.uniform01() * 3);
  EXPECT_NEAR(ks(a, b), 2.0 / 3.0, 0.02);
}

TEST(Ks, BoundedInUnitInterval) {
  util::Xoshiro256 rng(4);
  const LogNormalSampler s1(0.0, 1.0), s2(2.0, 0.5);
  std::vector<double> a, b;
  for (int i = 0; i < 1000; ++i) {
    a.push_back(s1.sample(rng));
    b.push_back(s2.sample(rng));
  }
  const double d = ks(a, b);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

TEST(Ks, TiesHandled) {
  const std::vector<double> a{1, 1, 1, 2};
  const std::vector<double> b{1, 2, 2, 2};
  // At x=1: F_a=0.75, F_b=0.25 -> D=0.5.
  EXPECT_DOUBLE_EQ(ks(a, b), 0.5);
}

TEST(Ks, EmptySampleIsAnError) {
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)ks(v, {}), PreconditionError);
  EXPECT_THROW((void)ks({}, v), PreconditionError);
}

}  // namespace
}  // namespace monohids::stats
