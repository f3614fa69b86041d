#include "hids/attacker.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

using stats::EmpiricalDistribution;

EmpiricalDistribution uniform(double lo, double hi, int n = 5000, std::uint64_t seed = 81) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(lo + rng.uniform01() * (hi - lo));
  return EmpiricalDistribution(std::move(v));
}

TEST(NaiveAttacker, DetectionProbabilityIsExceedanceOfShiftedTraffic) {
  const EmpiricalDistribution g(std::vector<double>{0, 10, 20, 30});
  // threshold 25, attack 10: detected when g + 10 > 25 <=> g > 15 -> {20,30}
  EXPECT_DOUBLE_EQ(naive_detection_probability(g, 25.0, 10.0), 0.5);
}

TEST(NaiveAttacker, HugeAttackAlwaysDetected) {
  const auto g = uniform(0, 100);
  EXPECT_DOUBLE_EQ(naive_detection_probability(g, 150.0, 1000.0), 1.0);
}

TEST(NaiveAttacker, ZeroAttackDetectionEqualsFalsePositiveRate) {
  const auto g = uniform(0, 100);
  const double t = g.quantile(0.99);
  EXPECT_DOUBLE_EQ(naive_detection_probability(g, t, 0.0), g.exceedance(t));
}

TEST(NaiveAttacker, CurveIsMonotoneInAttackSize) {
  std::vector<EmpiricalDistribution> users{uniform(0, 50, 2000, 1),
                                           uniform(0, 500, 2000, 2),
                                           uniform(0, 5000, 2000, 3)};
  std::vector<double> thresholds;
  for (const auto& u : users) thresholds.push_back(u.quantile(0.99));
  const std::vector<double> sizes{1, 10, 100, 1000, 10000};
  const auto curve = naive_detection_curve(users, thresholds, sizes);
  ASSERT_EQ(curve.size(), sizes.size());
  for (std::size_t i = 1; i < curve.size(); ++i) EXPECT_GE(curve[i], curve[i - 1]);
  EXPECT_NEAR(curve.back(), 1.0, 1e-9);
}

TEST(NaiveAttacker, LightUsersCatchStealthyAttacks) {
  // The paper's point: a small attack stands out on a light user's HIDS but
  // hides under a heavy/pooled threshold.
  const auto light = uniform(0, 10);
  const auto heavy = uniform(0, 10000);
  const double t_light = light.quantile(0.99);
  const double t_heavy = heavy.quantile(0.99);
  const double stealthy = 50.0;
  EXPECT_GT(naive_detection_probability(light, t_light, stealthy), 0.99);
  EXPECT_LT(naive_detection_probability(heavy, t_heavy, stealthy), 0.05);
}

TEST(NaiveAttacker, MismatchedInputsAreErrors) {
  std::vector<EmpiricalDistribution> users{uniform(0, 10)};
  std::vector<double> thresholds{1.0, 2.0};
  const std::vector<double> sizes{1.0};
  EXPECT_THROW((void)naive_detection_curve(users, thresholds, sizes), PreconditionError);
}

TEST(ResourcefulAttacker, HiddenVolumeRespectsEvasionTarget) {
  const auto g = uniform(0, 100);
  const double t = g.quantile(0.99);
  const ResourcefulAttacker attacker{0.9};
  const double b = attacker.hidden_volume(g, t);
  EXPECT_GT(b, 0.0);
  EXPECT_GE(ResourcefulAttacker::realized_evasion(g, t, b), 0.9);
}

TEST(ResourcefulAttacker, MoreCautiousAttackerHidesLess) {
  const auto g = uniform(0, 100);
  const double t = g.quantile(0.99);
  const double bold = ResourcefulAttacker{0.5}.hidden_volume(g, t);
  const double cautious = ResourcefulAttacker{0.99}.hidden_volume(g, t);
  EXPECT_GT(bold, cautious);
}

TEST(ResourcefulAttacker, InflatedThresholdGivesMoreRoom) {
  // The monoculture's gift to the attacker: a pooled threshold far above
  // the user's own traffic leaves a large hidable volume.
  const auto g = uniform(0, 100);
  const double personal = g.quantile(0.99);
  const double pooled = 5000.0;
  const ResourcefulAttacker attacker{0.9};
  EXPECT_GT(attacker.hidden_volume(g, pooled),
            10.0 * attacker.hidden_volume(g, personal));
}

TEST(ResourcefulAttacker, BatchMatchesIndividual) {
  std::vector<EmpiricalDistribution> users{uniform(0, 10, 1000, 5),
                                           uniform(0, 1000, 1000, 6)};
  std::vector<double> thresholds{users[0].quantile(0.99), users[1].quantile(0.99)};
  const ResourcefulAttacker attacker{0.9};
  const auto volumes = attacker.hidden_volumes(users, thresholds);
  ASSERT_EQ(volumes.size(), 2u);
  EXPECT_DOUBLE_EQ(volumes[0], attacker.hidden_volume(users[0], thresholds[0]));
  EXPECT_DOUBLE_EQ(volumes[1], attacker.hidden_volume(users[1], thresholds[1]));
}

TEST(ResourcefulAttacker, StaleProfileRisksDetection) {
  // Attacker profiles week 1; the user's behavior shifts down in week 2 so
  // the same hidden volume now pokes above typical traffic more often.
  const auto profile_week = uniform(50, 150, 5000, 7);
  const auto test_week = uniform(0, 100, 5000, 8);
  const double t = profile_week.quantile(0.99);
  const ResourcefulAttacker attacker{0.9};
  const double b = attacker.hidden_volume(profile_week, t);
  const double planned = ResourcefulAttacker::realized_evasion(profile_week, t, b);
  const double realized = ResourcefulAttacker::realized_evasion(test_week, t, b);
  EXPECT_GE(planned, 0.9);
  EXPECT_GT(realized, planned);  // lighter week: even safer for the attacker
}

TEST(ResourcefulAttacker, InvalidEvasionTargetIsAnError) {
  const auto g = uniform(0, 10);
  EXPECT_THROW((void)ResourcefulAttacker{0.0}.hidden_volume(g, 5.0), PreconditionError);
  EXPECT_THROW((void)ResourcefulAttacker{1.5}.hidden_volume(g, 5.0), PreconditionError);
}

}  // namespace
}  // namespace monohids::hids
