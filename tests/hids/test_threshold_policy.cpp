#include "hids/threshold_policy.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

using stats::EmpiricalDistribution;

std::vector<EmpiricalDistribution> population_at(std::vector<double> levels) {
  std::vector<EmpiricalDistribution> users;
  for (double level : levels) users.emplace_back(std::vector<double>(100, level));
  return users;
}

TEST(AssignThresholds, FullDiversityGivesPersonalThresholds) {
  const auto users = population_at({10, 100, 1000});
  const PercentileHeuristic p99(0.99);
  const auto a = assign_thresholds(users, FullDiversityGrouper{}, p99);
  EXPECT_DOUBLE_EQ(a.threshold(0), 10.0);
  EXPECT_DOUBLE_EQ(a.threshold(1), 100.0);
  EXPECT_DOUBLE_EQ(a.threshold(2), 1000.0);
}

TEST(AssignThresholds, HomogeneousGivesOneSharedThreshold) {
  const auto users = population_at({10, 100, 1000});
  const PercentileHeuristic p99(0.99);
  const auto a = assign_thresholds(users, HomogeneousGrouper{}, p99);
  EXPECT_EQ(a.threshold_of_group.size(), 1u);
  for (std::uint32_t u = 0; u < 3; ++u) {
    EXPECT_DOUBLE_EQ(a.threshold(u), a.threshold_of_group[0]);
  }
  // The pooled 99th percentile of {10x100, 100x100, 1000x100} is 1000: the
  // heavy user drags everyone's threshold up — the monoculture effect.
  EXPECT_DOUBLE_EQ(a.threshold_of_group[0], 1000.0);
}

TEST(AssignThresholds, GroupMembersShareTheGroupThreshold) {
  std::vector<double> levels;
  for (int i = 1; i <= 40; ++i) levels.push_back(i * 10.0);
  const auto users = population_at(std::move(levels));
  const PercentileHeuristic p99(0.99);
  const auto a = assign_thresholds(users, KneePartialGrouper{}, p99);
  for (std::size_t u = 0; u < users.size(); ++u) {
    EXPECT_DOUBLE_EQ(a.threshold_of_user[u],
                     a.threshold_of_group[a.groups.group_of_user[u]]);
  }
}

TEST(AssignThresholds, PartialThresholdsLieBetweenExtremePolicies) {
  std::vector<double> levels;
  for (int i = 1; i <= 100; ++i) levels.push_back(static_cast<double>(i * i));
  const auto users = population_at(std::move(levels));
  const PercentileHeuristic p99(0.99);
  const auto full = assign_thresholds(users, FullDiversityGrouper{}, p99);
  const auto homog = assign_thresholds(users, HomogeneousGrouper{}, p99);
  const auto partial = assign_thresholds(users, KneePartialGrouper{}, p99);
  // For the lightest user: personal <= group <= global.
  EXPECT_LE(full.threshold(0), partial.threshold(0));
  EXPECT_LE(partial.threshold(0), homog.threshold(0));
}

TEST(AssignThresholds, ForwardsAttackModelToHeuristic) {
  const auto users = population_at({10, 20});
  const UtilityHeuristic h(0.5);
  AttackModel attack;
  attack.sizes = {5.0, 50.0};
  const auto a = assign_thresholds(users, FullDiversityGrouper{}, h, &attack);
  EXPECT_EQ(a.threshold_of_user.size(), 2u);
  // Without the model the FN-aware heuristic must throw.
  EXPECT_THROW((void)assign_thresholds(users, FullDiversityGrouper{}, h), PreconditionError);
}

/// Count-like users with distinct levels, so every grouper has something
/// to split.
std::vector<EmpiricalDistribution> count_population(std::size_t users) {
  util::Xoshiro256 rng(5);
  std::vector<EmpiricalDistribution> out;
  for (std::size_t u = 0; u < users; ++u) {
    std::vector<double> v(300);
    for (double& x : v) x = static_cast<double>(rng() % (5 + 4 * u));
    out.emplace_back(std::move(v));
  }
  return out;
}

/// The pooled distribution of `members`: what assign_thresholds hands the
/// heuristic for a group of several members.
EmpiricalDistribution pool_of(std::span<const EmpiricalDistribution> users,
                              std::span<const std::uint32_t> members) {
  std::vector<EmpiricalDistribution> parts;
  for (std::uint32_t u : members) parts.push_back(users[u]);
  return EmpiricalDistribution::merge(parts);
}

TEST(PooledCurves, EveryGroupHoldsItsCurvesHull) {
  const auto users = count_population(24);
  const AttackModel attack = log_attack_sweep(1.0, 100.0, 64);
  std::vector<std::unique_ptr<Grouper>> groupers;
  groupers.push_back(std::make_unique<HomogeneousGrouper>());
  groupers.push_back(std::make_unique<FullDiversityGrouper>());
  groupers.push_back(std::make_unique<KneePartialGrouper>());
  for (const auto& grouper : groupers) {
    const auto curves = pooled_curves(users, *grouper, attack);
    ASSERT_EQ(curves.hull_of_group.size(), curves.groups.group_count);
    const auto members = curves.groups.members();
    for (std::size_t g = 0; g < members.size(); ++g) {
      const OperatingCurve curve =
          members[g].size() == 1 ? operating_curve(users[members[g].front()], attack)
                                 : operating_curve(pool_of(users, members[g]), attack);
      const OperatingCurve& hull = curves.hull_of_group[g];
      ASSERT_GE(hull.thresholds.size(), 2u) << grouper->name() << " group " << g;
      EXPECT_EQ(hull.thresholds.capacity(), hull.thresholds.size());
      // The hull of the group's curve (not the whole curve), and an ordered
      // subsequence of it, point for point.
      EXPECT_EQ(hull.thresholds, utility_hull(curve).thresholds);
      std::size_t j = 0;
      for (std::size_t k = 0; k < hull.thresholds.size(); ++k, ++j) {
        while (j < curve.thresholds.size() && curve.thresholds[j] != hull.thresholds[k]) ++j;
        ASSERT_LT(j, curve.thresholds.size()) << grouper->name() << " group " << g;
        EXPECT_EQ(hull.fp[k], curve.fp[j]);
        EXPECT_EQ(hull.fn[k], curve.fn[j]);
      }
    }
  }
}

TEST(PooledCurves, SelectThresholdsMatchesAssignThresholdsForEveryThreadCount) {
  const auto users = count_population(24);
  const AttackModel attack = log_attack_sweep(1.0, 100.0, 64);
  std::vector<std::unique_ptr<Grouper>> groupers;
  groupers.push_back(std::make_unique<HomogeneousGrouper>());
  groupers.push_back(std::make_unique<FullDiversityGrouper>());
  groupers.push_back(std::make_unique<KneePartialGrouper>());
  for (unsigned threads : {1u, 3u}) {
    for (const auto& grouper : groupers) {
      const auto curves = pooled_curves(users, *grouper, attack, threads);
      for (double w : {0.0, 0.4, 1.0}) {
        const UtilityHeuristic utility(w);
        const auto selected = select_thresholds(users, curves, utility);
        const auto direct = assign_thresholds(users, *grouper, utility, &attack, 1);
        EXPECT_EQ(selected.threshold_of_group, direct.threshold_of_group)
            << grouper->name() << ' ' << utility.name() << " threads=" << threads;
        EXPECT_EQ(selected.threshold_of_user, direct.threshold_of_user);
        EXPECT_EQ(selected.groups.group_of_user, direct.groups.group_of_user);
      }
    }
  }
}

TEST(PooledCurves, CurvesFromAnotherPopulationAreAnError) {
  const auto users = count_population(6);
  const AttackModel attack = log_attack_sweep(1.0, 100.0, 8);
  const auto curves = pooled_curves(users, HomogeneousGrouper{}, attack);
  const auto fewer = count_population(5);
  EXPECT_THROW((void)select_thresholds(fewer, curves, UtilityHeuristic(0.4)),
               PreconditionError);
}

TEST(AssignThresholds, EmptyPopulationIsAnError) {
  const std::vector<EmpiricalDistribution> empty;
  const PercentileHeuristic p99(0.99);
  EXPECT_THROW((void)assign_thresholds(empty, HomogeneousGrouper{}, p99),
               PreconditionError);
}

TEST(BestUsers, ReturnsLowestThresholdsFirst) {
  const auto users = population_at({50, 10, 30, 20, 40});
  const PercentileHeuristic p99(0.99);
  const auto a = assign_thresholds(users, FullDiversityGrouper{}, p99);
  const auto best = best_users(a, 3);
  ASSERT_EQ(best.size(), 3u);
  EXPECT_EQ(best[0], 1u);  // level 10
  EXPECT_EQ(best[1], 3u);  // level 20
  EXPECT_EQ(best[2], 2u);  // level 30
}

TEST(BestUsers, CountClampedToPopulation) {
  const auto users = population_at({1, 2});
  const PercentileHeuristic p99(0.99);
  const auto a = assign_thresholds(users, FullDiversityGrouper{}, p99);
  EXPECT_EQ(best_users(a, 10).size(), 2u);
}

TEST(BestUsers, TiesBreakByUserId) {
  const auto users = population_at({5, 5, 5});
  const PercentileHeuristic p99(0.99);
  const auto a = assign_thresholds(users, FullDiversityGrouper{}, p99);
  const auto best = best_users(a, 3);
  EXPECT_EQ(best[0], 0u);
  EXPECT_EQ(best[1], 1u);
  EXPECT_EQ(best[2], 2u);
}

}  // namespace
}  // namespace monohids::hids
