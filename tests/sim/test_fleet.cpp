// Fleet-mode contract tests.
//
// The three load-bearing claims:
//   1. Determinism — rows, pooled sketches, thresholds, utilities and
//      console alarm counts are bit-identical for every shard size and
//      thread count (the fold order, not the shard layout, defines them).
//   2. Accuracy — utilities from the compact eps-approximate state stay
//      within the documented utility_error_bound() of the exact pipeline
//      at the paper's 350 users, and per-user FP/CDF queries stay within
//      rank_error_bound().
//   3. Fidelity — the paper's policy ranking (full > partial > homogeneous
//      mean utility) survives the approximation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "hids/evaluator.hpp"
#include "hids/grouping.hpp"
#include "hids/heuristics.hpp"
#include "sim/fleet.hpp"
#include "sim/analysis_cache.hpp"
#include "sim/scenario.hpp"

namespace monohids::sim {
namespace {

using features::FeatureKind;

FleetConfig small_fleet(std::uint32_t users, std::uint32_t shard_size,
                        unsigned threads = 0) {
  FleetConfig config;
  config.set_users(users);
  config.set_seed(42);
  config.set_weeks(2);
  config.shard_size = shard_size;
  config.threads = threads;
  return config;
}

TEST(Fleet, RowsAreAscendingAndSized) {
  const FleetScenario fleet = build_fleet_scenario(small_fleet(40, 16));
  EXPECT_EQ(fleet.user_count(), 40u);
  EXPECT_EQ(fleet.week_count(), 2u);
  EXPECT_EQ(fleet.bins_per_week(), 672u);  // 15-minute bins
  for (FeatureKind f : features::kAllFeatures) {
    for (std::uint32_t w = 0; w < fleet.week_count(); ++w) {
      ASSERT_EQ(fleet.rows(f, w).size(),
                std::size_t{40} * fleet.grid_points());
      for (std::uint32_t u = 0; u < fleet.user_count(); ++u) {
        const auto row = fleet.row(f, w, u);
        EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
      }
      EXPECT_EQ(fleet.pooled(f, w).count(), std::uint64_t{40} * 672);
    }
  }
  EXPECT_GT(fleet.store_bytes(), 0u);
  EXPECT_GT(fleet.pooled_sketch_bytes(), 0u);
}

TEST(Fleet, ShardAndThreadCountDoNotChangeAnything) {
  // The regression demanded by the issue: shards ∈ {1, 4, 16} (as shard
  // sizes covering 1..N shards) × serial vs parallel workers. Rows and
  // pooled sketches must be bit-identical; thresholds, utilities and
  // console alarm counts follow from them deterministically.
  constexpr std::uint32_t kUsers = 64;
  const FleetScenario reference = build_fleet_scenario(small_fleet(kUsers, kUsers, 1));

  const std::uint32_t shard_sizes[] = {kUsers, kUsers / 4, kUsers / 16};
  const unsigned thread_counts[] = {1, 3};
  for (const std::uint32_t shard_size : shard_sizes) {
    for (const unsigned threads : thread_counts) {
      const FleetScenario fleet =
          build_fleet_scenario(small_fleet(kUsers, shard_size, threads));
      for (FeatureKind f : features::kAllFeatures) {
        for (std::uint32_t w = 0; w < fleet.week_count(); ++w) {
          const auto expect = reference.rows(f, w);
          const auto got = fleet.rows(f, w);
          ASSERT_EQ(got.size(), expect.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], expect[i])
                << "feature " << features::index_of(f) << " week " << w
                << " slot " << i << " shard_size=" << shard_size
                << " threads=" << threads;
          }
          ASSERT_EQ(fleet.pooled(f, w).count(), reference.pooled(f, w).count());
          for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
            ASSERT_EQ(fleet.pooled(f, w).quantile(q),
                      reference.pooled(f, w).quantile(q))
                << "pooled quantile diverged at q=" << q
                << " shard_size=" << shard_size << " threads=" << threads;
          }
        }
      }

      // End-to-end: thresholds → utilities → console alarms, all equal.
      const auto attack =
          fleet.analysis().attack_model(FeatureKind::TcpConnections, 0, 16);
      const auto ref_attack =
          reference.analysis().attack_model(FeatureKind::TcpConnections, 0, 16);
      const hids::KneePartialGrouper grouper;
      const hids::UtilityHeuristic heuristic(0.5);
      const auto outcome = evaluate_fleet_policy(
          fleet, FeatureKind::TcpConnections, {0, 1}, grouper, heuristic, *attack);
      const auto expected = evaluate_fleet_policy(reference,
                                                  FeatureKind::TcpConnections,
                                                  {0, 1}, grouper, heuristic,
                                                  *ref_attack);
      ASSERT_EQ(outcome.users.size(), expected.users.size());
      for (std::size_t u = 0; u < outcome.users.size(); ++u) {
        ASSERT_EQ(outcome.users[u].threshold, expected.users[u].threshold);
        ASSERT_EQ(outcome.users[u].fp_rate, expected.users[u].fp_rate);
        ASSERT_EQ(outcome.users[u].fn_rate, expected.users[u].fn_rate);
        ASSERT_EQ(outcome.users[u].weekly_false_alarms,
                  expected.users[u].weekly_false_alarms);
      }
    }
  }
}

TEST(Fleet, CompactRowsStayWithinTheRankErrorBound) {
  // Per-user FP check: the compact view's exceedance at the exact pipeline's
  // threshold must stay within rank_error_bound() of the exact exceedance.
  // The exact side runs on the fleet's own base config so both pipelines
  // see the same matrices and the bound is the sketch+grid approximation
  // alone.
  FleetConfig config = small_fleet(80, 32);
  const Scenario exact = build_scenario(config.base);
  const FleetScenario fleet = build_fleet_scenario(config);
  const double bound = config.rank_error_bound();

  const auto feature = FeatureKind::TcpConnections;
  const auto exact_week = exact.analysis().week(feature, 1);
  const auto fleet_week = fleet.analysis().week(feature, 1);
  ASSERT_EQ(exact_week->size(), fleet_week->size());
  for (std::size_t u = 0; u < exact_week->size(); ++u) {
    const double t = (*exact_week)[u].quantile(0.99);
    const double exact_fp = (*exact_week)[u].exceedance(t);
    const double fleet_fp = (*fleet_week)[u].exceedance(t);
    EXPECT_LE(std::abs(fleet_fp - exact_fp), bound)
        << "user " << u << ": exact fp " << exact_fp << " vs fleet " << fleet_fp;
  }
}

TEST(Fleet, UtilitiesMatchTheExactPipelineWithinTheStatedBound) {
  // The acceptance criterion at the paper's scale: run the identical
  // (grouper, heuristic, attack) policy through the exact pipeline and the
  // fleet pipeline; mean utility must agree within utility_error_bound().
  constexpr std::uint32_t kUsers = 350;
  FleetConfig config = small_fleet(kUsers, 128);
  const Scenario exact = build_scenario(config.base);
  const FleetScenario fleet = build_fleet_scenario(config);

  const auto feature = FeatureKind::TcpConnections;
  const auto attack = fleet.analysis().attack_model(feature, 0, 32);
  const hids::PercentileHeuristic heuristic(0.99);
  const double w = 0.5;

  const hids::HomogeneousGrouper homogeneous;
  const hids::FullDiversityGrouper full;
  for (const hids::Grouper* grouper :
       {static_cast<const hids::Grouper*>(&homogeneous),
        static_cast<const hids::Grouper*>(&full)}) {
    const auto train = exact.analysis().week(feature, 0);
    const auto test = exact.analysis().week(feature, 1);
    const auto exact_outcome =
        hids::evaluate_policy(*train, *test, *grouper, heuristic, *attack);
    const auto fleet_outcome =
        evaluate_fleet_policy(fleet, feature, {0, 1}, *grouper, heuristic, *attack);
    EXPECT_LE(std::abs(fleet_outcome.mean_utility(w) - exact_outcome.mean_utility(w)),
              config.utility_error_bound())
        << grouper->name() << ": exact " << exact_outcome.mean_utility(w)
        << " vs fleet " << fleet_outcome.mean_utility(w);
  }
}

TEST(Fleet, PolicyRankingSurvivesTheApproximation) {
  // Figure 3's ordering: full diversity > partial diversity > homogeneous
  // mean utility, evaluated entirely on the compact state.
  FleetConfig config = small_fleet(350, 128);
  const FleetScenario fleet = build_fleet_scenario(config);

  const auto feature = FeatureKind::TcpConnections;
  const auto attack = fleet.analysis().attack_model(feature, 0, 32);
  const hids::UtilityHeuristic heuristic(0.5);
  const double w = 0.5;

  const hids::FullDiversityGrouper full;
  const hids::KneePartialGrouper partial;
  const hids::HomogeneousGrouper homogeneous;
  const double u_full =
      evaluate_fleet_policy(fleet, feature, {0, 1}, full, heuristic, *attack)
          .mean_utility(w);
  const double u_partial =
      evaluate_fleet_policy(fleet, feature, {0, 1}, partial, heuristic, *attack)
          .mean_utility(w);
  const double u_homogeneous =
      evaluate_fleet_policy(fleet, feature, {0, 1}, homogeneous, heuristic, *attack)
          .mean_utility(w);
  EXPECT_GT(u_full, u_partial);
  EXPECT_GT(u_partial, u_homogeneous);
}

TEST(Fleet, ConsoleAlarmsAreScaledToRealWeeks) {
  const FleetScenario fleet = build_fleet_scenario(small_fleet(40, 40));
  const auto feature = FeatureKind::TcpConnections;
  const auto attack = fleet.analysis().attack_model(feature, 0, 8);
  const hids::PercentileHeuristic heuristic(0.95);
  const auto outcome = evaluate_fleet_policy(fleet, feature, {0, 1},
                                             hids::FullDiversityGrouper(), heuristic,
                                             *attack);
  for (const auto& user : outcome.users) {
    EXPECT_EQ(user.weekly_false_alarms,
              static_cast<std::uint64_t>(std::llround(
                  user.fp_rate * static_cast<double>(fleet.bins_per_week()))));
  }
}

TEST(Fleet, RejectsDegenerateConfigs) {
  FleetConfig config = small_fleet(10, 0);
  EXPECT_THROW((void)build_fleet_scenario(config), PreconditionError);
  config = small_fleet(10, 4);
  config.grid_points = 1;
  EXPECT_THROW((void)build_fleet_scenario(config), PreconditionError);
  config = small_fleet(10, 4);
  config.sketch_epsilon = 0.7;
  EXPECT_THROW((void)build_fleet_scenario(config), PreconditionError);
}

}  // namespace
}  // namespace monohids::sim
