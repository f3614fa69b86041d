// Fleet-mode contract tests.
//
// The four load-bearing claims:
//   1. Exactness of the rows — each row is the float-cast nearest-rank
//      grid of the exact week distribution build_scenario produces.
//   2. Determinism — rows, thresholds, utilities and console alarm counts
//      are bit-identical for every thread count.
//   3. Accuracy — per-user FP/CDF queries stay strictly within
//      rank_error_bound() = 1/(m − 1), and utilities within the documented
//      utility_error_bound() of the exact pipeline at the paper's 350 users.
//   4. Fidelity — the paper's policy ranking (full > partial > homogeneous
//      mean utility) survives the compact rows.
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

FleetConfig small_fleet(std::uint32_t users, unsigned threads = 0) {
  FleetConfig config;
  config.set_users(users);
  config.set_seed(42);
  config.set_weeks(2);
  config.threads = threads;
  return config;
}

TEST(Fleet, RowsAreAscendingAndSized) {
  const FleetScenario fleet = build_fleet_scenario(small_fleet(40));
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
    }
  }
  EXPECT_EQ(fleet.store_bytes(), std::size_t{40} * 24 * sizeof(float) *
                                     features::kFeatureCount * fleet.week_count());
}

TEST(Fleet, RowsAreExactQuantilesOfTheWeek) {
  // Every row equals, bit for bit, the float-cast nearest-rank grid of the
  // exact pipeline's week slice under the same config.
  const FleetConfig config = small_fleet(48);
  const Scenario exact = build_scenario(config.base);
  const FleetScenario fleet = build_fleet_scenario(config);
  const std::uint32_t m = fleet.grid_points();
  for (FeatureKind f : features::kAllFeatures) {
    for (std::uint32_t w = 0; w < fleet.week_count(); ++w) {
      for (std::uint32_t u = 0; u < fleet.user_count(); ++u) {
        const stats::EmpiricalDistribution week(exact.matrices[u].of(f).week_slice(w));
        const auto row = fleet.row(f, w, u);
        ASSERT_EQ(row.size(), m);
        for (std::uint32_t k = 0; k < m; ++k) {
          const float expect = static_cast<float>(
              week.quantile(static_cast<double>(k) / static_cast<double>(m - 1)));
          ASSERT_EQ(row[k], expect) << "feature " << features::index_of(f) << " week "
                                    << w << " user " << u << " point " << k;
        }
      }
    }
  }
}

TEST(Fleet, ThreadCountDoesNotChangeAnything) {
  // Rows must be bit-identical over 1, 2 and 4 worker threads; thresholds,
  // utilities and console alarm counts follow from them deterministically.
  constexpr std::uint32_t kUsers = 64;
  const FleetScenario reference = build_fleet_scenario(small_fleet(kUsers, 1));

  for (const unsigned threads : {1u, 2u, 4u}) {
    const FleetScenario fleet = build_fleet_scenario(small_fleet(kUsers, threads));
    for (FeatureKind f : features::kAllFeatures) {
      for (std::uint32_t w = 0; w < fleet.week_count(); ++w) {
        const auto expect = reference.rows(f, w);
        const auto got = fleet.rows(f, w);
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expect[i]) << "feature " << features::index_of(f) << " week "
                                       << w << " slot " << i << " threads=" << threads;
        }
      }
    }

    // End-to-end: thresholds → utilities → console alarms, all equal.
    const auto attack = fleet.analysis().attack_model(FeatureKind::TcpConnections, 0, 16);
    const auto ref_attack =
        reference.analysis().attack_model(FeatureKind::TcpConnections, 0, 16);
    const hids::KneePartialGrouper grouper;
    const hids::UtilityHeuristic heuristic(0.5);
    const auto outcome = evaluate_fleet_policy(fleet, FeatureKind::TcpConnections, {0, 1},
                                               grouper, heuristic, *attack, threads);
    const auto expected = evaluate_fleet_policy(reference, FeatureKind::TcpConnections,
                                                {0, 1}, grouper, heuristic, *ref_attack);
    ASSERT_EQ(outcome.users.size(), expected.users.size());
    for (std::size_t u = 0; u < outcome.users.size(); ++u) {
      ASSERT_EQ(outcome.users[u].threshold, expected.users[u].threshold);
      ASSERT_EQ(outcome.users[u].fp_rate, expected.users[u].fp_rate);
      ASSERT_EQ(outcome.users[u].fn_rate, expected.users[u].fn_rate);
      ASSERT_EQ(outcome.users[u].weekly_false_alarms, expected.users[u].weekly_false_alarms);
    }
  }
}

TEST(Fleet, CompactRowsStayWithinTheRankErrorBound) {
  // Per-user CDF check: at every distinct value of the exact week (and one
  // below its minimum), the compact row's CDF stays strictly within
  // rank_error_bound() = 1/(m − 1) of the exact CDF, at several grid sizes.
  // The exact side runs on the fleet's own base config so both pipelines
  // see the same matrices and the bound is the grid discretization alone.
  const Scenario exact = build_scenario(small_fleet(80).base);
  const auto feature = FeatureKind::TcpConnections;
  const auto exact_week = exact.analysis().week(feature, 1);
  for (const std::uint32_t m : {2u, 8u, 24u, 48u}) {
    FleetConfig config = small_fleet(80);
    config.grid_points = m;
    const FleetScenario fleet = build_fleet_scenario(config);
    const double bound = config.rank_error_bound();
    EXPECT_EQ(bound, 1.0 / static_cast<double>(m - 1));

    const auto fleet_week = fleet.analysis().week(feature, 1);
    ASSERT_EQ(exact_week->size(), fleet_week->size());
    for (std::size_t u = 0; u < exact_week->size(); ++u) {
      const auto& truth = (*exact_week)[u];
      const auto& compact = (*fleet_week)[u];
      EXPECT_EQ(compact.cdf(truth.min() - 1.0), 0.0);
      for (const double x : truth.values()) {
        EXPECT_LT(std::abs(compact.cdf(x) - truth.cdf(x)), bound)
            << "m=" << m << " user " << u << " x=" << x;
      }
    }
  }
}

TEST(Fleet, UtilitiesMatchTheExactPipelineWithinTheStatedBound) {
  // The acceptance criterion at the paper's scale: run the identical
  // (grouper, heuristic, attack) policy through the exact pipeline and the
  // fleet pipeline; mean utility must agree within utility_error_bound().
  constexpr std::uint32_t kUsers = 350;
  FleetConfig config = small_fleet(kUsers);
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
  FleetConfig config = small_fleet(350);
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
  const FleetScenario fleet = build_fleet_scenario(small_fleet(40));
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
  for (const std::uint32_t m : {0u, 1u}) {
    FleetConfig config = small_fleet(10);
    config.grid_points = m;
    EXPECT_THROW((void)build_fleet_scenario(config), PreconditionError) << "m=" << m;
  }
  FleetConfig config = small_fleet(10);
  config.base.generator.grid = util::BinGrid::minutes(11);  // does not divide a week
  EXPECT_THROW((void)build_fleet_scenario(config), InputError);

  const std::vector<double> samples = {1.0, 2.0, 3.0};
  std::vector<float> row(1);
  EXPECT_THROW(grid_row(stats::EmpiricalDistribution(samples), row), PreconditionError);
}

}  // namespace
}  // namespace monohids::sim
