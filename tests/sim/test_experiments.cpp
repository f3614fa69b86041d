// Shape tests for the experiment runners on a reduced population (fast);
// the full-scale paper claims live in tests/integration.
#include "sim/experiments.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace monohids::sim {
namespace {

using features::FeatureKind;

const Scenario& shared_scenario() {
  static const Scenario scenario = [] {
    ScenarioConfig config;
    config.set_users(80);
    config.set_weeks(4);
    config.set_seed(42);
    return build_scenario(config);
  }();
  return scenario;
}

TEST(Experiments, CanonicalGroupersInPresentationOrder) {
  const auto groupers = canonical_groupers();
  ASSERT_EQ(groupers.size(), 3u);
  EXPECT_EQ(groupers[0]->name(), "homogeneous");
  EXPECT_EQ(groupers[1]->name(), "full-diversity");
  EXPECT_EQ(groupers[2]->name(), "8-partial");
}

TEST(Experiments, CanonicalRoundsMatchPaperMethodology) {
  const auto rounds = canonical_rounds();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].train_week, 0u);
  EXPECT_EQ(rounds[0].test_week, 1u);
  EXPECT_EQ(rounds[1].train_week, 2u);
  EXPECT_EQ(rounds[1].test_week, 3u);
}

TEST(Experiments, TailDiversitySortedAndSpread) {
  const auto result = tail_diversity(shared_scenario(), FeatureKind::TcpConnections, 0);
  ASSERT_EQ(result.p99_sorted.size(), 80u);
  EXPECT_TRUE(std::is_sorted(result.p99_sorted.begin(), result.p99_sorted.end()));
  // 99.9th percentile dominates the 99th for every user.
  for (std::size_t i = 0; i < result.p99_sorted.size(); ++i) {
    EXPECT_GE(result.p999_sorted[i], result.p99_sorted[i]);
  }
  EXPECT_GT(result.spread_decades, 1.0);
}

TEST(Experiments, FeatureScatterHasPerUserPoints) {
  const auto result = feature_scatter(shared_scenario(), FeatureKind::TcpConnections,
                                      FeatureKind::UdpConnections, 0);
  EXPECT_EQ(result.x.size(), 80u);
  EXPECT_EQ(result.y.size(), 80u);
  for (double v : result.x) EXPECT_GE(v, 0.0);
}

TEST(Experiments, BestUsersDifferPerFeature) {
  const auto tcp = best_users_experiment(shared_scenario(), FeatureKind::TcpConnections, 0);
  const auto udp = best_users_experiment(shared_scenario(), FeatureKind::UdpConnections, 0);
  ASSERT_EQ(tcp.full_diversity.size(), 10u);
  // Table 2's observation: the lists barely overlap across features.
  EXPECT_LT(hids::overlap_count(tcp.full_diversity, udp.full_diversity), 8u);
}

TEST(Experiments, AttackModelBoundedByPopulationMaximum) {
  const auto model = make_attack_model(shared_scenario(), FeatureKind::TcpConnections, 0);
  const auto train =
      hids::week_distributions(shared_scenario().matrices, FeatureKind::TcpConnections, 0);
  const double max_seen = hids::max_observed_value(train);
  EXPECT_NEAR(model.sizes.back(), max_seen, max_seen * 1e-9);
  EXPECT_GE(model.sizes.front(), 1.0);
}

TEST(Experiments, UtilityBoxplotsCoverAllPolicies) {
  const auto result = utility_boxplots(shared_scenario(), FeatureKind::TcpConnections, 0.4);
  ASSERT_EQ(result.policy_names.size(), 3u);
  for (const auto& utilities : result.utilities) {
    ASSERT_EQ(utilities.size(), 80u);
    for (double u : utilities) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0);
    }
  }
}

TEST(Experiments, WeightSweepDivergesWithW) {
  const auto result = weight_sweep(shared_scenario(), FeatureKind::TcpConnections,
                                   {0.1, 0.5, 0.9});
  ASSERT_EQ(result.mean_utility.size(), 3u);
  const auto& homog = result.mean_utility[0];
  const auto& full = result.mean_utility[1];
  // The gap (full - homog) grows with w (Fig. 3b).
  EXPECT_GT(full[2] - homog[2], full[0] - homog[0]);
}

TEST(Experiments, WeightSweepDefaultGridIsExactTenths) {
  const auto result = weight_sweep(shared_scenario(), FeatureKind::TcpConnections);
  // Bitwise: the default grid holds the doubles the labels name.
  EXPECT_EQ(result.weights,
            (std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}));
  ASSERT_EQ(result.mean_utility.size(), 3u);
  EXPECT_EQ(result.mean_utility[0].size(), 9u);
}

TEST(Experiments, AlarmTableShapes) {
  const auto result = alarm_rates(shared_scenario(), FeatureKind::TcpConnections);
  ASSERT_EQ(result.heuristic_names.size(), 2u);
  ASSERT_EQ(result.alarms.size(), 2u);
  ASSERT_EQ(result.alarms[0].size(), 3u);
  for (const auto& row : result.alarms) {
    for (double alarms : row) EXPECT_GE(alarms, 0.0);
  }
}

TEST(Experiments, NaiveCurvesMonotoneAndOrdered) {
  const auto result = naive_attack_curves(shared_scenario(), FeatureKind::TcpConnections, 16);
  ASSERT_EQ(result.detection.size(), 3u);
  for (const auto& curve : result.detection) {
    for (std::size_t i = 1; i < curve.size(); ++i) {
      EXPECT_GE(curve[i], curve[i - 1] - 1e-9);
    }
  }
  // Mid-sweep, diversity beats the monoculture on stealthy attacks.
  const std::size_t mid = result.sizes.size() / 2;
  EXPECT_GT(result.detection[1][mid], result.detection[0][mid]);
}

TEST(Experiments, ResourcefulAttackOrdersPolicies) {
  const auto result = resourceful_attack(shared_scenario(), FeatureKind::TcpConnections);
  ASSERT_EQ(result.hidden_volumes.size(), 3u);
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  // The monoculture leaves the mimicry attacker far more room.
  EXPECT_GT(median(result.hidden_volumes[0]), 2.0 * median(result.hidden_volumes[1]));
}

TEST(Experiments, StormReplayProducesPerUserOutcomes) {
  const auto result = storm_replay(shared_scenario());
  ASSERT_EQ(result.outcomes.size(), 3u);
  for (const auto& policy : result.outcomes) {
    ASSERT_EQ(policy.size(), 80u);
    for (const auto& o : policy) {
      EXPECT_GE(o.fp_rate, 0.0);
      EXPECT_LE(o.fp_rate, 1.0);
      EXPECT_GE(o.detection_rate, 0.0);
      EXPECT_LE(o.detection_rate, 1.0);
    }
  }
}

TEST(Experiments, GroupingAblationCoversAlternatives) {
  const auto result = grouping_ablation(shared_scenario(), FeatureKind::TcpConnections);
  ASSERT_EQ(result.grouper_names.size(), 5u);
  EXPECT_EQ(result.silhouette_k.size(), 4u);
  // The paper's §5 finding: silhouettes stay low — no natural clusters.
  for (double s : result.silhouettes) EXPECT_LT(s, 0.75);
}

TEST(Experiments, ThresholdDriftShowsInstability) {
  const auto result = threshold_drift(shared_scenario(), FeatureKind::TcpConnections);
  ASSERT_EQ(result.realized_fp.size(), 80u);
  // §6.1: thresholds are NOT stable week to week — many users land away
  // from the 1% target.
  EXPECT_LT(result.fraction_within_2x, 0.95);
  EXPECT_GT(result.median_realized_fp, 0.0);
  EXPECT_LT(result.median_realized_fp, 0.05);
}

TEST(Experiments, CollaborationBeatsSoloDetection) {
  hids::CollaborativeConfig config;
  config.sentinel_count = 8;
  config.quorum = 2;
  const auto curve =
      collaboration_experiment(shared_scenario(), FeatureKind::TcpConnections, config, 12);
  double solo_auc = 0, collab_auc = 0;
  for (std::size_t i = 0; i < curve.sizes.size(); ++i) {
    solo_auc += curve.solo[i];
    collab_auc += curve.collaborative[i];
  }
  EXPECT_GT(collab_auc, solo_auc);
}

}  // namespace
}  // namespace monohids::sim
