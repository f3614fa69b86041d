// Determinism guarantee of the parallel engine: every `threads` value must
// produce bit-identical results, because each user/grid-point computes from
// its own derived RNG stream and writes only its own output slot. These
// tests pin that contract for scenario generation and policy evaluation —
// the two layers that fan out over the thread pool.
#include <gtest/gtest.h>

#include <algorithm>

#include "hids/evaluator.hpp"
#include "hids/attacker.hpp"
#include "sim/analysis_cache.hpp"
#include "sim/scenario.hpp"

namespace monohids::sim {
namespace {

using features::FeatureKind;

/// True when two distributions hold the same runs.
bool same_runs(const stats::EmpiricalDistribution& a, const stats::EmpiricalDistribution& b) {
  const auto va = a.values(), vb = b.values();
  const auto ca = a.cumulative_counts(), cb = b.cumulative_counts();
  return std::equal(va.begin(), va.end(), vb.begin(), vb.end()) &&
         std::equal(ca.begin(), ca.end(), cb.begin(), cb.end());
}

ScenarioConfig tiny(unsigned threads) {
  ScenarioConfig config;
  config.set_users(16);
  config.set_weeks(2);
  config.set_seed(404);
  config.threads = threads;
  return config;
}

TEST(ParallelDeterminism, ScenarioIsIdenticalForAnyThreadCount) {
  const auto serial = build_scenario(tiny(1));
  for (unsigned threads : {2u, 4u}) {
    const auto parallel = build_scenario(tiny(threads));
    ASSERT_EQ(parallel.user_count(), serial.user_count());
    for (std::uint32_t u = 0; u < serial.user_count(); ++u) {
      for (FeatureKind f : features::kAllFeatures) {
        const auto va = serial.matrices[u].of(f).values();
        const auto vb = parallel.matrices[u].of(f).values();
        ASSERT_TRUE(std::equal(va.begin(), va.end(), vb.begin(), vb.end()))
            << threads << " threads, user " << u << ", " << features::name_of(f);
      }
    }
  }
}

TEST(ParallelDeterminism, WeekDistributionsMatchSerial) {
  const auto scenario = build_scenario(tiny(1));
  const auto serial = hids::week_distributions(scenario.matrices,
                                               FeatureKind::TcpConnections, 0, 1);
  const auto parallel = hids::week_distributions(scenario.matrices,
                                                 FeatureKind::TcpConnections, 0, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t u = 0; u < serial.size(); ++u) {
    ASSERT_TRUE(same_runs(serial[u], parallel[u])) << "user " << u;
  }
}

TEST(ParallelDeterminism, EvaluationOutcomesMatchSerial) {
  const auto scenario = build_scenario(tiny(1));
  const std::vector<hids::EvaluationRound> rounds{{0, 1}};
  hids::AttackModel attack;
  attack.sizes = {5.0, 50.0, 500.0};
  const hids::PercentileHeuristic p99(0.99);
  const hids::KneePartialGrouper grouper;

  const auto serial = hids::evaluate_rounds(scenario.matrices,
                                            FeatureKind::TcpConnections, rounds,
                                            grouper, p99, attack, 1);
  const auto parallel = hids::evaluate_rounds(scenario.matrices,
                                              FeatureKind::TcpConnections, rounds,
                                              grouper, p99, attack, 4);
  ASSERT_EQ(parallel.users.size(), serial.users.size());
  for (std::size_t u = 0; u < serial.users.size(); ++u) {
    ASSERT_EQ(parallel.users[u].threshold, serial.users[u].threshold) << "user " << u;
    ASSERT_EQ(parallel.users[u].group, serial.users[u].group) << "user " << u;
    ASSERT_EQ(parallel.users[u].fp_rate, serial.users[u].fp_rate) << "user " << u;
    ASSERT_EQ(parallel.users[u].fn_rate, serial.users[u].fn_rate) << "user " << u;
    ASSERT_EQ(parallel.users[u].weekly_false_alarms,
              serial.users[u].weekly_false_alarms)
        << "user " << u;
  }
  ASSERT_EQ(parallel.utilities(0.4), serial.utilities(0.4));
}

TEST(ParallelDeterminism, CachedEvaluationMatchesUncachedForAnyThreadCount) {
  const auto scenario = build_scenario(tiny(1));
  const std::vector<hids::EvaluationRound> rounds{{0, 1}};
  hids::AttackModel attack;
  attack.sizes = {5.0, 50.0, 500.0};
  const hids::UtilityHeuristic heuristic(0.4);
  const hids::KneePartialGrouper grouper;

  // Reference: uncached, serial.
  const auto reference = hids::evaluate_rounds(scenario.matrices,
                                               FeatureKind::TcpConnections, rounds,
                                               grouper, heuristic, attack, 1);
  for (unsigned threads : {1u, 2u, 4u}) {
    // Fresh cache per thread count: every artifact is computed at that
    // shard count and must still be bit-identical to the serial uncached
    // run — both on first (cold) and second (fully warm) evaluation.
    AnalysisCache cache(scenario.matrices);
    for (int pass = 0; pass < 2; ++pass) {
      const auto cached = hids::evaluate_rounds(scenario.matrices,
                                                FeatureKind::TcpConnections, rounds,
                                                grouper, heuristic, attack, threads, &cache);
      ASSERT_EQ(cached.users.size(), reference.users.size());
      for (std::size_t u = 0; u < reference.users.size(); ++u) {
        ASSERT_EQ(cached.users[u].threshold, reference.users[u].threshold)
            << threads << " threads, pass " << pass << ", user " << u;
        ASSERT_EQ(cached.users[u].group, reference.users[u].group) << "user " << u;
        ASSERT_EQ(cached.users[u].fp_rate, reference.users[u].fp_rate)
            << threads << " threads, pass " << pass << ", user " << u;
        ASSERT_EQ(cached.users[u].fn_rate, reference.users[u].fn_rate)
            << threads << " threads, pass " << pass << ", user " << u;
        ASSERT_EQ(cached.users[u].weekly_false_alarms,
                  reference.users[u].weekly_false_alarms)
            << "user " << u;
      }
    }
    // Two passes, one round each: the second pass must be all hits.
    EXPECT_GT(cache.counters().hits, 0u) << threads << " threads";
  }
}

TEST(ParallelDeterminism, CachedWeekDistributionsMatchDirectAcrossThreadCounts) {
  const auto scenario = build_scenario(tiny(1));
  const auto direct = hids::week_distributions(scenario.matrices,
                                               FeatureKind::TcpConnections, 0, 1);
  for (unsigned threads : {1u, 2u, 4u}) {
    AnalysisCache cache(scenario.matrices);
    const auto cached = cache.week(FeatureKind::TcpConnections, 0, threads);
    ASSERT_EQ(cached->size(), direct.size());
    for (std::size_t u = 0; u < direct.size(); ++u) {
      ASSERT_TRUE(same_runs((*cached)[u], direct[u])) << threads << " threads, user " << u;
    }
  }
}

TEST(ParallelDeterminism, DetectionCurveMatchesSerial) {
  const auto scenario = build_scenario(tiny(1));
  const auto train = hids::week_distributions(scenario.matrices,
                                              FeatureKind::TcpConnections, 0, 1);
  const hids::PercentileHeuristic p99(0.99);
  const auto thresholds =
      hids::assign_thresholds(train, hids::FullDiversityGrouper{}, p99);
  std::vector<double> sizes;
  for (double s = 1.0; s <= 4096.0; s *= 2.0) sizes.push_back(s);

  const auto serial =
      hids::naive_detection_curve(train, thresholds.threshold_of_user, sizes, 1);
  const auto parallel =
      hids::naive_detection_curve(train, thresholds.threshold_of_user, sizes, 4);
  ASSERT_EQ(parallel, serial);
}

}  // namespace
}  // namespace monohids::sim
