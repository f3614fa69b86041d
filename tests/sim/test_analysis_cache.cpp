// sim::AnalysisCache: memoized week distributions / threshold assignments /
// attack models must be (a) bit-identical to the direct computations,
// (b) served from memory on repeat lookups, (c) keyed finely enough that
// differently-parameterized policies never collide, and (d) safe under
// concurrent lookups.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "oracle/per_call.hpp"
#include "sim/analysis_cache.hpp"
#include "sim/experiments.hpp"
#include "sim/scenario.hpp"
#include "support/attack_sweep.hpp"

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

const Scenario& shared_scenario() {
  static const Scenario scenario = [] {
    ScenarioConfig config;
    config.set_users(20);
    config.set_weeks(2);
    config.set_seed(777);
    return build_scenario(config);
  }();
  return scenario;
}

TEST(AnalysisCache, WeekMatchesDirectComputation) {
  const auto& scenario = shared_scenario();
  AnalysisCache cache(scenario.matrices);
  const auto cached = cache.week(FeatureKind::TcpConnections, 0);
  const auto direct =
      hids::week_distributions(scenario.matrices, FeatureKind::TcpConnections, 0);
  ASSERT_EQ(cached->size(), direct.size());
  for (std::size_t u = 0; u < direct.size(); ++u) {
    ASSERT_TRUE(same_runs((*cached)[u], direct[u])) << "user " << u;
  }
}

TEST(AnalysisCache, RepeatLookupsShareOneResult) {
  AnalysisCache cache(shared_scenario().matrices);
  const auto first = cache.week(FeatureKind::TcpConnections, 0);
  const auto second = cache.week(FeatureKind::TcpConnections, 0);
  EXPECT_EQ(first.get(), second.get());  // same arena, zero rebuild
  const auto counters = cache.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
}

TEST(AnalysisCache, DistinctKeysAreDistinctEntries) {
  AnalysisCache cache(shared_scenario().matrices);
  const auto a = cache.week(FeatureKind::TcpConnections, 0);
  const auto b = cache.week(FeatureKind::TcpConnections, 1);
  const auto c = cache.week(FeatureKind::DistinctConnections, 0);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.counters().misses, 3u);
}

TEST(AnalysisCache, ThresholdsMatchAssignThresholds) {
  const auto& scenario = shared_scenario();
  AnalysisCache cache(scenario.matrices);
  const hids::KneePartialGrouper grouper;
  const hids::UtilityHeuristic heuristic(0.4);
  hids::AttackModel attack;
  attack.sizes = {2.0, 20.0, 200.0};

  const auto cached =
      cache.thresholds(FeatureKind::TcpConnections, 0, grouper, heuristic, &attack);
  const auto train =
      hids::week_distributions(scenario.matrices, FeatureKind::TcpConnections, 0);
  const auto direct = hids::assign_thresholds(train, grouper, heuristic, &attack);
  EXPECT_EQ(cached->threshold_of_user, direct.threshold_of_user);
  EXPECT_EQ(cached->threshold_of_group, direct.threshold_of_group);
  EXPECT_EQ(cached->groups.group_of_user, direct.groups.group_of_user);

  // Same key again: served from memory.
  const auto again =
      cache.thresholds(FeatureKind::TcpConnections, 0, grouper, heuristic, &attack);
  EXPECT_EQ(cached.get(), again.get());
}

TEST(AnalysisCache, ParameterizedPoliciesDoNotCollide) {
  AnalysisCache cache(shared_scenario().matrices);
  const hids::PercentileHeuristic p99(0.99);
  const hids::PercentileHeuristic p95(0.95);
  const auto a = cache.thresholds(FeatureKind::TcpConnections, 0,
                                  hids::EqualFrequencyGrouper(4), p99, nullptr);
  const auto b = cache.thresholds(FeatureKind::TcpConnections, 0,
                                  hids::EqualFrequencyGrouper(4), p95, nullptr);
  const auto c = cache.thresholds(FeatureKind::TcpConnections, 0,
                                  hids::EqualFrequencyGrouper(4, 0.5), p99, nullptr);
  EXPECT_NE(a->threshold_of_user, b->threshold_of_user);
  EXPECT_NE(a.get(), c.get());  // pivot quantile is part of the key

  // Attack sweep is part of the key for FN-aware heuristics.
  hids::AttackModel small, large;
  small.sizes = {1.0};
  large.sizes = {1.0, 1000.0};
  const hids::UtilityHeuristic utility(0.4);
  const auto d = cache.thresholds(FeatureKind::TcpConnections, 0,
                                  hids::HomogeneousGrouper{}, utility, &small);
  const auto e = cache.thresholds(FeatureKind::TcpConnections, 0,
                                  hids::HomogeneousGrouper{}, utility, &large);
  EXPECT_NE(d.get(), e.get());
}

TEST(AnalysisCache, AttackModelMatchesMakeAttackModel) {
  const auto& scenario = shared_scenario();
  const auto cached = scenario.analysis().attack_model(FeatureKind::TcpConnections, 0);
  const auto direct = make_attack_model(scenario, FeatureKind::TcpConnections, 0);
  EXPECT_EQ(cached->sizes, direct.sizes);
  const auto again = scenario.analysis().attack_model(FeatureKind::TcpConnections, 0);
  EXPECT_EQ(cached.get(), again.get());
}

TEST(AnalysisCache, BypassRecomputesEveryCall) {
  AnalysisCache cache(shared_scenario().matrices);
  cache.set_bypass(true);
  const auto a = cache.week(FeatureKind::TcpConnections, 0);
  const auto b = cache.week(FeatureKind::TcpConnections, 0);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_TRUE(same_runs((*a)[0], (*b)[0]));
}

TEST(AnalysisCache, ClearDropsEntriesButKeepsHandlesValid) {
  AnalysisCache cache(shared_scenario().matrices);
  const auto before = cache.week(FeatureKind::TcpConnections, 0);
  cache.clear();
  const auto after = cache.week(FeatureKind::TcpConnections, 0);
  EXPECT_NE(before.get(), after.get());
  EXPECT_FALSE((*before)[0].values().empty());  // old handle still alive
}

TEST(AnalysisCache, ScenarioAccessorIsStableAndInvalidatesOnCopy) {
  const auto& scenario = shared_scenario();
  auto& first = scenario.analysis();
  auto& second = scenario.analysis();
  EXPECT_EQ(&first, &second);

  // A copied scenario has its own matrices; the shared cache handle must
  // not serve lookups against the original's storage.
  const Scenario copy = scenario;
  auto& copy_cache = copy.analysis();
  EXPECT_NE(&copy_cache, &first);
  EXPECT_TRUE(copy_cache.covers(copy.matrices));
  EXPECT_FALSE(copy_cache.covers(scenario.matrices));
}

TEST(AnalysisCache, ConcurrentSameKeyLookupsComputeOnce) {
  AnalysisCache cache(shared_scenario().matrices);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const AnalysisCache::DistributionSet>> results(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      // threads=1 keeps the inner build serial: the pool is irrelevant to
      // what this test pins (one compute, everyone shares it).
      workers.emplace_back(
          [&, t] { results[t] = cache.week(FeatureKind::TcpConnections, 0, 1); });
    }
    for (auto& w : workers) w.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(AnalysisCache, NearbyParametersDoNotCollide) {
  // Every pair agrees to 6 significant digits, which is all name() prints.
  const auto& scenario = shared_scenario();
  AnalysisCache cache(scenario.matrices);
  const auto train =
      hids::week_distributions(scenario.matrices, FeatureKind::TcpConnections, 0);
  hids::AttackModel attack;
  attack.sizes = {2.0, 20.0, 200.0};
  const auto expect_distinct_and_exact = [&](const hids::Grouper& ga,
                                             const hids::ThresholdHeuristic& ha,
                                             const hids::Grouper& gb,
                                             const hids::ThresholdHeuristic& hb) {
    const auto a = cache.thresholds(FeatureKind::TcpConnections, 0, ga, ha, &attack);
    const auto b = cache.thresholds(FeatureKind::TcpConnections, 0, gb, hb, &attack);
    EXPECT_NE(a.get(), b.get()) << ga.cache_key() << ' ' << ha.cache_key();
    EXPECT_EQ(a->threshold_of_user,
              hids::assign_thresholds(train, ga, ha, &attack).threshold_of_user);
    EXPECT_EQ(b->threshold_of_user,
              hids::assign_thresholds(train, gb, hb, &attack).threshold_of_user);
  };
  const hids::HomogeneousGrouper homog;
  expect_distinct_and_exact(homog, hids::UtilityHeuristic(0.1234561), homog,
                            hids::UtilityHeuristic(0.1234564));
  expect_distinct_and_exact(homog, hids::PercentileHeuristic(0.9912341), homog,
                            hids::PercentileHeuristic(0.9912344));
  expect_distinct_and_exact(homog, hids::MeanSigmaHeuristic(2.0000001), homog,
                            hids::MeanSigmaHeuristic(2.0000004));
  const hids::PercentileHeuristic p99(0.99);
  expect_distinct_and_exact(hids::EqualFrequencyGrouper(4, 0.9000001), p99,
                            hids::EqualFrequencyGrouper(4, 0.9000004), p99);
  expect_distinct_and_exact(hids::KMeansGrouper(4, 0.9000001), p99,
                            hids::KMeansGrouper(4, 0.9000004), p99);
  expect_distinct_and_exact(hids::KneePartialGrouper(0.1500001), p99,
                            hids::KneePartialGrouper(0.1500004), p99);
}

// ---------------------------------------------------- utility-hull memo

/// The paper's three groupers plus both alternatives at 8 groups.
std::vector<std::unique_ptr<hids::Grouper>> differential_groupers() {
  std::vector<std::unique_ptr<hids::Grouper>> groupers;
  groupers.push_back(std::make_unique<hids::HomogeneousGrouper>());
  groupers.push_back(std::make_unique<hids::FullDiversityGrouper>());
  groupers.push_back(std::make_unique<hids::KneePartialGrouper>());
  groupers.push_back(std::make_unique<hids::KMeansGrouper>(8));
  groupers.push_back(std::make_unique<hids::EqualFrequencyGrouper>(8));
  return groupers;
}

TEST(AnalysisCache, CurveMemoMatchesUncachedAndTheOracle) {
  const auto& scenario = shared_scenario();
  AnalysisCache cache(scenario.matrices);
  constexpr auto kFeature = FeatureKind::TcpConnections;
  const auto train = hids::week_distributions(scenario.matrices, kFeature, 0);
  // A 3-size linear sweep (mean_fn's per-size branch) and the 64-size log
  // sweep every experiment uses.
  const std::vector<hids::AttackModel> sweeps = {
      test_support::linear_attack_sweep(hids::max_observed_value(train), 3),
      *cache.attack_model(kFeature, 0)};
  ASSERT_EQ(sweeps[1].sizes.size(), 64u);

  for (const hids::AttackModel& attack : sweeps) {
    for (const auto& grouper : differential_groupers()) {
      const auto check = [&](const hids::CurveHeuristic& heuristic, auto&& oracle_threshold) {
        const auto cached = cache.thresholds(kFeature, 0, *grouper, heuristic, &attack);
        const auto direct = hids::assign_thresholds(train, *grouper, heuristic, &attack);
        const std::string what = grouper->name() + ' ' + heuristic.name() + " sizes=" +
                                 std::to_string(attack.sizes.size());
        EXPECT_EQ(cached->threshold_of_user, direct.threshold_of_user) << what;
        EXPECT_EQ(cached->threshold_of_group, direct.threshold_of_group) << what;
        EXPECT_EQ(cached->groups.group_of_user, direct.groups.group_of_user) << what;
        // Every group against the oracle on its own training data: the
        // members' raw week samples pooled into one flat build, or a
        // one-member group's own distribution.
        const auto members = cached->groups.members();
        for (std::size_t g = 0; g < members.size(); ++g) {
          std::vector<double> samples;
          for (std::uint32_t u : members[g]) {
            const auto slice = scenario.matrices[u].of(kFeature).week_slice(0);
            samples.insert(samples.end(), slice.begin(), slice.end());
          }
          const stats::EmpiricalDistribution pool(std::move(samples));
          EXPECT_EQ(cached->threshold_of_group[g], oracle_threshold(pool, attack))
              << what << " group " << g;
        }
      };
      for (int i = 0; i <= 10; ++i) {
        const double w = i / 10.0;
        check(hids::UtilityHeuristic(w),
              [w](const stats::EmpiricalDistribution& pool, const hids::AttackModel& attack) {
                return oracle::utility_threshold(pool, attack, w);
              });
      }
      check(hids::FMeasureHeuristic{}, &oracle::fmeasure_threshold);
    }
  }
}

TEST(AnalysisCache, WeightsOverOneKeyBuildOneCurve) {
  AnalysisCache cache(shared_scenario().matrices);
  const hids::KneePartialGrouper grouper;
  const auto attack = cache.attack_model(FeatureKind::TcpConnections, 0);  // warms the week
  const auto before = cache.counters();
  const std::vector<double> weights = {0.2, 0.4, 0.6, 0.8};
  std::vector<std::shared_ptr<const hids::ThresholdAssignment>> results;
  for (double w : weights) {
    results.push_back(cache.thresholds(FeatureKind::TcpConnections, 0, grouper,
                                       hids::UtilityHeuristic(w), attack.get()));
  }
  const auto after = cache.counters();
  // k assignment misses plus exactly one curve miss.
  EXPECT_EQ(after.misses - before.misses, weights.size() + 1);
  // The F-measure never selects on the hulls: one more assignment, built
  // by assign_thresholds, and no curve lookup.
  (void)cache.thresholds(FeatureKind::TcpConnections, 0, grouper, hids::FMeasureHeuristic{},
                         attack.get());
  EXPECT_EQ(cache.counters().misses - after.misses, 1u);
  // A direct lookup of the key is served from memory.
  const auto curves = cache.pooled_curves(FeatureKind::TcpConnections, 0, grouper, *attack);
  EXPECT_EQ(cache.counters().misses - after.misses, 1u);
  EXPECT_EQ(curves.get(),
            cache.pooled_curves(FeatureKind::TcpConnections, 0, grouper, *attack).get());
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_NE(results[i].get(), results[0].get());
  }
}

TEST(AnalysisCache, ClearAndBypassRebuildCurves) {
  AnalysisCache cache(shared_scenario().matrices);
  const hids::HomogeneousGrouper grouper;
  const auto attack = cache.attack_model(FeatureKind::TcpConnections, 0);
  const auto before = cache.pooled_curves(FeatureKind::TcpConnections, 0, grouper, *attack);
  cache.clear();
  const auto after = cache.pooled_curves(FeatureKind::TcpConnections, 0, grouper, *attack);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(before->hull_of_group[0].fn, after->hull_of_group[0].fn);

  cache.set_bypass(true);
  const auto start = cache.counters();
  const hids::UtilityHeuristic utility(0.4);
  const auto a =
      cache.thresholds(FeatureKind::TcpConnections, 0, grouper, utility, attack.get());
  // Bypass: the assignment, its curves and the training week each of them
  // fetches all recompute.
  EXPECT_EQ(cache.counters().misses - start.misses, 4u);
  EXPECT_EQ(cache.counters().hits, start.hits);
  cache.set_bypass(false);
  const auto b =
      cache.thresholds(FeatureKind::TcpConnections, 0, grouper, utility, attack.get());
  EXPECT_EQ(a->threshold_of_user, b->threshold_of_user);
}

TEST(AnalysisCache, ConcurrentWeightsShareOneCurve) {
  const auto& scenario = shared_scenario();
  const hids::KneePartialGrouper grouper;
  constexpr int kThreads = 8;
  const auto weight = [](int t) { return static_cast<double>(t + 1) / kThreads; };

  AnalysisCache serial(scenario.matrices);
  const auto attack = serial.attack_model(FeatureKind::TcpConnections, 0);
  std::vector<std::vector<double>> expected;
  for (int t = 0; t < kThreads; ++t) {
    expected.push_back(serial
                           .thresholds(FeatureKind::TcpConnections, 0, grouper,
                                       hids::UtilityHeuristic(weight(t)), attack.get(), 1)
                           ->threshold_of_user);
  }

  AnalysisCache cache(scenario.matrices);
  (void)cache.week(FeatureKind::TcpConnections, 0);
  const auto before = cache.counters();
  std::vector<std::shared_ptr<const hids::ThresholdAssignment>> results(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      // threads=2: the one caller that builds the hulls fans its groups
      // out over the shared pool while the others wait on the memo entry,
      // so the nested lookup runs under real concurrency.
      workers.emplace_back([&, t] {
        results[t] = cache.thresholds(FeatureKind::TcpConnections, 0, grouper,
                                      hids::UtilityHeuristic(weight(t)), attack.get(), 2);
      });
    }
    for (auto& w : workers) w.join();
  }
  // One curve miss, one assignment miss per weight.
  EXPECT_EQ(cache.counters().misses - before.misses, static_cast<std::uint64_t>(kThreads + 1));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t]->threshold_of_user, expected[t]) << "w=" << weight(t);
  }
}

}  // namespace
}  // namespace monohids::sim
