#include "hids/evaluator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "sim/analysis_cache.hpp"
#include "support/attack_sweep.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "util/error.hpp"

namespace monohids::hids {
namespace {

using features::FeatureKind;
using stats::EmpiricalDistribution;
using test_support::linear_attack_sweep;

std::vector<EmpiricalDistribution> population_at(std::vector<double> levels) {
  std::vector<EmpiricalDistribution> users;
  for (double level : levels) users.emplace_back(std::vector<double>(100, level));
  return users;
}

TEST(Evaluator, PerUserOperatingPoints) {
  // Users at constant levels 10 and 1000, thresholds from full diversity:
  // zero FP in a stationary test week; FN depends on attack sweep vs level.
  const auto train = population_at({10, 1000});
  const auto test = population_at({10, 1000});
  AttackModel attack;
  attack.sizes = {5.0, 2000.0};
  const PercentileHeuristic p99(0.99);
  const auto outcome = evaluate_policy(train, test, FullDiversityGrouper{}, p99, attack);

  ASSERT_EQ(outcome.users.size(), 2u);
  EXPECT_EQ(outcome.policy_name, "full-diversity");
  // constant traffic == threshold, alarms require strictly-above
  EXPECT_DOUBLE_EQ(outcome.users[0].fp_rate, 0.0);
  // user 0 (T=10): size-5 attack hides (10+5<=... wait 15 > 10) — detected;
  // both sizes exceed the threshold, so FN = 0.
  EXPECT_DOUBLE_EQ(outcome.users[0].fn_rate, 0.0);
  // user 1 (T=1000): size-5 hides (1005 <= 1000 is false)... also detected.
  // Constant-level users detect any additive attack; use the utility check.
  EXPECT_DOUBLE_EQ(outcome.users[1].utility(0.4), 1.0);
}

TEST(Evaluator, HomogeneousThresholdBlindsLightUsers) {
  const auto train = population_at({10, 10000});
  const auto test = population_at({10, 10000});
  AttackModel attack;
  attack.sizes = {100.0};  // stealthy vs the pooled threshold
  const PercentileHeuristic p99(0.99);

  const auto homog = evaluate_policy(train, test, HomogeneousGrouper{}, p99, attack);
  const auto full = evaluate_policy(train, test, FullDiversityGrouper{}, p99, attack);

  // Pooled threshold = 10000: the light user misses the attack entirely.
  EXPECT_DOUBLE_EQ(homog.users[0].fn_rate, 1.0);
  EXPECT_DOUBLE_EQ(homog.users[0].detection_rate(), 0.0);
  // With a personal threshold the same user catches it always.
  EXPECT_DOUBLE_EQ(full.users[0].fn_rate, 0.0);
}

TEST(Evaluator, WeeklyAlarmsScaleWithFpRate) {
  // Train at level 10; test week runs hotter, so every bin alarms.
  const auto train = population_at({10});
  const auto test = population_at({20});
  AttackModel attack;
  attack.sizes = {1.0};
  const PercentileHeuristic p99(0.99);
  const auto outcome = evaluate_policy(train, test, FullDiversityGrouper{}, p99, attack);
  EXPECT_DOUBLE_EQ(outcome.users[0].fp_rate, 1.0);
  EXPECT_EQ(outcome.users[0].weekly_false_alarms, 100u);
  EXPECT_EQ(outcome.total_false_alarms(), 100u);
}

TEST(Evaluator, UtilitiesAggregateAcrossUsers) {
  const auto train = population_at({10, 20, 30});
  const auto test = train;
  AttackModel attack;
  attack.sizes = {100.0};
  const PercentileHeuristic p99(0.99);
  const auto outcome = evaluate_policy(train, test, FullDiversityGrouper{}, p99, attack);
  const auto utilities = outcome.utilities(0.4);
  ASSERT_EQ(utilities.size(), 3u);
  double mean = 0;
  for (double u : utilities) mean += u;
  EXPECT_NEAR(outcome.mean_utility(0.4), mean / 3.0, 1e-12);
}

TEST(Evaluator, MismatchedPopulationsAreAnError) {
  const auto train = population_at({10});
  const auto test = population_at({10, 20});
  AttackModel attack;
  attack.sizes = {1.0};
  const PercentileHeuristic p99(0.99);
  EXPECT_THROW((void)evaluate_policy(train, test, FullDiversityGrouper{}, p99, attack),
               PreconditionError);
}

TEST(Evaluator, WeekDistributionsSliceTheMatrices) {
  trace::PopulationConfig pop;
  pop.user_count = 4;
  pop.weeks = 2;
  trace::GeneratorConfig gen_config;
  gen_config.weeks = 2;
  const trace::TraceGenerator gen(gen_config);
  std::vector<features::FeatureMatrix> matrices;
  for (const auto& u : trace::generate_population(pop)) {
    matrices.push_back(gen.generate_features(u));
  }
  const auto week0 = week_distributions(matrices, FeatureKind::TcpConnections, 0);
  const auto week1 = week_distributions(matrices, FeatureKind::TcpConnections, 1);
  ASSERT_EQ(week0.size(), 4u);
  EXPECT_EQ(week0[0].size(), 672u);
  EXPECT_EQ(week1[0].size(), 672u);
  EXPECT_THROW((void)week_distributions(matrices, FeatureKind::TcpConnections, 2),
               PreconditionError);
}

TEST(Evaluator, RoundsAverageOutcomes) {
  trace::PopulationConfig pop;
  pop.user_count = 6;
  pop.weeks = 4;
  trace::GeneratorConfig gen_config;
  gen_config.weeks = 4;
  const trace::TraceGenerator gen(gen_config);
  std::vector<features::FeatureMatrix> matrices;
  for (const auto& u : trace::generate_population(pop)) {
    matrices.push_back(gen.generate_features(u));
  }
  const auto attack = linear_attack_sweep(100.0, 8);
  const PercentileHeuristic p99(0.99);
  const std::vector<EvaluationRound> rounds{{0, 1}, {2, 3}};
  const auto merged = evaluate_rounds(matrices, FeatureKind::TcpConnections, rounds,
                                      FullDiversityGrouper{}, p99, attack);
  ASSERT_EQ(merged.users.size(), 6u);
  for (const auto& u : merged.users) {
    EXPECT_GE(u.fp_rate, 0.0);
    EXPECT_LE(u.fp_rate, 1.0);
    EXPECT_GE(u.fn_rate, 0.0);
    EXPECT_LE(u.fn_rate, 1.0);
  }
}

/// evaluate_rounds as separate per-round evaluate_policy calls, averaged
/// the way the rounds were merged before they ran in one sweep.
PolicyOutcome per_round_policies(std::span<const features::FeatureMatrix> users,
                                 FeatureKind feature, std::span<const EvaluationRound> rounds,
                                 const Grouper& grouper, const ThresholdHeuristic& heuristic,
                                 const AttackModel& attack, unsigned threads,
                                 DistributionCache* cache) {
  PolicyOutcome merged;
  std::vector<double> fp(users.size(), 0.0), fn(users.size(), 0.0), alarms(users.size(), 0.0);
  for (const EvaluationRound& round : rounds) {
    PolicyOutcome one;
    if (cache != nullptr) {
      const auto train = cache->week(feature, round.train_week, threads);
      const auto test = cache->week(feature, round.test_week, threads);
      const auto assignment =
          cache->thresholds(feature, round.train_week, grouper, heuristic, &attack, threads);
      one = evaluate_policy(*train, *test, *assignment, grouper.name(), heuristic.name(),
                            attack, threads);
    } else {
      const auto train = week_distributions(users, feature, round.train_week, threads);
      const auto test = week_distributions(users, feature, round.test_week, threads);
      one = evaluate_policy(train, test, grouper, heuristic, attack, threads);
    }
    for (std::size_t u = 0; u < users.size(); ++u) {
      fp[u] += one.users[u].fp_rate;
      fn[u] += one.users[u].fn_rate;
      alarms[u] += static_cast<double>(one.users[u].weekly_false_alarms);
    }
    merged = std::move(one);
  }
  const auto n = static_cast<double>(rounds.size());
  for (std::size_t u = 0; u < users.size(); ++u) {
    merged.users[u].fp_rate = fp[u] / n;
    merged.users[u].fn_rate = fn[u] / n;
    merged.users[u].weekly_false_alarms =
        static_cast<std::uint64_t>(std::llround(alarms[u] / n));
  }
  return merged;
}

TEST(Evaluator, RoundsInOneRegionEqualPerRoundPolicies) {
  trace::PopulationConfig pop;
  pop.user_count = 40;
  pop.weeks = 4;
  trace::GeneratorConfig gen_config;
  gen_config.weeks = 4;
  const trace::TraceGenerator gen(gen_config);
  std::vector<features::FeatureMatrix> matrices;
  for (const auto& u : trace::generate_population(pop)) {
    matrices.push_back(gen.generate_features(u));
  }
  const auto attack = linear_attack_sweep(100.0, 8);
  const PercentileHeuristic p99(0.99);
  const UtilityHeuristic utility(0.4);
  const FullDiversityGrouper full;
  const EqualFrequencyGrouper partial(4);
  const std::vector<std::vector<EvaluationRound>> round_sets{
      {{0, 1}}, {{0, 1}, {2, 3}}, {{0, 1}, {1, 2}, {2, 3}}};
  const std::vector<std::pair<const Grouper*, const ThresholdHeuristic*>> policies{
      {&full, &p99}, {&partial, &utility}};

  const auto same_bits = [](const auto& a, const auto& b) {
    return std::memcmp(&a, &b, sizeof(a)) == 0;
  };
  for (const auto& rounds : round_sets) {
    for (const auto& [grouper, heuristic] : policies) {
      for (const unsigned threads : {1u, 2u, 4u}) {
        for (const bool cached : {false, true}) {
          sim::AnalysisCache one_region_cache(matrices);
          sim::AnalysisCache per_round_cache(matrices);
          const auto expected = per_round_policies(
              matrices, FeatureKind::TcpConnections, rounds, *grouper, *heuristic, attack,
              threads, cached ? &per_round_cache : nullptr);
          const auto actual = evaluate_rounds(matrices, FeatureKind::TcpConnections, rounds,
                                              *grouper, *heuristic, attack, threads,
                                              cached ? &one_region_cache : nullptr);
          const auto label = [&] {
            return grouper->name() + " / " + heuristic->name() + ", " +
                   std::to_string(rounds.size()) + " rounds, " + std::to_string(threads) +
                   " threads" + (cached ? ", cached" : "");
          };
          EXPECT_EQ(actual.policy_name, expected.policy_name) << label();
          EXPECT_EQ(actual.heuristic_name, expected.heuristic_name) << label();
          ASSERT_EQ(actual.users.size(), expected.users.size()) << label();
          for (std::size_t u = 0; u < actual.users.size(); ++u) {
            const UserOutcome& a = actual.users[u];
            const UserOutcome& e = expected.users[u];
            ASSERT_TRUE(same_bits(a.fp_rate, e.fp_rate)) << label() << ", user " << u;
            ASSERT_TRUE(same_bits(a.fn_rate, e.fn_rate)) << label() << ", user " << u;
            ASSERT_TRUE(same_bits(a.weekly_false_alarms, e.weekly_false_alarms))
                << label() << ", user " << u;
            ASSERT_TRUE(same_bits(a.threshold, e.threshold)) << label() << ", user " << u;
            ASSERT_TRUE(same_bits(a.group, e.group)) << label() << ", user " << u;
          }
        }
      }
    }
  }
}

TEST(Evaluator, NoRoundsIsAnError) {
  std::vector<features::FeatureMatrix> matrices;
  const auto attack = linear_attack_sweep(10.0, 2);
  const PercentileHeuristic p99(0.99);
  EXPECT_THROW((void)evaluate_rounds(matrices, FeatureKind::TcpConnections, {},
                                     FullDiversityGrouper{}, p99, attack),
               PreconditionError);
}

TEST(Replay, CountsDetectionOnlyOnAttackedBins) {
  const std::vector<double> benign{0, 0, 10, 0};
  const std::vector<double> attack{0, 5, 5, 100};
  // threshold 8: bin1 0+5<=8 missed; bin2 10+5>8 detected; bin3 0+100>8
  // detected -> detection 2/3. FP: benign>8 only at bin2 -> 1/4.
  const auto outcome = evaluate_replay(benign, attack, 8.0);
  EXPECT_DOUBLE_EQ(outcome.detection_rate, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(outcome.fp_rate, 0.25);
}

TEST(Replay, NoAttackedBinsGivesZeroDetection) {
  const std::vector<double> benign{1, 2, 3};
  const std::vector<double> attack{0, 0, 0};
  EXPECT_DOUBLE_EQ(evaluate_replay(benign, attack, 10.0).detection_rate, 0.0);
}

TEST(Replay, MismatchedShapesAreAnError) {
  const std::vector<double> benign{1, 2};
  const std::vector<double> attack{1};
  EXPECT_THROW((void)evaluate_replay(benign, attack, 1.0), PreconditionError);
}

}  // namespace
}  // namespace monohids::hids
