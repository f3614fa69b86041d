#include "sim/experiments.hpp"

#include <algorithm>
#include <cmath>

#include "hids/attacker.hpp"
#include "sim/analysis_cache.hpp"
#include "stats/kmeans.hpp"
#include "stats/quantile.hpp"
#include "trace/overlay.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace monohids::sim {

using features::FeatureKind;
using hids::AttackModel;
using hids::EvaluationRound;
using stats::EmpiricalDistribution;

std::vector<std::unique_ptr<hids::Grouper>> canonical_groupers() {
  std::vector<std::unique_ptr<hids::Grouper>> groupers;
  groupers.push_back(std::make_unique<hids::HomogeneousGrouper>());
  groupers.push_back(std::make_unique<hids::FullDiversityGrouper>());
  groupers.push_back(std::make_unique<hids::KneePartialGrouper>());  // 8-partial
  return groupers;
}

std::vector<EvaluationRound> canonical_rounds() {
  return {EvaluationRound{0, 1}, EvaluationRound{2, 3}};
}

AttackModel make_attack_model(const Scenario& scenario, FeatureKind feature,
                              std::uint32_t train_week, std::uint32_t steps) {
  // Memoized in the scenario's analysis cache (the log-spacing rationale
  // lives there): every runner that sweeps the same (feature, week) shares
  // one model, which also keeps threshold-assignment cache keys aligned.
  return *scenario.analysis().attack_model(feature, train_week, steps);
}

TailDiversityResult tail_diversity(const Scenario& scenario, FeatureKind feature,
                                   std::uint32_t week) {
  const auto users_held = scenario.analysis().week(feature, week);
  const auto& users = *users_held;

  struct Pair {
    double p99, p999;
  };
  std::vector<Pair> pairs;
  pairs.reserve(users.size());
  for (const auto& u : users) {
    pairs.push_back({u.quantile(0.99), u.quantile(0.999)});
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.p99 < b.p99; });

  TailDiversityResult result;
  result.feature = feature;
  result.p99_sorted.reserve(pairs.size());
  result.p999_sorted.reserve(pairs.size());
  double min_positive = 0.0, max_value = 0.0;
  for (const Pair& p : pairs) {
    result.p99_sorted.push_back(p.p99);
    result.p999_sorted.push_back(p.p999);
    if (p.p99 > 0.0 && (min_positive == 0.0 || p.p99 < min_positive)) min_positive = p.p99;
    max_value = std::max(max_value, p.p99);
  }
  result.spread_decades =
      (min_positive > 0.0 && max_value > 0.0) ? std::log10(max_value / min_positive) : 0.0;
  return result;
}

FeatureScatterResult feature_scatter(const Scenario& scenario, FeatureKind feature_x,
                                     FeatureKind feature_y, std::uint32_t week) {
  const auto xs = scenario.analysis().week(feature_x, week);
  const auto ys = scenario.analysis().week(feature_y, week);
  FeatureScatterResult result;
  result.x.reserve(xs->size());
  result.y.reserve(ys->size());
  for (std::size_t u = 0; u < xs->size(); ++u) {
    result.x.push_back((*xs)[u].quantile(0.99));
    result.y.push_back((*ys)[u].quantile(0.99));
  }
  return result;
}

BestUsersResult best_users_experiment(const Scenario& scenario, FeatureKind feature,
                                      std::uint32_t week, std::size_t count) {
  auto& cache = scenario.analysis();
  const auto train = cache.week(feature, week);
  const hids::PercentileHeuristic p99(0.99);

  // Within a shared-threshold group, the genuinely most sensitive hosts are
  // the ones with the lowest personal tails; use those to order ties.
  std::vector<double> personal_q99;
  personal_q99.reserve(train->size());
  for (const auto& u : *train) personal_q99.push_back(u.quantile(0.99));

  BestUsersResult result;
  const auto full =
      cache.thresholds(feature, week, hids::FullDiversityGrouper{}, p99, nullptr);
  result.full_diversity = hids::best_users(*full, count, personal_q99);
  // Members of a partial-diversity group share one configuration, so there
  // is no canonical order inside a group; list a deterministic sample
  // (hash-ordered) rather than replaying the full-diversity ranking.
  std::vector<double> hash_order;
  hash_order.reserve(train->size());
  for (std::uint32_t u = 0; u < train->size(); ++u) {
    hash_order.push_back(static_cast<double>(util::derive_seed(1, "tie", u)));
  }
  const auto partial =
      cache.thresholds(feature, week, hids::KneePartialGrouper{}, p99, nullptr);
  result.partial_diversity = hids::best_users(*partial, count, hash_order);
  return result;
}

UtilityComparisonResult utility_boxplots(const Scenario& scenario, FeatureKind feature,
                                         double w) {
  const auto rounds = canonical_rounds();
  const AttackModel attack = make_attack_model(scenario, feature, rounds.front().train_week);
  const hids::UtilityHeuristic heuristic(w);

  UtilityComparisonResult result;
  for (const auto& grouper : canonical_groupers()) {
    const auto outcome = hids::evaluate_rounds(scenario.matrices, feature, rounds, *grouper,
                                               heuristic, attack, 0, &scenario.analysis());
    result.policy_names.push_back(outcome.policy_name);
    result.utilities.push_back(outcome.utilities(w));
  }
  return result;
}

WeightSweepResult weight_sweep(const Scenario& scenario, FeatureKind feature,
                               std::vector<double> weights, bool reoptimize_per_weight) {
  if (weights.empty()) {
    // i / 10.0 is the double nearest each label; accumulating += 0.1 drifts
    // (0.30000000000000004, 0.7999999999999999, ...).
    for (int i = 1; i <= 9; ++i) weights.push_back(i / 10.0);
  }
  const auto rounds = canonical_rounds();
  const AttackModel attack = make_attack_model(scenario, feature, rounds.front().train_week);

  WeightSweepResult result;
  result.weights = weights;
  const auto groupers = canonical_groupers();
  result.mean_utility.resize(groupers.size());
  for (std::size_t g = 0; g < groupers.size(); ++g) {
    result.policy_names.push_back(groupers[g]->name());
    if (reoptimize_per_weight) {
      for (double w : weights) {
        const hids::UtilityHeuristic heuristic(w);
        const auto outcome =
            hids::evaluate_rounds(scenario.matrices, feature, rounds, *groupers[g],
                                  heuristic, attack, 0, &scenario.analysis());
        result.mean_utility[g].push_back(outcome.mean_utility(w));
      }
    } else {
      // Fixed operating point (the survey-favorite 99th percentile); w only
      // re-weights the already-realized (FP, FN) of every host. This is what
      // makes the policies' curves diverge as w grows: the monoculture's
      // high FN is amplified while diversity's low FN keeps it flat.
      const hids::PercentileHeuristic heuristic(0.99);
      const auto outcome =
          hids::evaluate_rounds(scenario.matrices, feature, rounds, *groupers[g], heuristic,
                                attack, 0, &scenario.analysis());
      for (double w : weights) {
        result.mean_utility[g].push_back(outcome.mean_utility(w));
      }
    }
  }
  return result;
}

AlarmRateResult alarm_rates(const Scenario& scenario, FeatureKind feature, double utility_w) {
  const auto rounds = canonical_rounds();
  const AttackModel attack = make_attack_model(scenario, feature, rounds.front().train_week);

  std::vector<std::unique_ptr<hids::ThresholdHeuristic>> heuristics;
  heuristics.push_back(std::make_unique<hids::PercentileHeuristic>(0.99));
  heuristics.push_back(std::make_unique<hids::UtilityHeuristic>(utility_w));

  AlarmRateResult result;
  const auto groupers = canonical_groupers();
  for (const auto& g : groupers) result.policy_names.push_back(g->name());
  for (const auto& h : heuristics) {
    result.heuristic_names.push_back(h->name());
    std::vector<double> row;
    for (const auto& grouper : groupers) {
      const auto outcome = hids::evaluate_rounds(scenario.matrices, feature, rounds, *grouper,
                                                 *h, attack, 0, &scenario.analysis());
      row.push_back(static_cast<double>(outcome.total_false_alarms()));
    }
    result.alarms.push_back(std::move(row));
  }
  return result;
}

NaiveAttackResult naive_attack_curves(const Scenario& scenario, FeatureKind feature,
                                      std::uint32_t size_steps) {
  auto& cache = scenario.analysis();
  const auto rounds = canonical_rounds();
  const auto train = cache.week(feature, rounds.front().train_week);
  const auto test = cache.week(feature, rounds.front().test_week);
  const AttackModel attack = make_attack_model(scenario, feature, rounds.front().train_week);
  const hids::PercentileHeuristic p99(0.99);

  // Size grid: log-spaced to resolve the stealthy 1-100 range the paper
  // highlights, up to half the population maximum (the figure's x-range).
  const double max_size = hids::max_observed_value(*train) * 0.5;
  const auto sweep = hids::log_attack_sweep(1.0, std::max(2.0, max_size), size_steps);

  NaiveAttackResult result;
  result.sizes = sweep.sizes;
  for (const auto& grouper : canonical_groupers()) {
    const auto assignment =
        cache.thresholds(feature, rounds.front().train_week, *grouper, p99, &attack);
    result.policy_names.push_back(grouper->name());
    result.detection.push_back(
        hids::naive_detection_curve(*test, assignment->threshold_of_user, sweep.sizes));
  }
  return result;
}

ResourcefulAttackResult resourceful_attack(const Scenario& scenario, FeatureKind feature,
                                           double evasion_target) {
  auto& cache = scenario.analysis();
  const auto rounds = canonical_rounds();
  const auto train = cache.week(feature, rounds.front().train_week);
  const hids::PercentileHeuristic p99(0.99);
  const hids::ResourcefulAttacker attacker{evasion_target};

  ResourcefulAttackResult result;
  result.evasion_target = evasion_target;
  for (const auto& grouper : canonical_groupers()) {
    const auto assignment =
        cache.thresholds(feature, rounds.front().train_week, *grouper, p99, nullptr);
    result.policy_names.push_back(grouper->name());
    result.hidden_volumes.push_back(
        attacker.hidden_volumes(*train, assignment->threshold_of_user));
  }
  return result;
}

StormReplayResult storm_replay(const Scenario& scenario,
                               const trace::StormConfig& storm_config) {
  // The paper's real-attack analysis uses num-distinct-connections.
  const FeatureKind feature = FeatureKind::DistinctConnections;
  const auto rounds = canonical_rounds();
  const std::uint32_t train_week = rounds.front().train_week;
  const std::uint32_t test_week = rounds.front().test_week;

  trace::StormConfig cfg = storm_config;
  cfg.grid = scenario.config.generator.grid;
  const auto storm = trace::generate_storm_features(cfg);
  const auto storm_bins = storm.of(feature).values();

  auto& cache = scenario.analysis();
  const auto train = cache.week(feature, train_week);
  const hids::PercentileHeuristic p99(0.99);

  // All hosts share one bin grid, so the zombie week tiles over the test
  // week identically for every user and every grouper: build the attack
  // vector once up front instead of once per (user x grouper).
  MONOHIDS_EXPECT(scenario.user_count() > 0, "empty scenario");
  const std::size_t test_bins =
      scenario.matrices.front().of(feature).week_slice(test_week).size();
  std::vector<double> attack(test_bins);
  for (std::size_t i = 0; i < test_bins; ++i) {
    attack[i] = storm_bins[i % storm_bins.size()];
  }

  StormReplayResult result;
  for (const auto& grouper : canonical_groupers()) {
    const auto assignment = cache.thresholds(feature, train_week, *grouper, p99, nullptr);
    // Each host replays the zombie week against its own benign trace and
    // threshold — independent work, sharded across the pool.
    auto outcomes = util::parallel_map(scenario.user_count(), [&](std::size_t u) {
      const auto benign = scenario.matrices[u].of(feature).week_slice(test_week);
      return hids::evaluate_replay(benign, attack, assignment->threshold_of_user[u]);
    });
    result.policy_names.push_back(grouper->name());
    result.outcomes.push_back(std::move(outcomes));
  }
  return result;
}

GroupingAblationResult grouping_ablation(const Scenario& scenario, FeatureKind feature) {
  const auto rounds = canonical_rounds();
  const AttackModel attack = make_attack_model(scenario, feature, rounds.front().train_week);
  const double w = 0.4;
  const hids::UtilityHeuristic heuristic(w);

  std::vector<std::unique_ptr<hids::Grouper>> groupers;
  groupers.push_back(std::make_unique<hids::HomogeneousGrouper>());
  groupers.push_back(std::make_unique<hids::KneePartialGrouper>());
  groupers.push_back(std::make_unique<hids::KMeansGrouper>(8));
  groupers.push_back(std::make_unique<hids::EqualFrequencyGrouper>(8));
  groupers.push_back(std::make_unique<hids::FullDiversityGrouper>());

  GroupingAblationResult result;
  for (const auto& grouper : groupers) {
    const auto outcome = hids::evaluate_rounds(scenario.matrices, feature, rounds, *grouper,
                                               heuristic, attack, 0, &scenario.analysis());
    result.grouper_names.push_back(outcome.policy_name);
    result.mean_utility.push_back(outcome.mean_utility(w));
    result.weekly_alarms.push_back(static_cast<double>(outcome.total_false_alarms()));
  }

  // Silhouette analysis of k-means over log10(p99): the paper's finding is
  // that no k produces natural separation (silhouette stays low).
  const auto train = scenario.analysis().week(feature, rounds.front().train_week);
  std::vector<std::vector<double>> points;
  points.reserve(train->size());
  for (const auto& u : *train) {
    points.push_back({std::log10(std::max(1.0, u.quantile(0.99)))});
  }
  for (std::uint32_t k : {2u, 3u, 5u, 8u}) {
    util::Xoshiro256 rng(99);
    const auto clusters = stats::kmeans(points, k, rng);
    result.silhouette_k.push_back(k);
    result.silhouettes.push_back(stats::mean_silhouette(points, clusters.assignment, k));
  }
  return result;
}

ThresholdDriftResult threshold_drift(const Scenario& scenario, FeatureKind feature) {
  const auto rounds = canonical_rounds();
  const auto train = scenario.analysis().week(feature, rounds.front().train_week);
  const auto test = scenario.analysis().week(feature, rounds.front().test_week);

  ThresholdDriftResult result;
  result.realized_fp.reserve(train->size());
  std::size_t within = 0;
  for (std::size_t u = 0; u < train->size(); ++u) {
    const double t = (*train)[u].quantile(0.99);
    const double fp = (*test)[u].exceedance(t);
    result.realized_fp.push_back(fp);
    if (fp >= 0.005 && fp <= 0.02) ++within;
  }
  std::vector<double> sorted = result.realized_fp;
  std::sort(sorted.begin(), sorted.end());
  result.median_realized_fp = stats::quantile_interpolated_sorted(sorted, 0.5);
  result.fraction_within_2x =
      static_cast<double>(within) / static_cast<double>(train->size());
  return result;
}

hids::CollaborativeCurve collaboration_experiment(const Scenario& scenario,
                                                  FeatureKind feature,
                                                  const hids::CollaborativeConfig& config,
                                                  std::uint32_t size_steps) {
  auto& cache = scenario.analysis();
  const auto rounds = canonical_rounds();
  const auto train = cache.week(feature, rounds.front().train_week);
  const auto test = cache.week(feature, rounds.front().test_week);
  const hids::PercentileHeuristic p99(0.99);
  const auto assignment = cache.thresholds(feature, rounds.front().train_week,
                                           hids::FullDiversityGrouper{}, p99, nullptr);

  const double max_size = hids::max_observed_value(*train) * 0.5;
  const auto sweep = hids::log_attack_sweep(1.0, std::max(2.0, max_size), size_steps);
  return hids::collaborative_curve(*test, assignment->threshold_of_user, config, sweep.sizes);
}

}  // namespace monohids::sim
