#include "hids/evaluator.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace monohids::hids {

namespace {

/// Publishes one finished policy evaluation: an evaluation counter, the
/// aggregate weekly false-alarm volume, and a per-policy alarm series (the
/// registry's answer to "which policy is drowning the console"). Policy
/// names are few and registration is idempotent, so the by-name lookup per
/// evaluation is cheap relative to the sweep it accounts for.
void publish_policy_outcome(const PolicyOutcome& outcome) {
  if constexpr (!obs::kEnabled) return;
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter evaluations = registry.counter("evaluator.policy_evaluations_total");
  static obs::Counter alarms = registry.counter("evaluator.false_alarms_total");
  obs::Counter per_policy =
      registry.counter("evaluator.false_alarms.policy." + outcome.policy_name);
  evaluations.inc();
  const std::uint64_t total = outcome.total_false_alarms();
  alarms.add(total);
  per_policy.add(total);
}

}  // namespace

std::vector<stats::EmpiricalDistribution> week_distributions(
    std::span<const features::FeatureMatrix> users, features::FeatureKind feature,
    std::uint32_t week, unsigned threads) {
  return util::parallel_map(
      users.size(),
      [&](std::size_t u) {
        const auto slice = users[u].of(feature).week_slice(week);
        MONOHIDS_EXPECT(!slice.empty(), "requested week is outside the trace horizon");
        return stats::EmpiricalDistribution(std::vector<double>(slice.begin(), slice.end()));
      },
      threads);
}

std::vector<double> PolicyOutcome::utilities(double w) const {
  std::vector<double> out;
  out.reserve(users.size());
  for (const auto& u : users) out.push_back(u.utility(w));
  return out;
}

double PolicyOutcome::mean_utility(double w) const {
  MONOHIDS_EXPECT(!users.empty(), "no users evaluated");
  double acc = 0.0;
  for (const auto& u : users) acc += u.utility(w);
  return acc / static_cast<double>(users.size());
}

std::uint64_t PolicyOutcome::total_false_alarms() const {
  std::uint64_t acc = 0;
  for (const auto& u : users) acc += u.weekly_false_alarms;
  return acc;
}

PolicyOutcome evaluate_policy(std::span<const stats::EmpiricalDistribution> train,
                              std::span<const stats::EmpiricalDistribution> test,
                              const Grouper& grouper, const ThresholdHeuristic& heuristic,
                              const AttackModel& attack, unsigned threads) {
  const ThresholdAssignment assignment =
      assign_thresholds(train, grouper, heuristic, &attack, threads);
  return evaluate_policy(train, test, assignment, grouper.name(), heuristic.name(), attack,
                         threads);
}

PolicyOutcome evaluate_policy(std::span<const stats::EmpiricalDistribution> train,
                              std::span<const stats::EmpiricalDistribution> test,
                              const ThresholdAssignment& assignment, std::string policy_name,
                              std::string heuristic_name, const AttackModel& attack,
                              unsigned threads) {
  MONOHIDS_EXPECT(train.size() == test.size(), "train/test population mismatch");
  MONOHIDS_EXPECT(assignment.threshold_of_user.size() == train.size(),
                  "assignment covers a different population");

  PolicyOutcome outcome;
  outcome.policy_name = std::move(policy_name);
  outcome.heuristic_name = std::move(heuristic_name);
  outcome.users.resize(train.size());
  // Per-user operating points are independent; each shard writes only its
  // own UserOutcome slot.
  util::parallel_for(
      train.size(),
      [&](std::size_t u) {
        UserOutcome& r = outcome.users[u];
        r.threshold = assignment.threshold_of_user[u];
        r.group = assignment.groups.group_of_user[u];
        r.fp_rate = test[u].exceedance(r.threshold);
        r.fn_rate = attack.mean_fn(test[u], r.threshold);
        r.weekly_false_alarms = static_cast<std::uint64_t>(
            std::llround(r.fp_rate * static_cast<double>(test[u].size())));
      },
      threads);
  publish_policy_outcome(outcome);
  return outcome;
}

PolicyOutcome evaluate_rounds(std::span<const features::FeatureMatrix> users,
                              features::FeatureKind feature,
                              std::span<const EvaluationRound> rounds, const Grouper& grouper,
                              const ThresholdHeuristic& heuristic, const AttackModel& attack,
                              unsigned threads, DistributionCache* cache) {
  MONOHIDS_EXPECT(!rounds.empty(), "need at least one evaluation round");
  PolicyOutcome merged;
  std::vector<double> fp(users.size(), 0.0), fn(users.size(), 0.0), alarms(users.size(), 0.0);

  for (const EvaluationRound& round : rounds) {
    // Shared pointers keep cache-owned distribution sets alive across the
    // round even if the cache is concurrently queried elsewhere.
    std::shared_ptr<const DistributionCache::DistributionSet> train_held, test_held;
    std::vector<stats::EmpiricalDistribution> train_built, test_built;
    std::shared_ptr<const ThresholdAssignment> assignment_held;

    std::span<const stats::EmpiricalDistribution> train, test;
    if (cache != nullptr) {
      train_held = cache->week(feature, round.train_week, threads);
      test_held = cache->week(feature, round.test_week, threads);
      MONOHIDS_EXPECT(train_held->size() == users.size(),
                      "cache covers a different population");
      train = *train_held;
      test = *test_held;
      assignment_held =
          cache->thresholds(feature, round.train_week, grouper, heuristic, &attack, threads);
    } else {
      train_built = week_distributions(users, feature, round.train_week, threads);
      test_built = week_distributions(users, feature, round.test_week, threads);
      train = train_built;
      test = test_built;
    }
    PolicyOutcome one =
        assignment_held != nullptr
            ? evaluate_policy(train, test, *assignment_held, grouper.name(),
                              heuristic.name(), attack, threads)
            : evaluate_policy(train, test, grouper, heuristic, attack, threads);
    for (std::size_t u = 0; u < users.size(); ++u) {
      fp[u] += one.users[u].fp_rate;
      fn[u] += one.users[u].fn_rate;
      alarms[u] += static_cast<double>(one.users[u].weekly_false_alarms);
    }
    merged = std::move(one);  // keep last round's thresholds/groups/names
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

ReplayOutcome evaluate_replay(std::span<const double> benign_test_bins,
                              std::span<const double> attack_bins, double threshold) {
  MONOHIDS_EXPECT(benign_test_bins.size() == attack_bins.size(),
                  "benign/attack bin count mismatch");
  MONOHIDS_EXPECT(!benign_test_bins.empty(), "empty test window");

  std::uint64_t benign_alarms = 0;
  std::uint64_t attacked_bins = 0;
  std::uint64_t detected = 0;
  for (std::size_t i = 0; i < benign_test_bins.size(); ++i) {
    const double benign = benign_test_bins[i];
    if (benign > threshold) ++benign_alarms;
    if (attack_bins[i] > 0.0) {
      ++attacked_bins;
      if (benign + attack_bins[i] > threshold) ++detected;
    }
  }
  ReplayOutcome out;
  out.fp_rate = static_cast<double>(benign_alarms) /
                static_cast<double>(benign_test_bins.size());
  out.detection_rate = attacked_bins == 0
                           ? 0.0
                           : static_cast<double>(detected) / static_cast<double>(attacked_bins);
  return out;
}

JointAlarmOutcome joint_alarm_rate(
    const features::FeatureMatrix& matrix, std::uint32_t week,
    const std::array<double, features::kFeatureCount>& thresholds) {
  JointAlarmOutcome outcome;
  const auto reference = matrix.series.front().week_slice(week);
  MONOHIDS_EXPECT(!reference.empty(), "week outside the matrix horizon");
  const std::size_t bins = reference.size();

  std::array<std::span<const double>, features::kFeatureCount> slices;
  for (features::FeatureKind f : features::kAllFeatures) {
    slices[features::index_of(f)] = matrix.of(f).week_slice(week);
  }

  std::uint64_t joint = 0;
  std::array<std::uint64_t, features::kFeatureCount> marginal{};
  for (std::size_t b = 0; b < bins; ++b) {
    bool any = false;
    for (std::size_t f = 0; f < features::kFeatureCount; ++f) {
      if (slices[f][b] > thresholds[f]) {
        ++marginal[f];
        any = true;
      }
    }
    if (any) ++joint;
  }
  outcome.joint_fp_rate = static_cast<double>(joint) / static_cast<double>(bins);
  for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
    outcome.per_feature[i] = static_cast<double>(marginal[i]) / static_cast<double>(bins);
    outcome.sum_of_marginals += outcome.per_feature[i];
  }
  return outcome;
}

}  // namespace monohids::hids
