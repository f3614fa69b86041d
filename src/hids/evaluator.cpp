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
void publish_policy_alarms(const std::string& policy_name, std::uint64_t total) {
  if constexpr (!obs::kEnabled) return;
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter evaluations = registry.counter("evaluator.policy_evaluations_total");
  static obs::Counter alarms = registry.counter("evaluator.false_alarms_total");
  obs::Counter per_policy = registry.counter("evaluator.false_alarms.policy." + policy_name);
  evaluations.inc();
  alarms.add(total);
  per_policy.add(total);
}

/// User `u`'s operating point on its test week under `assignment`.
UserOutcome operating_point(const stats::EmpiricalDistribution& test,
                            const ThresholdAssignment& assignment, std::size_t u,
                            const AttackModel& attack) {
  UserOutcome r;
  r.threshold = assignment.threshold_of_user[u];
  r.group = assignment.groups.group_of_user[u];
  r.fp_rate = test.exceedance(r.threshold);
  r.fn_rate = attack.mean_fn(test, r.threshold);
  r.weekly_false_alarms = static_cast<std::uint64_t>(
      std::llround(r.fp_rate * static_cast<double>(test.size())));
  return r;
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
        return stats::EmpiricalDistribution(slice);
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
        outcome.users[u] = operating_point(test[u], assignment, u, attack);
      },
      threads);
  publish_policy_alarms(outcome.policy_name, outcome.total_false_alarms());
  return outcome;
}

PolicyOutcome evaluate_rounds(std::span<const features::FeatureMatrix> users,
                              features::FeatureKind feature,
                              std::span<const EvaluationRound> rounds, const Grouper& grouper,
                              const ThresholdHeuristic& heuristic, const AttackModel& attack,
                              unsigned threads, DistributionCache* cache) {
  MONOHIDS_EXPECT(!rounds.empty(), "need at least one evaluation round");
  // Every round's inputs are fetched (or built) before the sweep, so the
  // cache is never entered from inside the pool; the shared pointers keep
  // cache-owned sets alive through it.
  struct RoundInputs {
    std::shared_ptr<const DistributionCache::DistributionSet> train, test;
    std::shared_ptr<const ThresholdAssignment> assignment;
  };
  std::vector<RoundInputs> inputs(rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const EvaluationRound& round = rounds[r];
    RoundInputs& in = inputs[r];
    if (cache != nullptr) {
      in.train = cache->week(feature, round.train_week, threads);
      in.test = cache->week(feature, round.test_week, threads);
      MONOHIDS_EXPECT(in.train->size() == users.size(), "cache covers a different population");
      in.assignment =
          cache->thresholds(feature, round.train_week, grouper, heuristic, &attack, threads);
    } else {
      in.train = std::make_shared<const DistributionCache::DistributionSet>(
          week_distributions(users, feature, round.train_week, threads));
      in.test = std::make_shared<const DistributionCache::DistributionSet>(
          week_distributions(users, feature, round.test_week, threads));
      in.assignment = std::make_shared<const ThresholdAssignment>(
          assign_thresholds(*in.train, grouper, heuristic, &attack, threads));
    }
    MONOHIDS_EXPECT(in.train->size() == in.test->size(), "train/test population mismatch");
    MONOHIDS_EXPECT(in.assignment->threshold_of_user.size() == in.train->size(),
                    "assignment covers a different population");
  }

  PolicyOutcome merged;
  merged.policy_name = grouper.name();
  merged.heuristic_name = heuristic.name();
  merged.users.resize(users.size());
  const std::size_t round_count = rounds.size();
  // Each round's alarm counts, user-major, for the per-round metrics.
  std::vector<std::uint64_t> alarms_of;
  if constexpr (obs::kEnabled) alarms_of.resize(users.size() * round_count);
  // One sweep over users runs every round: each user's rounds accumulate in
  // round order, as separate per-round sweeps summed them (fp = 0 + r0 + r1
  // ..., alarm counts summed as doubles), and the threshold and group are
  // the last round's.
  util::parallel_for(
      users.size(),
      [&](std::size_t u) {
        double fp = 0.0, fn = 0.0, alarms = 0.0;
        UserOutcome last;
        for (std::size_t r = 0; r < round_count; ++r) {
          last = operating_point((*inputs[r].test)[u], *inputs[r].assignment, u, attack);
          fp += last.fp_rate;
          fn += last.fn_rate;
          alarms += static_cast<double>(last.weekly_false_alarms);
          if constexpr (obs::kEnabled) {
            alarms_of[u * round_count + r] = last.weekly_false_alarms;
          }
        }
        const auto n = static_cast<double>(round_count);
        last.fp_rate = fp / n;
        last.fn_rate = fn / n;
        last.weekly_false_alarms = static_cast<std::uint64_t>(std::llround(alarms / n));
        merged.users[u] = last;
      },
      threads);

  if constexpr (obs::kEnabled) {
    for (std::size_t r = 0; r < round_count; ++r) {
      std::uint64_t total = 0;
      for (std::size_t u = 0; u < users.size(); ++u) total += alarms_of[u * round_count + r];
      publish_policy_alarms(merged.policy_name, total);
    }
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
