#include "oracle/per_call.hpp"

#include <algorithm>
#include <functional>

#include "hids/heuristics.hpp"
#include "stats/classification.hpp"

namespace monohids::oracle {

std::vector<double> merge_sorted(std::span<const std::span<const double>> parts) {
  // Rounds of adjacent pairs, so a pool of k parts costs log2(k) passes
  // over its samples rather than k.
  std::vector<std::vector<double>> level;
  for (const auto& part : parts) level.emplace_back(part.begin(), part.end());
  if (level.empty()) return {};
  while (level.size() > 1) {
    std::vector<std::vector<double>> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      auto& merged = next.emplace_back(level[i].size() + level[i + 1].size());
      std::merge(level[i].begin(), level[i].end(), level[i + 1].begin(), level[i + 1].end(),
                 merged.begin());
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level.swap(next);
  }
  return std::move(level.front());
}

std::vector<std::uint32_t> upper_bound_ranks(std::span<const double> sorted,
                                             std::span<const double> xs) {
  std::vector<std::uint32_t> ranks;
  ranks.reserve(xs.size());
  for (double x : xs) {
    ranks.push_back(static_cast<std::uint32_t>(
        std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin()));
  }
  return ranks;
}

double mean_fn(const hids::AttackModel& attack, const stats::EmpiricalDistribution& g,
               double t) {
  double acc = 0.0;
  for (double b : attack.sizes) acc += g.shifted_cdf(b, t);
  return acc / static_cast<double>(attack.sizes.size());
}

double fmeasure_threshold(const stats::EmpiricalDistribution& training,
                          const hids::AttackModel& attack) {
  double best_t = training.max();
  double best_f = -1.0;
  for (double t : hids::candidate_thresholds(training)) {
    const double tp = 1.0 - mean_fn(attack, training, t);
    const double fp = training.exceedance(t);
    const double prec = (tp + fp) > 0.0 ? tp / (tp + fp) : 0.0;
    const double rec = tp;
    const double f = (prec + rec) > 0.0 ? 2.0 * prec * rec / (prec + rec) : 0.0;
    if (f > best_f) {
      best_f = f;
      best_t = t;
    }
  }
  return best_t;
}

double utility_threshold(const stats::EmpiricalDistribution& training,
                         const hids::AttackModel& attack, double w) {
  double best_t = training.max();
  double best_u = -2.0;
  for (double t : hids::candidate_thresholds(training)) {
    const double u = stats::utility(mean_fn(attack, training, t), training.exceedance(t), w);
    if (u > best_u) {
      best_u = u;
      best_t = t;
    }
  }
  return best_t;
}

std::vector<hids::RocPoint> roc_curve(const stats::EmpiricalDistribution& benign,
                                      const hids::AttackModel& attack) {
  auto thresholds = hids::candidate_thresholds(benign);
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  std::vector<hids::RocPoint> curve;
  curve.reserve(thresholds.size());
  for (double t : thresholds) {
    hids::RocPoint p;
    p.threshold = t;
    p.fp_rate = benign.exceedance(t);
    p.tp_rate = 1.0 - mean_fn(attack, benign, t);
    curve.push_back(p);
  }
  return curve;
}

std::vector<double> naive_detection_curve(
    std::span<const stats::EmpiricalDistribution> test_users,
    std::span<const double> thresholds, std::span<const double> sizes) {
  std::vector<double> curve;
  curve.reserve(sizes.size());
  for (double size : sizes) {
    double acc = 0.0;
    for (std::size_t u = 0; u < test_users.size(); ++u) {
      acc += 1.0 - test_users[u].shifted_cdf(size, thresholds[u]);
    }
    curve.push_back(acc / static_cast<double>(test_users.size()));
  }
  return curve;
}

hids::ReplayOutcome evaluate_replay(std::span<const double> benign_test_bins,
                                    std::span<const double> attack_bins, double threshold) {
  std::uint64_t benign_alarms = 0;
  std::uint64_t attacked_bins = 0;
  std::uint64_t detected = 0;
  for (std::size_t i = 0; i < benign_test_bins.size(); ++i) {
    if (benign_test_bins[i] > threshold) ++benign_alarms;
    if (attack_bins[i] > 0.0) {
      ++attacked_bins;
      if (benign_test_bins[i] + attack_bins[i] > threshold) ++detected;
    }
  }
  hids::ReplayOutcome out;
  out.fp_rate = static_cast<double>(benign_alarms) /
                static_cast<double>(benign_test_bins.size());
  out.detection_rate = attacked_bins == 0
                           ? 0.0
                           : static_cast<double>(detected) / static_cast<double>(attacked_bins);
  return out;
}

hids::JointAlarmOutcome joint_alarm_rate(
    const features::FeatureMatrix& matrix, std::uint32_t week,
    const std::array<double, features::kFeatureCount>& thresholds) {
  std::array<std::span<const double>, features::kFeatureCount> slices;
  for (features::FeatureKind f : features::kAllFeatures) {
    slices[features::index_of(f)] = matrix.of(f).week_slice(week);
  }
  const std::size_t bins = slices[0].size();
  std::uint64_t joint = 0;
  std::array<std::uint64_t, features::kFeatureCount> marginal{};
  for (std::size_t b = 0; b < bins; ++b) {
    bool any = false;
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      if (slices[i][b] > thresholds[i]) {
        ++marginal[i];
        any = true;
      }
    }
    if (any) ++joint;
  }
  hids::JointAlarmOutcome outcome;
  outcome.joint_fp_rate = static_cast<double>(joint) / static_cast<double>(bins);
  for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
    outcome.per_feature[i] = static_cast<double>(marginal[i]) / static_cast<double>(bins);
    outcome.sum_of_marginals += outcome.per_feature[i];
  }
  return outcome;
}

std::uint64_t count_alarms(const hids::ThresholdDetector& detector,
                           std::span<const double> bins) {
  std::uint64_t count = 0;
  for (double v : bins) {
    if (detector.alarms(v)) ++count;
  }
  return count;
}

}  // namespace monohids::oracle
