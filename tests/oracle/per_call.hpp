// Per-call seed loops: the test oracles for every batched evaluation path.
//
// The library answers threshold sweeps and detector loops with batched
// kernels (merge-scans, rank grids, rank tables, counting sorts). Each
// function here is the seed computation those paths replaced, written only
// with the library's per-call API — EmpiricalDistribution::cdf,
// exceedance and shifted_cdf, ThresholdDetector::alarms — one call per
// threshold, size or bin. Every library entry point must return
// bit-identical output (tests/hids/test_kernel_rewire.cpp,
// tests/stats/test_kernels.cpp, bench/micro_kernels). Linked only by tests
// and A/B benches.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "features/time_series.hpp"
#include "hids/attack_model.hpp"
#include "hids/detector.hpp"
#include "hids/evaluator.hpp"
#include "hids/roc.hpp"
#include "stats/empirical.hpp"

namespace monohids::oracle {

/// Ascending comparison sort: the arena order EmpiricalDistribution builds.
[[nodiscard]] std::vector<double> sort_samples(std::vector<double> samples);

/// Merge of ascending parts by pairwise std::merge: the pooled arena
/// stats::merge_sorted_spans builds. Any correct merge is bitwise determined
/// except for the relative order of tied -0.0/+0.0, which count data never
/// holds.
[[nodiscard]] std::vector<double> merge_sorted(std::span<const std::span<const double>> parts);

/// out[j] = #{v in sorted : v <= xs[j]}, one std::upper_bound per query.
[[nodiscard]] std::vector<std::uint32_t> upper_bound_ranks(std::span<const double> sorted,
                                                           std::span<const double> xs);

/// AttackModel::mean_fn as one shifted_cdf call per attack size.
[[nodiscard]] double mean_fn(const hids::AttackModel& attack,
                             const stats::EmpiricalDistribution& g, double t);

/// FMeasureHeuristic::compute: one exceedance and one per-size mean_fn per
/// candidate threshold.
[[nodiscard]] double fmeasure_threshold(const stats::EmpiricalDistribution& training,
                                        const hids::AttackModel& attack);

/// UtilityHeuristic(w).compute: one exceedance and one per-size mean_fn per
/// candidate threshold.
[[nodiscard]] double utility_threshold(const stats::EmpiricalDistribution& training,
                                       const hids::AttackModel& attack, double w);

/// hids::roc_curve: per-threshold exceedance and mean_fn, thresholds
/// descending.
[[nodiscard]] std::vector<hids::RocPoint> roc_curve(const stats::EmpiricalDistribution& benign,
                                                    const hids::AttackModel& attack);

/// hids::naive_detection_curve: per (size, user) shifted_cdf, averaged over
/// users in user order.
[[nodiscard]] std::vector<double> naive_detection_curve(
    std::span<const stats::EmpiricalDistribution> test_users,
    std::span<const double> thresholds, std::span<const double> sizes);

/// hids::evaluate_replay as one compare per bin.
[[nodiscard]] hids::ReplayOutcome evaluate_replay(std::span<const double> benign_test_bins,
                                                  std::span<const double> attack_bins,
                                                  double threshold);

/// hids::joint_alarm_rate as one compare per (bin, feature).
[[nodiscard]] hids::JointAlarmOutcome joint_alarm_rate(
    const features::FeatureMatrix& matrix, std::uint32_t week,
    const std::array<double, features::kFeatureCount>& thresholds);

/// ThresholdDetector::count_alarms as one alarms() call per bin.
[[nodiscard]] std::uint64_t count_alarms(const hids::ThresholdDetector& detector,
                                         std::span<const double> bins);

}  // namespace monohids::oracle
