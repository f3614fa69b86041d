// Library-vs-oracle identity for every consumer rewired onto the
// stats::kernels layer. The library answers sweeps with merge scans, grid
// passes and counting sorts; the seed's per-call loops live in
// tests/oracle. Bitwise-equal results here are the contract that keeps
// AnalysisCache memoization valid: a cached artifact must not depend on
// which path produced it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hids/attack_model.hpp"
#include "hids/attacker.hpp"
#include "hids/detector.hpp"
#include "hids/evaluator.hpp"
#include "hids/heuristics.hpp"
#include "hids/roc.hpp"
#include "oracle/per_call.hpp"
#include "stats/empirical.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

using stats::EmpiricalDistribution;

/// Count-like traffic samples (small integers, heavy ties) — the regime the
/// counting fast paths trigger on, same as real bin counts.
std::vector<double> count_samples(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = static_cast<double>(rng() % 60);
  return v;
}

/// Continuous samples — exercises the comparison-sort / heap-merge fallback
/// alongside the batched rank kernels.
std::vector<double> continuous_samples(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform01() * 80.0;
  return v;
}

/// Runs `library` and `oracle` once each, asserting bitwise-equal results.
template <typename Library, typename Oracle>
void expect_oracle_identity(Library&& library, Oracle&& oracle, const char* what) {
  EXPECT_EQ(library(), oracle()) << what << " diverges from the per-call oracle";
}

std::vector<double> samples_of(const EmpiricalDistribution& d) {
  return std::vector<double>(d.samples().begin(), d.samples().end());
}

std::vector<double> flatten(const std::vector<RocPoint>& curve) {
  std::vector<double> flat;
  for (const RocPoint& p : curve) {
    flat.push_back(p.threshold);
    flat.push_back(p.fp_rate);
    flat.push_back(p.tp_rate);
  }
  return flat;
}

TEST(KernelRewire, ArenaSortIsBitIdentical) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    expect_oracle_identity(
        [&] { return samples_of(EmpiricalDistribution(count_samples(seed, 700))); },
        [&] { return oracle::sort_samples(count_samples(seed, 700)); },
        "EmpiricalDistribution counting sort");
    expect_oracle_identity(
        [&] { return samples_of(EmpiricalDistribution(continuous_samples(seed, 700))); },
        [&] { return oracle::sort_samples(continuous_samples(seed, 700)); },
        "EmpiricalDistribution comparison sort");
  }
}

TEST(KernelRewire, PooledMergeIsBitIdentical) {
  std::vector<EmpiricalDistribution> parts;
  for (std::uint64_t s = 0; s < 6; ++s) {
    parts.emplace_back(count_samples(100 + s, 300));
  }
  std::vector<std::span<const double>> spans;
  for (const auto& p : parts) spans.push_back(p.samples());
  expect_oracle_identity([&] { return samples_of(EmpiricalDistribution::merge(parts)); },
                         [&] { return oracle::merge_sorted(spans); },
                         "pooled counting merge");
}

TEST(KernelRewire, MeanFnIsBitIdentical) {
  const EmpiricalDistribution g(count_samples(7, 2000));
  const AttackModel attack = linear_attack_sweep(60.0, 64);
  const std::vector<double> thresholds = {0.0, 7.0, 13.5, 40.0, 59.0, 61.0};
  const auto sweep = [&](auto&& fn) {
    std::vector<double> out;
    for (double t : thresholds) out.push_back(fn(t));
    return out;
  };
  expect_oracle_identity(
      [&] { return sweep([&](double t) { return attack.mean_fn(g, t); }); },
      [&] { return sweep([&](double t) { return oracle::mean_fn(attack, g, t); }); },
      "AttackModel::mean_fn");
}

TEST(KernelRewire, MeanFnBatchMatchesPerCallSeedPath) {
  const EmpiricalDistribution g(continuous_samples(8, 1500));
  const AttackModel attack = linear_attack_sweep(80.0, 64);
  const auto thresholds = candidate_thresholds(g);
  expect_oracle_identity(
      [&] {
        std::vector<double> batched(thresholds.size());
        attack.mean_fn_batch(g, thresholds, batched);
        return batched;
      },
      [&] {
        std::vector<double> reference;
        for (double t : thresholds) reference.push_back(oracle::mean_fn(attack, g, t));
        return reference;
      },
      "AttackModel::mean_fn_batch");
}

TEST(KernelRewire, OptimizingHeuristicsPickTheSameThreshold) {
  const EmpiricalDistribution g(count_samples(11, 3000));
  const AttackModel attack = linear_attack_sweep(60.0, 64);
  const FMeasureHeuristic fmeasure;
  expect_oracle_identity([&] { return fmeasure.compute(g, &attack); },
                         [&] { return oracle::fmeasure_threshold(g, attack); },
                         "FMeasureHeuristic");
  // The extreme weights tie many candidates (w = 0: every threshold at or
  // above the maximum has zero false positives), so they pin the
  // first-maximum tie-break too. The hull the analysis cache memoizes must
  // pick the same threshold as the whole curve.
  for (int i = 0; i <= 10; ++i) {
    const double w = i / 10.0;
    const UtilityHeuristic utility(w);
    expect_oracle_identity([&] { return utility.compute(g, &attack); },
                           [&] { return oracle::utility_threshold(g, attack, w); },
                           "UtilityHeuristic");
    expect_oracle_identity(
        [&] { return utility.select(utility_hull(operating_curve(g, attack))); },
        [&] { return oracle::utility_threshold(g, attack, w); },
        "UtilityHeuristic on the utility hull");
  }
}

TEST(KernelRewire, RocCurveIsBitIdentical) {
  const EmpiricalDistribution g(count_samples(13, 2500));
  const AttackModel attack = linear_attack_sweep(60.0, 32);
  expect_oracle_identity([&] { return flatten(roc_curve(g, attack)); },
                         [&] { return flatten(oracle::roc_curve(g, attack)); }, "roc_curve");
}

TEST(KernelRewire, NaiveDetectionCurveIsBitIdentical) {
  std::vector<EmpiricalDistribution> users;
  std::vector<double> thresholds;
  for (std::uint64_t u = 0; u < 12; ++u) {
    users.emplace_back(count_samples(200 + u, 800));
    thresholds.push_back(users.back().quantile(0.95));
  }
  const AttackModel attack = linear_attack_sweep(60.0, 64);
  expect_oracle_identity(
      [&] { return naive_detection_curve(users, thresholds, attack.sizes, 2); },
      [&] { return oracle::naive_detection_curve(users, thresholds, attack.sizes); },
      "naive_detection_curve");
}

TEST(KernelRewire, ReplayOutcomeIsBitIdentical) {
  util::Xoshiro256 rng(17);
  std::vector<double> benign(4000), attack(4000);
  for (std::size_t i = 0; i < benign.size(); ++i) {
    benign[i] = static_cast<double>(rng() % 40);
    attack[i] = (rng() % 4 == 0) ? static_cast<double>(1 + rng() % 20) : 0.0;
  }
  const auto flat = [](const ReplayOutcome& out) {
    return std::vector<double>{out.fp_rate, out.detection_rate};
  };
  expect_oracle_identity([&] { return flat(evaluate_replay(benign, attack, 30.0)); },
                         [&] { return flat(oracle::evaluate_replay(benign, attack, 30.0)); },
                         "evaluate_replay");
}

TEST(KernelRewire, JointAlarmRateIsBitIdentical) {
  features::FeatureMatrix m;
  util::Xoshiro256 rng(19);
  for (auto& s : m.series) {
    s = features::BinnedSeries(util::BinGrid::minutes(15), util::kMicrosPerWeek);
    for (std::size_t b = 0; b < s.bin_count(); ++b) {
      s.set(b, static_cast<double>(rng() % 25));
    }
  }
  std::array<double, features::kFeatureCount> thresholds{};
  for (auto& t : thresholds) t = static_cast<double>(10 + rng() % 10);
  const auto flat = [](const JointAlarmOutcome& out) {
    std::vector<double> v{out.joint_fp_rate, out.sum_of_marginals};
    v.insert(v.end(), out.per_feature.begin(), out.per_feature.end());
    return v;
  };
  expect_oracle_identity([&] { return flat(joint_alarm_rate(m, 0, thresholds)); },
                         [&] { return flat(oracle::joint_alarm_rate(m, 0, thresholds)); },
                         "joint_alarm_rate");
}

TEST(KernelRewire, DetectorAlarmCountIsBitIdentical) {
  util::Xoshiro256 rng(23);
  std::vector<double> bins(5000);
  for (double& v : bins) v = static_cast<double>(rng() % 50);
  const ThresholdDetector det(37.0);
  expect_oracle_identity([&] { return det.count_alarms(bins); },
                         [&] { return oracle::count_alarms(det, bins); },
                         "ThresholdDetector::count_alarms");
}

}  // namespace
}  // namespace monohids::hids
