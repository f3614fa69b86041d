#include "hids/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "stats/classification.hpp"
#include "util/error.hpp"

namespace monohids::hids {
std::vector<double> candidate_thresholds(const stats::EmpiricalDistribution& training) {
  MONOHIDS_EXPECT(!training.empty(), "cannot derive candidates from empty training data");
  std::vector<double> candidates;
  const auto samples = training.samples();
  // Count first so the vector is exactly sized: a pooled arena holds
  // ~10^5 samples but only ~10^3 distinct values, and memoized operating
  // curves keep this vector.
  std::size_t distinct = 1;
  for (std::size_t i = 1; i < samples.size(); ++i) distinct += samples[i] != samples[i - 1];
  candidates.reserve(distinct + 1);
  for (double v : samples) {
    if (candidates.empty() || candidates.back() != v) candidates.push_back(v);
  }
  candidates.push_back(training.max() + 1.0);  // "never alarm" endpoint
  return candidates;
}

// Candidate thresholds are ascending (candidate_thresholds emits distinct
// training values in order), so one exceedance merge-scan plus one batched
// FN sweep replaces the 2 * |candidates| binary-search calls of the
// per-threshold loop. Both fill-ins are bit-identical to the per-call
// operations, so select() picks the same threshold as the per-threshold
// seed loop (kept as a test oracle in tests/oracle).
OperatingCurve operating_curve(const stats::EmpiricalDistribution& training,
                               const AttackModel& attack) {
  OperatingCurve curve;
  curve.thresholds = candidate_thresholds(training);
  curve.fp.resize(curve.thresholds.size());
  curve.fn.resize(curve.thresholds.size());
  training.exceedance_batch(curve.thresholds, curve.fp);
  attack.mean_fn_batch(training, curve.thresholds, curve.fn);
  return curve;
}

double CurveHeuristic::compute(const stats::EmpiricalDistribution& training,
                               const AttackModel* attack) const {
  MONOHIDS_EXPECT(attack != nullptr && !attack->sizes.empty(),
                  name() + " heuristic requires an attack model");
  return select(operating_curve(training, *attack));
}

PercentileHeuristic::PercentileHeuristic(double q) : q_(q) {
  MONOHIDS_EXPECT(q > 0.0 && q < 1.0, "percentile must be in (0,1)");
}

double PercentileHeuristic::compute(const stats::EmpiricalDistribution& training,
                                    const AttackModel* /*attack*/) const {
  return training.quantile(q_);
}

std::string PercentileHeuristic::name() const {
  std::ostringstream os;
  os << "percentile-" << q_ * 100.0;
  return os.str();
}

std::string PercentileHeuristic::cache_key() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);  // keys must not round
  os << "percentile-q" << q_;
  return os.str();
}

MeanSigmaHeuristic::MeanSigmaHeuristic(double k) : k_(k) {
  MONOHIDS_EXPECT(k >= 0.0, "sigma multiplier must be non-negative");
}

double MeanSigmaHeuristic::compute(const stats::EmpiricalDistribution& training,
                                   const AttackModel* /*attack*/) const {
  return training.mean() + k_ * training.stddev();
}

std::string MeanSigmaHeuristic::name() const {
  std::ostringstream os;
  os << "mean+" << k_ << "sigma";
  return os.str();
}

std::string MeanSigmaHeuristic::cache_key() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);  // keys must not round
  os << "mean+" << k_ << "sigma";
  return os.str();
}

// The selection loops start from the training maximum, which is the
// second-to-last candidate (the last is the "never alarm" endpoint).
double FMeasureHeuristic::select(const OperatingCurve& curve) const {
  MONOHIDS_EXPECT(curve.thresholds.size() >= 2, "operating curve needs two points");
  double best_t = curve.thresholds.end()[-2];
  double best_f = -1.0;
  for (std::size_t j = 0; j < curve.thresholds.size(); ++j) {
    // Precision/recall over the implied labelled set: every (benign sample)
    // is a negative; every (benign + b) is a positive, uniformly over b.
    const double tp = 1.0 - curve.fn[j];  // per-positive mass detected
    const double fp = curve.fp[j];        // per-negative mass alarmed
    const double prec = (tp + fp) > 0.0 ? tp / (tp + fp) : 0.0;
    const double rec = tp;
    const double f = (prec + rec) > 0.0 ? 2.0 * prec * rec / (prec + rec) : 0.0;
    if (f > best_f) {
      best_f = f;
      best_t = curve.thresholds[j];
    }
  }
  return best_t;
}

std::string FMeasureHeuristic::name() const { return "f-measure"; }

UtilityHeuristic::UtilityHeuristic(double w) : w_(w) {
  MONOHIDS_EXPECT(w >= 0.0 && w <= 1.0, "utility weight must be in [0,1]");
}

double UtilityHeuristic::select(const OperatingCurve& curve) const {
  MONOHIDS_EXPECT(curve.thresholds.size() >= 2, "operating curve needs two points");
  double best_t = curve.thresholds.end()[-2];
  double best_u = -2.0;
  for (std::size_t j = 0; j < curve.thresholds.size(); ++j) {
    const double u = stats::utility(curve.fn[j], curve.fp[j], w_);
    if (u > best_u) {
      best_u = u;
      best_t = curve.thresholds[j];
    }
  }
  return best_t;
}

std::string UtilityHeuristic::name() const {
  std::ostringstream os;
  os << "utility-w" << w_;
  return os.str();
}

std::string UtilityHeuristic::cache_key() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);  // keys must not round
  os << "utility-w" << w_;
  return os.str();
}

}  // namespace monohids::hids
