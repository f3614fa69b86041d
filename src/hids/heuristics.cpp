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
  const auto values = training.values();
  // Exactly sized: memoized operating curves keep this vector.
  std::vector<double> candidates;
  candidates.reserve(values.size() + 1);
  candidates.assign(values.begin(), values.end());
  candidates.push_back(training.max() + 1.0);  // "never alarm" endpoint
  return candidates;
}

// Candidate j < K is the training distribution's j-th run value, so its
// false-positive rate is 1 - cum[j]/n, and the "never alarm" endpoint is
// past every sample (1 - n/n). These are the exact operations per-call
// exceedance() performs; with one batched FN sweep they replace the
// 2 * |candidates| binary-search calls of the per-threshold loop, so
// select() picks the same threshold as the per-threshold seed loop (kept
// as a test oracle in tests/oracle).
OperatingCurve operating_curve(const stats::EmpiricalDistribution& training,
                               const AttackModel& attack) {
  OperatingCurve curve;
  curve.thresholds = candidate_thresholds(training);
  const std::size_t count = curve.thresholds.size();
  curve.fp.resize(count);
  curve.fn.resize(count);
  const auto cum = training.cumulative_counts();
  const auto n = static_cast<double>(training.size());
  for (std::size_t j = 0; j < cum.size(); ++j) {
    curve.fp[j] = 1.0 - static_cast<double>(cum[j]) / n;
  }
  curve.fp[count - 1] = 1.0 - n / n;
  attack.mean_fn_batch(training, curve.thresholds, curve.fn);
  return curve;
}

namespace {

/// How far above the lower envelope a point may lie and still be kept:
/// far above the few-ulp rounding of stats::utility on rates in [0, 1],
/// far below any real gap between operating points.
constexpr double kHullSlack = 1e-9;

}  // namespace

OperatingCurve utility_hull(const OperatingCurve& curve) {
  const std::size_t n = curve.thresholds.size();
  MONOHIDS_EXPECT(n > 0 && curve.fp.size() == n && curve.fn.size() == n,
                  "operating curve must be non-empty with equal-length columns");
  for (std::size_t j = 1; j < n; ++j) {
    MONOHIDS_EXPECT(curve.fp[j] <= curve.fp[j - 1] && curve.fn[j] >= curve.fn[j - 1],
                    "operating curve must have fp falling and fn rising with the threshold");
  }
  const auto loss = [&](std::size_t j, double w) {
    return w * curve.fn[j] + (1.0 - w) * curve.fp[j];
  };

  // Vertices of the lower-left convex hull with strictly falling fn
  // (Andrew's monotone chain; collinear points are not vertices). Walking
  // the thresholds down visits the points by ascending fp.
  thread_local std::vector<std::size_t> chain;
  chain.clear();
  for (std::size_t j = n; j-- > 0;) {
    if (!chain.empty() && curve.fn[j] >= curve.fn[chain.back()]) continue;
    while (chain.size() >= 2) {
      const std::size_t o = chain.end()[-2];
      const std::size_t a = chain.back();
      const double cross = (curve.fp[a] - curve.fp[o]) * (curve.fn[j] - curve.fn[o]) -
                           (curve.fn[a] - curve.fn[o]) * (curve.fp[j] - curve.fp[o]);
      if (cross > 0.0) break;
      chain.pop_back();
    }
    chain.push_back(j);
  }

  // On [kink[k], kink[k + 1]] the envelope H is chain[k]'s loss, with
  // kink[0] = 0, kink[K] = 1 and kink[k] the weight where chain[k − 1] and
  // chain[k] tie. L_j − H is convex with slope (fn − fp of j) − (fn − fp of
  // chain[k]) on piece k, and the chain's fn − fp falls with k, so the
  // minimum lies at the first kink whose vertex has fn − fp at most j's.
  // j's fn − fp rises with the threshold, so one pass walks that kink
  // leftwards. Where rounding flips a comparison, L_j − H is flat to within
  // rounding between the two kinks. Each kink's envelope is the lower loss
  // of its two vertices: a vertex the chain lost to rounding only raises
  // it, which keeps more points, never fewer.
  const std::size_t vertices = chain.size();
  const auto slope = [&](std::size_t j) { return curve.fn[j] - curve.fp[j]; };
  thread_local std::vector<double> kink;
  thread_local std::vector<double> envelope;
  kink.assign(vertices + 1, 0.0);
  envelope.resize(vertices + 1);
  kink[vertices] = 1.0;
  for (std::size_t k = 1; k < vertices; ++k) {
    const double dfp = curve.fp[chain[k]] - curve.fp[chain[k - 1]];
    const double dfn = curve.fn[chain[k - 1]] - curve.fn[chain[k]];
    kink[k] = dfp / (dfp + dfn);
  }
  for (std::size_t k = 0; k <= vertices; ++k) {
    const std::size_t before = chain[k > 0 ? k - 1 : 0];
    const std::size_t after = chain[k < vertices ? k : vertices - 1];
    envelope[k] = std::min(loss(before, kink[k]), loss(after, kink[k]));
  }

  thread_local std::vector<std::size_t> kept;
  kept.clear();
  std::size_t k = vertices;
  for (std::size_t j = 0; j < n; ++j) {
    while (k > 0 && slope(chain[k - 1]) <= slope(j)) --k;
    if (loss(j, kink[k]) - envelope[k] <= kHullSlack) kept.push_back(j);
  }

  OperatingCurve hull;
  hull.thresholds.reserve(kept.size());
  hull.fp.reserve(kept.size());
  hull.fn.reserve(kept.size());
  for (const std::size_t j : kept) {
    hull.thresholds.push_back(curve.thresholds[j]);
    hull.fp.push_back(curve.fp[j]);
    hull.fn.push_back(curve.fn[j]);
  }
  return hull;
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
