// Threshold-selection heuristics (paper §4).
//
// A heuristic maps a (possibly pooled) training distribution to a single
// detector threshold. The paper examines percentile detectors (the
// IT-survey favorite: 99th percentile), mean + k·sigma outlier rules,
// F-measure-optimal and utility-optimal thresholds; the latter two need an
// attack model to estimate false negatives.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hids/attack_model.hpp"
#include "stats/empirical.hpp"

namespace monohids::hids {

class ThresholdHeuristic {
 public:
  virtual ~ThresholdHeuristic() = default;

  /// Computes a threshold from training data. `attack` may be null for
  /// heuristics that do not model false negatives; FN-aware heuristics
  /// throw PreconditionError when it is missing.
  [[nodiscard]] virtual double compute(const stats::EmpiricalDistribution& training,
                                       const AttackModel* attack) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Identity string for memoization (sim::AnalysisCache): two heuristics
  /// with the same cache_key MUST compute identical thresholds on identical
  /// input. Defaults to name(); parameterized heuristics override it to
  /// print every parameter round-trip exactly (name() rounds doubles to 6
  /// significant digits for display).
  [[nodiscard]] virtual std::string cache_key() const { return name(); }
};

/// A training distribution's false-positive / false-negative trade-off at
/// every candidate threshold (candidate_thresholds, ascending) against one
/// attack sweep. It does not depend on how FP and FN are weighed, so one
/// curve serves every utility weight and the F-measure. The vectors hold
/// exactly one slot per candidate (no spare capacity), so a retained curve
/// costs its point count and nothing more.
struct OperatingCurve {
  std::vector<double> thresholds;
  std::vector<double> fp;  ///< fp[j] = training.exceedance(thresholds[j])
  std::vector<double> fn;  ///< fn[j] = attack.mean_fn(training, thresholds[j])
};

/// Builds the operating curve from the training runs' cumulative counts
/// plus one batched FN sweep (AttackModel::mean_fn_batch); every point is
/// bit-identical to the per-threshold exceedance / mean_fn calls.
[[nodiscard]] OperatingCurve operating_curve(const stats::EmpiricalDistribution& training,
                                             const AttackModel& attack);

/// The points of `curve` a utility-weight selection can pick, in threshold
/// order: an ordered subsequence of the curve, sized exactly.
///
/// The loss L_j(w) = w·fn[j] + (1−w)·fp[j] is linear in w, so its lower
/// envelope H(w) = min_j L_j(w) is concave and piecewise linear, with kinks
/// at the weights where adjacent vertices of the (fp, fn) lower-left convex
/// hull tie. L_j − H is convex, so its minimum over [0, 1] lies at w = 0,
/// w = 1 or a kink. Point j stays iff that minimum is at most a fixed
/// slack far above stats::utility's rounding: every hull vertex, every
/// collinear point and every point within rounding of an edge stays. The
/// first maximum of UtilityHeuristic::select on the whole curve is
/// therefore kept, and every kept point before it scores strictly lower,
/// so select() on the hull returns the same threshold for every w in
/// [0, 1]. The F-measure is not linear in w and must not select on a hull.
///
/// Runs in O(n) on a curve whose fp never rises and whose fn never falls
/// with the threshold, as operating_curve's do; throws PreconditionError
/// otherwise. A curve from operating_curve keeps at least its last two
/// points (both have fp = 0, the w = 0 minimum).
[[nodiscard]] OperatingCurve utility_hull(const OperatingCurve& curve);

/// An FN-aware heuristic that picks its threshold from the operating curve
/// alone. compute() builds the curve and hands it to select(); callers that
/// already hold the curve call select() directly and get the same
/// threshold (sim::AnalysisCache memoizes utility hulls, see
/// utility_hull).
class CurveHeuristic : public ThresholdHeuristic {
 public:
  /// Throws PreconditionError when `attack` is null or has no sizes.
  [[nodiscard]] double compute(const stats::EmpiricalDistribution& training,
                               const AttackModel* attack) const final;

  /// The threshold this heuristic picks on `curve` (at least two points,
  /// as operating_curve always returns).
  [[nodiscard]] virtual double select(const OperatingCurve& curve) const = 0;
};

/// T = the q-th percentile of the training distribution. The paper's
/// operator survey found ~99th percentile to be the common choice: it caps
/// the training false-positive rate at 1 − q by construction.
class PercentileHeuristic final : public ThresholdHeuristic {
 public:
  explicit PercentileHeuristic(double q);
  [[nodiscard]] double compute(const stats::EmpiricalDistribution& training,
                               const AttackModel* attack) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;
  [[nodiscard]] double percentile() const noexcept { return q_; }

 private:
  double q_;
};

/// T = mean + k·sigma of the training distribution.
class MeanSigmaHeuristic final : public ThresholdHeuristic {
 public:
  explicit MeanSigmaHeuristic(double k);
  [[nodiscard]] double compute(const stats::EmpiricalDistribution& training,
                               const AttackModel* attack) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;

 private:
  double k_;
};

/// T maximizing the F-measure of attack detection on the training data:
/// positives are (training + b) samples for each attack size b, negatives
/// are the raw training samples.
class FMeasureHeuristic final : public CurveHeuristic {
 public:
  FMeasureHeuristic() = default;
  [[nodiscard]] double select(const OperatingCurve& curve) const override;
  [[nodiscard]] std::string name() const override;
};

/// T maximizing the paper's utility U(T) = 1 − [w·FN(T) + (1−w)·FP(T)]
/// estimated on the training data (Fig. 3's "utility heuristic", default
/// w = 0.4).
class UtilityHeuristic final : public CurveHeuristic {
 public:
  explicit UtilityHeuristic(double w);
  [[nodiscard]] double select(const OperatingCurve& curve) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;
  [[nodiscard]] double weight() const noexcept { return w_; }

 private:
  double w_;
};

/// Candidate thresholds shared by the optimizing heuristics: the unique
/// training values plus one step beyond the maximum, with no spare
/// capacity.
[[nodiscard]] std::vector<double> candidate_thresholds(
    const stats::EmpiricalDistribution& training);

}  // namespace monohids::hids
