// ROC analysis of threshold detectors.
//
// The paper fixes thresholds with heuristics and reports one operating
// point per policy; a library user choosing their own trade-off wants the
// whole curve. roc_curve() sweeps every candidate threshold over a benign
// distribution and an additive attack model, yielding (FP, TP) pairs and
// the area under the curve — also the machinery behind comparing heuristics
// at a glance (every heuristic picks one point on this curve).
#pragma once

#include <vector>

#include "hids/attack_model.hpp"

namespace monohids::hids {

struct RocPoint {
  double threshold = 0.0;
  double fp_rate = 0.0;  ///< P(benign bin alarms)
  double tp_rate = 0.0;  ///< mean over the attack sweep of P(attacked bin alarms)
};

/// operating_curve(benign, attack) emitted by descending threshold with
/// tp = 1 - fn, so FP/TP rise monotonically from (0,0)-ish toward (1,1).
/// Includes the "never alarm" sentinel endpoint.
[[nodiscard]] std::vector<RocPoint> roc_curve(const stats::EmpiricalDistribution& benign,
                                              const AttackModel& attack);

/// Area under the ROC curve by trapezoidal integration over the curve's FP
/// range, extended to FP = 1 at the maximal TP. 0.5 = chance, 1 = perfect.
[[nodiscard]] double roc_auc(const std::vector<RocPoint>& curve);

}  // namespace monohids::hids
