#include "hids/roc.hpp"

#include "hids/heuristics.hpp"
#include "util/error.hpp"

namespace monohids::hids {

std::vector<RocPoint> roc_curve(const stats::EmpiricalDistribution& benign,
                                const AttackModel& attack) {
  MONOHIDS_EXPECT(!benign.empty(), "ROC needs benign observations");
  MONOHIDS_EXPECT(!attack.sizes.empty(), "ROC needs an attack model");

  // The operating curve ascends by threshold; the ROC emits it descending.
  const OperatingCurve ascending = operating_curve(benign, attack);
  std::vector<RocPoint> curve;
  curve.reserve(ascending.thresholds.size());
  for (std::size_t j = ascending.thresholds.size(); j-- > 0;) {
    RocPoint p;
    p.threshold = ascending.thresholds[j];
    p.fp_rate = ascending.fp[j];
    p.tp_rate = 1.0 - ascending.fn[j];
    curve.push_back(p);
  }
  return curve;
}

double roc_auc(const std::vector<RocPoint>& curve) {
  MONOHIDS_EXPECT(!curve.empty(), "empty ROC curve");
  double auc = 0.0;
  double prev_fp = 0.0, prev_tp = 0.0;
  for (const RocPoint& p : curve) {
    auc += (p.fp_rate - prev_fp) * (p.tp_rate + prev_tp) / 2.0;
    prev_fp = p.fp_rate;
    prev_tp = p.tp_rate;
  }
  // extend horizontally to FP = 1 at the last TP level
  auc += (1.0 - prev_fp) * (prev_tp + curve.back().tp_rate) / 2.0;
  return auc;
}

}  // namespace monohids::hids
