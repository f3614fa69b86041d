#include "hids/roc.hpp"

#include <gtest/gtest.h>

#include "support/attack_sweep.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

using stats::EmpiricalDistribution;
using test_support::linear_attack_sweep;

EmpiricalDistribution uniform(double lo, double hi, int n = 4000) {
  util::Xoshiro256 rng(31);
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(lo + rng.uniform01() * (hi - lo));
  return EmpiricalDistribution(std::move(v));
}

TEST(Roc, CurveIsMonotoneFromNeverAlarmToAlwaysAlarm) {
  const auto benign = uniform(0, 100);
  const auto attack = linear_attack_sweep(100.0, 10);
  const auto curve = roc_curve(benign, attack);
  ASSERT_GE(curve.size(), 2u);
  double prev_fp = -1, prev_tp = -1;
  for (const auto& p : curve) {
    EXPECT_GE(p.fp_rate, prev_fp);
    EXPECT_GE(p.tp_rate, prev_tp - 1e-12);
    prev_fp = p.fp_rate;
    prev_tp = p.tp_rate;
  }
  EXPECT_DOUBLE_EQ(curve.front().fp_rate, 0.0);  // sentinel threshold
  EXPECT_NEAR(curve.back().fp_rate, 1.0, 1e-3);
}

TEST(Roc, DetectorDominatesChanceOnSeparableProblem) {
  // Attacks comparable to the traffic scale: better than random guessing.
  const auto benign = uniform(0, 100);
  const auto attack = linear_attack_sweep(200.0, 20);
  const double auc = roc_auc(roc_curve(benign, attack));
  EXPECT_GT(auc, 0.7);
  EXPECT_LE(auc, 1.0 + 1e-12);
}

TEST(Roc, TinyAttacksAreNearChance) {
  // Attacks far below traffic noise: AUC approaches 0.5.
  const auto benign = uniform(0, 10000);
  const auto attack = linear_attack_sweep(10.0, 10);
  const double auc = roc_auc(roc_curve(benign, attack));
  EXPECT_NEAR(auc, 0.5, 0.08);
}

TEST(Roc, HugeAttacksAreNearPerfect) {
  const auto benign = uniform(0, 10);
  AttackModel attack;
  attack.sizes = {1000.0};
  const double auc = roc_auc(roc_curve(benign, attack));
  EXPECT_GT(auc, 0.99);
}

TEST(Roc, EmptyInputsAreErrors) {
  const auto benign = uniform(0, 10, 10);
  const AttackModel empty;
  EXPECT_THROW((void)roc_curve(benign, empty), PreconditionError);
  EXPECT_THROW((void)roc_auc({}), PreconditionError);
}

}  // namespace
}  // namespace monohids::hids
