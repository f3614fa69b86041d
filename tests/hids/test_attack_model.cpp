#include "hids/attack_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/attack_sweep.hpp"
#include "util/error.hpp"

namespace monohids::hids {
namespace {

using stats::EmpiricalDistribution;
using test_support::linear_attack_sweep;

TEST(AttackModel, LinearSweepCoversRange) {
  const auto model = linear_attack_sweep(100.0, 10);
  ASSERT_EQ(model.sizes.size(), 10u);
  EXPECT_DOUBLE_EQ(model.sizes.front(), 10.0);
  EXPECT_DOUBLE_EQ(model.sizes.back(), 100.0);
  EXPECT_TRUE(std::is_sorted(model.sizes.begin(), model.sizes.end()));
}

TEST(AttackModel, LogSweepEmphasizesStealthySizes) {
  const auto model = log_attack_sweep(1.0, 1000.0, 30);
  ASSERT_EQ(model.sizes.size(), 30u);
  EXPECT_DOUBLE_EQ(model.sizes.front(), 1.0);
  EXPECT_NEAR(model.sizes.back(), 1000.0, 1e-9);
  // At least half the grid points lie below sqrt(min*max).
  const auto below = std::count_if(model.sizes.begin(), model.sizes.end(),
                                   [](double s) { return s < 31.7; });
  EXPECT_GE(below, 14);
}

TEST(AttackModel, InvalidSweepsAreErrors) {
  EXPECT_THROW((void)linear_attack_sweep(0.0, 10), PreconditionError);
  EXPECT_THROW((void)linear_attack_sweep(10.0, 1), PreconditionError);
  EXPECT_THROW((void)log_attack_sweep(0.0, 10.0, 5), PreconditionError);
  EXPECT_THROW((void)log_attack_sweep(10.0, 5.0, 5), PreconditionError);
}

TEST(AttackModel, MeanFnAveragesMissProbabilities) {
  const EmpiricalDistribution g(std::vector<double>{0.0, 0.0, 0.0, 0.0});  // silent host
  AttackModel model;
  model.sizes = {5.0, 15.0};
  // threshold 10: size-5 attack always missed (0+5 <= 10), size-15 always
  // detected -> mean FN = 0.5
  EXPECT_DOUBLE_EQ(model.mean_fn(g, 10.0), 0.5);
}

TEST(AttackModel, MeanFnZeroWhenEverythingDetected) {
  const EmpiricalDistribution g(std::vector<double>{100.0});
  AttackModel model;
  model.sizes = {1.0};
  EXPECT_DOUBLE_EQ(model.mean_fn(g, 50.0), 0.0);  // 100+1 > 50 always
}

TEST(AttackModel, MeanFnOneWhenThresholdUnreachable) {
  const EmpiricalDistribution g(std::vector<double>{1.0, 2.0});
  AttackModel model;
  model.sizes = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(model.mean_fn(g, 1000.0), 1.0);
}

TEST(AttackModel, MeanFnMonotoneInThreshold) {
  const EmpiricalDistribution g(std::vector<double>{1, 5, 10, 20, 50});
  const auto model = linear_attack_sweep(60.0, 20);
  double prev = -1.0;
  for (double t : {0.0, 10.0, 30.0, 80.0, 200.0}) {
    const double fn = model.mean_fn(g, t);
    EXPECT_GE(fn, prev);
    prev = fn;
  }
}

TEST(AttackModel, EmptyModelIsAnError) {
  const EmpiricalDistribution g(std::vector<double>{1.0});
  const AttackModel empty;
  EXPECT_THROW((void)empty.mean_fn(g, 1.0), PreconditionError);
}

TEST(AttackModel, MaxObservedValueScansAllUsers) {
  std::vector<EmpiricalDistribution> users;
  users.emplace_back(std::vector<double>{1.0, 2.0});
  users.emplace_back(std::vector<double>{500.0});
  users.emplace_back(std::vector<double>{3.0});
  EXPECT_DOUBLE_EQ(max_observed_value(users), 500.0);
}

TEST(AttackModel, AllSilentUsersAreAnError) {
  std::vector<EmpiricalDistribution> users;
  users.emplace_back(std::vector<double>{0.0, 0.0});
  EXPECT_THROW((void)max_observed_value(users), PreconditionError);
}

}  // namespace
}  // namespace monohids::hids
