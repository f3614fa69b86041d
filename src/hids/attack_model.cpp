#include "hids/attack_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/error.hpp"

namespace monohids::hids {

double AttackModel::mean_fn(const stats::EmpiricalDistribution& g, double t) const {
  MONOHIDS_EXPECT(!sizes.empty(), "attack model has no sizes");
  MONOHIDS_EXPECT(!g.empty(), "cdf of empty distribution");
  // One walk over g's runs for the whole sweep: k = #runs at or below the
  // shifted query t - b, moved from the previous size's position (a sweep's
  // sizes ascend, so it only moves down). Each rank is exact and divided
  // by n as the per-call shifted_cdf does, and sizes below every sample
  // add the exact +0.0 of rank 0 and are skipped, so the size-ordered sum
  // is bit-identical to the per-call loop.
  const auto values = g.values();
  const auto cum = g.cumulative_counts();
  const auto n = static_cast<double>(g.size());
  std::size_t k = values.size();
  double acc = 0.0;
  for (const double b : sizes) {
    const double q = t - b;
    while (k > 0 && values[k - 1] > q) --k;
    while (k < values.size() && values[k] <= q) ++k;
    if (k != 0) acc += static_cast<double>(cum[k - 1]) / n;
  }
  return acc / static_cast<double>(sizes.size());
}

void AttackModel::mean_fn_batch(const stats::EmpiricalDistribution& g,
                                std::span<const double> thresholds,
                                std::span<double> out) const {
  MONOHIDS_EXPECT(!sizes.empty(), "attack model has no sizes");
  MONOHIDS_EXPECT(!g.empty(), "cdf of empty distribution");
  MONOHIDS_EXPECT(thresholds.size() == out.size(), "mean_fn_batch output size mismatch");
  assert(std::is_sorted(thresholds.begin(), thresholds.end()));
  if (thresholds.empty()) return;
  const std::size_t T = thresholds.size();
  const auto values = g.values();
  const auto cum = g.cumulative_counts();
  const std::size_t last = values.size() - 1;
  // Divide the cumulative counts by n once: frac[k] is exactly the quotient
  // the per-call path forms for rank cum[k], and the last run's is n/n = 1.
  const auto n = static_cast<double>(g.size());
  thread_local std::vector<double> frac;
  frac.resize(values.size());
  for (std::size_t k = 0; k < values.size(); ++k) {
    frac[k] = static_cast<double>(cum[k]) / n;
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (const double b : sizes) {
    // The shifted query t - b ascends with t. Thresholds whose query lies
    // below the smallest value rank 0 and would add +0.0, which leaves
    // every sum (never -0.0) unchanged, so the walk starts past them; once
    // the query reaches the last run, rank n adds 1.0. In between, k is
    // the last run at or below the query.
    std::size_t j = static_cast<std::size_t>(
        std::partition_point(thresholds.begin(), thresholds.end(),
                             [&](double t) { return !(t - b >= values[0]); }) -
        thresholds.begin());
    std::size_t k = 0;
    for (; j < T; ++j) {
      const double q = thresholds[j] - b;
      if (q >= values[last]) break;
      while (values[k + 1] <= q) ++k;
      out[j] += frac[k];
    }
    for (; j < T; ++j) out[j] += 1.0;
  }
  // Sums ran in size order, as in the per-call loop.
  const auto count = static_cast<double>(sizes.size());
  for (std::size_t j = 0; j < T; ++j) out[j] /= count;
}

AttackModel linear_attack_sweep(double max_size, std::uint32_t steps) {
  MONOHIDS_EXPECT(max_size > 0.0, "sweep needs a positive maximum");
  MONOHIDS_EXPECT(steps >= 2, "sweep needs at least two steps");
  AttackModel model;
  model.sizes.reserve(steps);
  for (std::uint32_t i = 1; i <= steps; ++i) {
    model.sizes.push_back(max_size * static_cast<double>(i) / static_cast<double>(steps));
  }
  return model;
}

AttackModel log_attack_sweep(double min_size, double max_size, std::uint32_t steps) {
  MONOHIDS_EXPECT(min_size > 0.0 && max_size > min_size, "need 0 < min < max");
  MONOHIDS_EXPECT(steps >= 2, "sweep needs at least two steps");
  AttackModel model;
  model.sizes.reserve(steps);
  const double ratio = std::log(max_size / min_size);
  for (std::uint32_t i = 0; i < steps; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(steps - 1);
    model.sizes.push_back(min_size * std::exp(ratio * f));
  }
  return model;
}

double max_observed_value(std::span<const stats::EmpiricalDistribution> users) {
  double best = 0.0;
  for (const auto& u : users) {
    if (!u.empty()) best = std::max(best, u.max());
  }
  MONOHIDS_EXPECT(best > 0.0, "no user has positive traffic for this feature");
  return best;
}

}  // namespace monohids::hids
