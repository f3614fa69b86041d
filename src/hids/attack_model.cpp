#include "hids/attack_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/kernels.hpp"
#include "util/error.hpp"

namespace monohids::hids {

double AttackModel::mean_fn(const stats::EmpiricalDistribution& g, double t) const {
  MONOHIDS_EXPECT(!sizes.empty(), "attack model has no sizes");
  if (!g.empty() && sizes.size() >= 8) {
    // One batched rank call for the whole sweep instead of one binary
    // search per size. The shifted queries t - b are the exact subtractions
    // the per-call path feeds to cdf, and ranks are exact integers, so the
    // size-ordered accumulation below reproduces the seed sum bit-for-bit.
    thread_local std::vector<double> queries;
    thread_local std::vector<std::uint32_t> ranks;
    queries.resize(sizes.size());
    ranks.resize(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) queries[i] = t - sizes[i];
    g.rank_batch(queries, ranks);
    const auto n = static_cast<double>(g.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      acc += static_cast<double>(ranks[i]) / n;
    }
    return acc / static_cast<double>(sizes.size());
  }
  double acc = 0.0;
  for (double b : sizes) acc += g.shifted_cdf(b, t);
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
  const std::size_t S = sizes.size();
  const auto n = static_cast<double>(g.size());
  const auto count = static_cast<double>(S);
  if (const auto table = g.rank_table(); !table.empty()) {
    // Integer-count samples: every rank is a table load, so divide the K+1
    // cumulative counts by n once (frac[k] is exactly the quotient the
    // per-call path forms for rank cum[k]; ranks 0 and n divide to exactly
    // 0 and 1) and add each size's quotient to every threshold's sum, in
    // size order — the same additions as the per-call loop, bit-for-bit.
    thread_local std::vector<double> frac;
    frac.resize(table.size());
    for (std::size_t k = 0; k < table.size(); ++k) {
      frac[k] = static_cast<double>(table[k]) / n;
    }
    const auto table_end = static_cast<double>(table.size());
    std::fill(out.begin(), out.end(), 0.0);
    for (const double b : sizes) {
      // The shifted query t - b ascends with t. Thresholds below b rank 0
      // and would add +0.0, which leaves every sum (never -0.0) unchanged,
      // so they are skipped; once t - b passes the table, rank n adds 1.0.
      std::size_t j = static_cast<std::size_t>(
          std::partition_point(thresholds.begin(), thresholds.end(),
                               [b](double t) { return !(t - b >= 0.0); }) -
          thresholds.begin());
      for (; j < T; ++j) {
        const double q = thresholds[j] - b;
        if (q >= table_end) break;
        out[j] += frac[static_cast<std::size_t>(q)];
      }
      for (; j < T; ++j) out[j] += 1.0;
    }
    for (std::size_t j = 0; j < T; ++j) out[j] /= count;
    return;
  }
  thread_local std::vector<std::uint32_t> ranks;
  ranks.resize(T * S);
  stats::kernels::rank_grid(g.samples(), thresholds, sizes, ranks.data());
  std::fill(out.begin(), out.end(), 0.0);
  // Per-threshold accumulation in size order — the same floating-point
  // operation sequence as the per-call loop, so sums match bit-for-bit.
  for (std::size_t s = 0; s < S; ++s) {
    const std::uint32_t* row = ranks.data() + s * T;
    for (std::size_t j = 0; j < T; ++j) {
      out[j] += static_cast<double>(row[j]) / n;
    }
  }
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
