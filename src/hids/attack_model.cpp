#include "hids/attack_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/error.hpp"

namespace monohids::hids {

namespace {

/// Largest value the rank table indexes: the "small count" class that
/// stats::EmpiricalDistribution counts by histogram, so the table never
/// holds more than 65,536 doubles (512 KiB).
constexpr double kTableMax = 65535.0;

/// How many table slots one lookup may cost before the run walk is the
/// cheaper way to answer it. Filling a slot costs about 1.5 ns (the carry
/// below is a chain of dependent maxes); a lookup saves the walk's
/// data-dependent loop exit for its threshold. The table wins up to about
/// 2 slots per lookup (seeded sparse curves: 1.9 slots won, 3.7 lost;
/// every seed-42 host and pooled curve lies below 1.3).
constexpr double kSlotsPerLookup = 2.0;

/// Fills `tab[x]`, for every integer x in [0, g.max()], with the quotient
/// cum[k]/n of the last run k of `g` at or below x (0.0 below the smallest
/// value), formed exactly as the walk forms it. Returns false, and the
/// caller walks the runs instead, when a value of `g` is negative, above
/// kTableMax or not an integer, or the table would need more than
/// `max_slots` slots.
///
/// Why one load is exact: for an integer value v and a real q >= 0,
/// v <= q holds exactly when v <= floor(q), and static_cast<size_t>(q) is
/// floor(q). So for a query q in [g.min(), g.max()), tab[floor(q)] is the
/// quotient the walk adds.
bool fill_rank_table(const stats::EmpiricalDistribution& g, double max_slots,
                     std::vector<double>& tab) {
  const auto values = g.values();
  const auto cum = g.cumulative_counts();
  if (!(values.front() >= 0.0) || values.back() > kTableMax) return false;
  const std::size_t slots = static_cast<std::size_t>(values.back()) + 1;
  if (static_cast<double>(slots) > max_slots) return false;
  // Scatter each run's quotient into its slot, then carry it forward over
  // the empty slots: quotients rise with the value and empty slots hold
  // 0.0, so a running max carries the last run's quotient. Neither loop
  // branches on the data (a fill run by run mispredicts at every run).
  const auto n = static_cast<double>(g.size());
  tab.assign(slots, 0.0);
  bool integral = true;
  for (std::size_t k = 0; k < values.size(); ++k) {
    const auto x = static_cast<std::size_t>(values[k]);
    integral &= static_cast<double>(x) == values[k];
    tab[x] = static_cast<double>(cum[k]) / n;
  }
  if (!integral) return false;
  double carry = 0.0;
  for (double& slot : tab) {
    carry = std::max(carry, slot);
    slot = carry;
  }
  return true;
}

}  // namespace

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
  // Small counts read each rank's quotient from the table; anything else
  // walks the runs with frac[k]. Both hold exactly the quotient the
  // per-call path forms for rank cum[k], and the last run's is n/n = 1.
  thread_local std::vector<double> tab;
  const bool table =
      fill_rank_table(g, kSlotsPerLookup * static_cast<double>(sizes.size() * T), tab);
  thread_local std::vector<double> frac;
  if (!table) {
    const auto n = static_cast<double>(g.size());
    frac.resize(values.size());
    for (std::size_t k = 0; k < values.size(); ++k) {
      frac[k] = static_cast<double>(cum[k]) / n;
    }
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (const double b : sizes) {
    // The shifted query t - b ascends with t. Thresholds whose query lies
    // below the smallest value rank 0 and would add +0.0, which leaves
    // every sum (never -0.0) unchanged, so the sweep starts past them; once
    // the query reaches the last run, rank n adds 1.0. In between, the
    // table's slot floor(q), or the walk's k, is the last run at or below
    // the query.
    std::size_t j = static_cast<std::size_t>(
        std::partition_point(thresholds.begin(), thresholds.end(),
                             [&](double t) { return !(t - b >= values[0]); }) -
        thresholds.begin());
    if (table) {
      for (; j < T; ++j) {
        const double q = thresholds[j] - b;
        if (q >= values[last]) break;
        out[j] += tab[static_cast<std::size_t>(q)];
      }
    } else {
      std::size_t k = 0;
      for (; j < T; ++j) {
        const double q = thresholds[j] - b;
        if (q >= values[last]) break;
        while (values[k + 1] <= q) ++k;
        out[j] += frac[k];
      }
    }
    for (; j < T; ++j) out[j] += 1.0;
  }
  // Sums ran in size order, as in the per-call loop.
  const auto count = static_cast<double>(sizes.size());
  for (std::size_t j = 0; j < T; ++j) out[j] /= count;
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
