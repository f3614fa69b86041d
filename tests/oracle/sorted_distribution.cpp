#include "oracle/sorted_distribution.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "oracle/per_call.hpp"
#include "stats/quantile.hpp"
#include "util/error.hpp"

namespace monohids::oracle {

SortedDistribution::SortedDistribution(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

SortedDistribution SortedDistribution::merge(std::span<const SortedDistribution> parts) {
  std::vector<std::span<const double>> spans;
  for (const auto& p : parts) spans.push_back(p.samples());
  return SortedDistribution(merge_sorted(spans));
}

std::vector<double> SortedDistribution::distinct_values() const {
  std::vector<double> values;
  for (double v : sorted_) {
    if (values.empty() || values.back() != v) values.push_back(v);
  }
  return values;
}

std::vector<std::uint32_t> SortedDistribution::cumulative_counts() const {
  std::vector<std::uint32_t> cum;
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    if (i == 0 || sorted_[i] != sorted_[i - 1]) cum.push_back(0);
    cum.back() = static_cast<std::uint32_t>(i + 1);
  }
  return cum;
}

double SortedDistribution::mean() const {
  return std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
         static_cast<double>(sorted_.size());
}

double SortedDistribution::variance() const {
  const double m = mean();
  double acc = 0.0;
  for (double v : sorted_) acc += (v - m) * (v - m);
  return acc / static_cast<double>(sorted_.size());
}

std::uint32_t SortedDistribution::rank(double x) const {
  return static_cast<std::uint32_t>(std::upper_bound(sorted_.begin(), sorted_.end(), x) -
                                    sorted_.begin());
}

double SortedDistribution::cdf(double x) const {
  return static_cast<double>(rank(x)) / static_cast<double>(sorted_.size());
}

double SortedDistribution::exceedance(double x) const { return 1.0 - cdf(x); }

double SortedDistribution::shifted_cdf(double shift, double t) const {
  return cdf(t - shift);
}

double SortedDistribution::quantile(double q) const {
  return stats::quantile_nearest_rank_sorted(sorted_, q);
}

double SortedDistribution::quantile_interpolated(double q) const {
  return stats::quantile_interpolated_sorted(sorted_, q);
}

double SortedDistribution::max_hidden_shift(double t, double target_mass) const {
  return std::max(0.0, t - quantile(target_mass));
}

double SortedDistribution::mean_fn(const hids::AttackModel& attack, double t) const {
  double acc = 0.0;
  for (double b : attack.sizes) acc += shifted_cdf(b, t);
  return acc / static_cast<double>(attack.sizes.size());
}

double ks_statistic(std::span<const double> a, std::span<const double> b) {
  MONOHIDS_EXPECT(!a.empty() && !b.empty(), "KS needs two non-empty samples");
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());

  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  std::size_t ia = 0, ib = 0;
  double d = 0.0;
  while (ia < sa.size() && ib < sb.size()) {
    const double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
    d = std::max(d, std::fabs(static_cast<double>(ia) / na -
                              static_cast<double>(ib) / nb));
  }
  return d;
}

}  // namespace monohids::oracle
