#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace monohids::stats {

double quantile_nearest_rank_sorted(std::span<const double> sorted, double q) {
  MONOHIDS_EXPECT(!sorted.empty(), "quantile of an empty sample");
  MONOHIDS_EXPECT(q >= 0.0 && q <= 1.0, "quantile probability must be in [0,1]");
  if (q == 0.0) return sorted.front();
  const auto n = sorted.size();
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return sorted[std::min(rank, n) - 1];
}

double quantile_interpolated_sorted(std::span<const double> sorted, double q) {
  MONOHIDS_EXPECT(!sorted.empty(), "quantile of an empty sample");
  MONOHIDS_EXPECT(q >= 0.0 && q <= 1.0, "quantile probability must be in [0,1]");
  const auto n = sorted.size();
  if (n == 1) return sorted[0];
  const double h = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, n - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

namespace {
std::vector<double> sorted_copy(std::span<const double> samples) {
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  return v;
}
}  // namespace

double quantile_nearest_rank(std::span<const double> samples, double q) {
  const auto v = sorted_copy(samples);
  return quantile_nearest_rank_sorted(v, q);
}

}  // namespace monohids::stats
