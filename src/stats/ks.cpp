#include "stats/ks.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace monohids::stats {

double ks_statistic(std::span<const double> a, std::span<const double> b) {
  MONOHIDS_EXPECT(!a.empty() && !b.empty(), "KS needs two non-empty samples");
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());

  // Merge-walk both sorted samples, tracking the CDF gap at every step.
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

double ks_statistic(const EmpiricalDistribution& a, const EmpiricalDistribution& b) {
  MONOHIDS_EXPECT(!a.empty() && !b.empty(), "KS needs two non-empty samples");
  // The same merge-walk over runs: each step jumps a whole run, and the
  // cumulative counts are the ranks the sample walk reaches at that value.
  const auto va = a.values();
  const auto vb = b.values();
  const auto ca = a.cumulative_counts();
  const auto cb = b.cumulative_counts();
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t ia = 0, ib = 0;
  double d = 0.0;
  while (ia < va.size() && ib < vb.size()) {
    const double x = std::min(va[ia], vb[ib]);
    if (va[ia] <= x) ++ia;
    if (vb[ib] <= x) ++ib;
    const double ra = ia == 0 ? 0.0 : static_cast<double>(ca[ia - 1]);
    const double rb = ib == 0 ? 0.0 : static_cast<double>(cb[ib - 1]);
    d = std::max(d, std::fabs(ra / na - rb / nb));
  }
  return d;
}

}  // namespace monohids::stats
