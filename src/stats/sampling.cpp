#include "stats/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace monohids::stats {

LogNormalSampler::LogNormalSampler(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  MONOHIDS_EXPECT(sigma >= 0.0, "log-normal sigma must be non-negative");
}

double LogNormalSampler::median() const { return std::exp(mu_); }
double LogNormalSampler::mean() const { return std::exp(mu_ + sigma_ * sigma_ / 2.0); }

std::uint64_t sample_poisson(util::Xoshiro256& rng, double mean) {
  MONOHIDS_EXPECT(mean >= 0.0, "Poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth inversion
    const double limit = std::exp(-mean);
    double product = rng.uniform01();
    std::uint64_t k = 0;
    while (product > limit) {
      product *= rng.uniform01();
      ++k;
    }
    return k;
  }
  // Normal approximation with continuity correction; adequate for traffic
  // synthesis (relative error < 1% for mean >= 30).
  const double z = sample_standard_normal(rng);
  const double v = mean + std::sqrt(mean) * z + 0.5;
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

namespace batch {

namespace {

/// Word-space threshold for one CDF value: t = min(floor(cdf * 2^32),
/// 2^32 - 1). A word clears the threshold iff u = w / 2^32 > cdf, so
/// cdf >= 1 yields an uncrossable entry. The double-precision table build
/// IS the draw contract (the same thresholds on every platform with IEEE
/// doubles); distribution tests validate the rows against reference pmfs.
std::uint32_t cdf_threshold32(double cdf) noexcept {
  if (cdf >= 1.0) return 0xFFFFFFFFu;
  if (cdf <= 0.0) return 0;
  const double t = std::floor(cdf * 0x1.0p32);
  return t >= 0x1.0p32 ? 0xFFFFFFFFu : static_cast<std::uint32_t>(t);
}

/// cdf_row_scan's precondition. Holds by construction (each CDF is a
/// running sum of nonnegative terms and cdf_threshold32 is monotone);
/// checked once per row at table build.
bool row_is_nondecreasing(const std::uint32_t* row) noexcept {
  return std::is_sorted(row, row + kCdfRowLen);
}

}  // namespace

std::uint64_t poisson_normal_word32(std::uint32_t w, double mean) noexcept {
  double u = to_unit32(w);
  if (u <= 0.0) u = 0x1.0p-33;
  const double v = mean + std::sqrt(mean) * inverse_normal_cdf(u) + 0.5;
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

PoissonSumCdf::PoissonSumCdf(double mean_step, std::uint32_t stat_cap)
    : mean_step_(mean_step), stat_cap_(stat_cap) {
  MONOHIDS_EXPECT(mean_step > 0.0, "Poisson-sum mean step must be positive");
  MONOHIDS_EXPECT(stat_cap >= 1, "Poisson-sum table needs at least the zero row");
  MONOHIDS_EXPECT(mean_step * (stat_cap - 1) < kNormalCutoff32,
                  "Poisson-sum rows must stay below the normal cutoff");
  rows_.resize(static_cast<std::size_t>(stat_cap) * kCdfRowLen);
  for (std::uint32_t s = 0; s < stat_cap; ++s) {
    std::uint32_t* row = rows_.data() + static_cast<std::size_t>(s) * kCdfRowLen;
    const double mean = mean_step * static_cast<double>(s);
    double pk = std::exp(-mean), cum = pk;
    row[0] = cdf_threshold32(cum);
    for (std::size_t k = 1; k < kCdfRowLen; ++k) {
      pk *= mean * kInvK[k];
      cum += pk;
      row[k] = cdf_threshold32(cum);
    }
    MONOHIDS_EXPECT(row_is_nondecreasing(row), "Poisson-sum threshold row must be nondecreasing");
  }
}

BinomialCdf::BinomialCdf(double p) : p_(p) {
  MONOHIDS_EXPECT(p > 0.0 && p < 1.0, "Binomial success probability must be in (0, 1)");
  // Threshold rows for every n in the tabulated regime (np < cutoff), and
  // never longer than a row can hold (the row-scan clamp at kCdfRowLen
  // must stay unreachable: P(X > 47 | np < 12) < 1e-15).
  n_cap_ = std::min<std::uint32_t>(static_cast<std::uint32_t>(kNormalCutoff32 / p) + 1,
                                   1u << 14);
  const double q = 1.0 - p, podq = p / q;
  rows_.resize(static_cast<std::size_t>(n_cap_) * kCdfRowLen);
  for (std::uint32_t n = 0; n < n_cap_; ++n) {
    std::uint32_t* row = rows_.data() + static_cast<std::size_t>(n) * kCdfRowLen;
    double pk = 1.0;
    for (std::uint32_t j = 0; j < n; ++j) pk *= q;  // q^n
    double cum = pk;
    row[0] = cdf_threshold32(cum);
    for (std::size_t k = 1; k < kCdfRowLen; ++k) {
      if (k > n) {
        row[k] = 0xFFFFFFFFu;  // past the support: CDF is exactly 1
        continue;
      }
      pk *= static_cast<double>(n - k + 1) * kInvK[k] * podq;
      cum += pk;
      row[k] = cdf_threshold32(cum);
    }
    MONOHIDS_EXPECT(row_is_nondecreasing(row), "Binomial threshold row must be nondecreasing");
  }
}

ParetoCountTable::ParetoCountTable(double shape, std::uint32_t cap) : cap_(cap) {
  MONOHIDS_EXPECT(shape > 0.0, "Pareto shape must be positive");
  MONOHIDS_EXPECT(cap >= 1, "Pareto count cap must be at least 1");
  const double inv_shape = 1.0 / shape;
  // The direct (pow-based) count of word w, which the table must
  // reproduce exactly.
  const auto count_at = [&](std::uint64_t w) {
    double u = static_cast<double>(w) * 0x1.0p-32;
    if (u <= 0.0) u = 0x1.0p-53;
    const double v = 1.0 / std::pow(u, inv_shape);
    return static_cast<std::uint32_t>(std::min<double>(v, static_cast<double>(cap)));
  };
  constexpr std::uint64_t kWordCount = std::uint64_t{1} << 32;
  boundary_.resize(cap - 1);
  for (std::uint32_t k = 1; k < cap; ++k) {
    // Largest w with count >= k + 1; count is non-increasing in w and
    // count(0) = cap (the word 0 is guarded up to 2^-53), so the invariant
    // holds at lo = 0.
    std::uint64_t lo = 0, hi = kWordCount - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (count_at(mid) >= k + 1) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    boundary_[k - 1] = lo;
    // The boundary must be exact — both sides of it — or table counts
    // silently diverge from the pow path for rare draws.
    MONOHIDS_ENSURE(count_at(lo) >= k + 1, "Pareto boundary below its own count");
    MONOHIDS_ENSURE(lo + 1 >= kWordCount || count_at(lo + 1) < k + 1,
                    "Pareto boundary not tight");
  }
}

}  // namespace batch

std::uint64_t sample_uniform_int(util::Xoshiro256& rng, std::uint64_t lo, std::uint64_t hi) {
  MONOHIDS_EXPECT(lo <= hi, "uniform-int range is inverted");
  const std::uint64_t span = hi - lo + 1;  // span == 0 means the full 2^64 range
  if (span == 0) return rng();
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span + 1) % span;
  std::uint64_t draw;
  do {
    draw = rng();
  } while (draw > limit);
  return lo + draw % span;
}

}  // namespace monohids::stats
