// Heavy-tailed samplers used by the synthetic trace generator.
//
// The population substitute for the paper's proprietary 350-host traces is
// built from log-normal user-intensity meta-distributions and Pareto session
// sizes — the standard models for enterprise traffic tails. The per-call
// samplers below draw from any uniform01() engine (Xoshiro256 for population
// building and Storm overlays, Philox4x32 for episode streams). The batch
// namespace holds the scenario contract's one-word samplers, Pareto session
// sizes (ParetoCountTable) included: each consumes exactly one 32-bit Philox
// word per draw.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {

/// Standard normal via Box–Muller (single value; the pair's second half is
/// discarded for simplicity — generation speed is not the bottleneck).
/// Templated on the engine: any uniform01() source works, and the
/// arithmetic is identical either way — only the draw grain differs.
template <typename Engine>
[[nodiscard]] double sample_standard_normal(Engine& rng) {
  double u1 = rng.uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = rng.uniform01();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

/// Exponential with the given rate (> 0).
template <typename Engine>
[[nodiscard]] double sample_exponential(Engine& rng, double rate) {
  MONOHIDS_EXPECT(rate > 0.0, "exponential rate must be positive");
  double u = rng.uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

/// Log-normal: ln X ~ N(mu, sigma^2).
class LogNormalSampler {
 public:
  LogNormalSampler(double mu, double sigma);
  template <typename Engine>
  [[nodiscard]] double sample(Engine& rng) const {
    return std::exp(mu_ + sigma_ * sample_standard_normal(rng));
  }
  [[nodiscard]] double median() const;
  [[nodiscard]] double mean() const;

 private:
  double mu_, sigma_;
};

/// Poisson sampler (inversion for small mean, PTRS-ish normal approximation
/// cutoff for large mean). Used for per-bin event counts.
[[nodiscard]] std::uint64_t sample_poisson(util::Xoshiro256& rng, double mean);

/// Uniform integer in [lo, hi] inclusive.
[[nodiscard]] std::uint64_t sample_uniform_int(util::Xoshiro256& rng, std::uint64_t lo,
                                               std::uint64_t hi);

// ---------------------------------------------------------------------------
// One-word samplers of the scenario contract.
//
// The trace generator's inner loop issues hundreds of millions of draws per
// scenario. Every draw here consumes exactly one 32-bit Philox word w, read
// as u = to_unit32(w) = w * 2^-32 (exact for every w), so a bin's word
// layout is fixed in advance and its words can be generated in one wide
// kernel pass. The libm work (exp, threshold rows) is precomputed once;
// the per-draw step is an integer row scan or a short FP walk.

namespace batch {

/// The double the contract derives from a raw 32-bit word (exact).
[[nodiscard]] inline double to_unit32(std::uint32_t w) noexcept {
  return static_cast<double>(w) * 0x1.0p-32;
}

/// The contract's normal-approximation cutoff: mean 12, where a single
/// inverse-CDF normal word already beats a mean-length inversion chain
/// (the chain is a serial FP dependency, ~mean x 5 cycles) and the
/// approximation error is still below the model's own fidelity (the paper
/// works on binned counts an order of magnitude coarser).
inline constexpr double kNormalCutoff32 = 12.0;

/// Reciprocal table shared by the single-word inversion samplers below:
/// k-th factorial ratios become multiplies instead of serial divides.
inline constexpr std::size_t kInvKSize = 256;
inline constexpr auto kInvK = [] {
  std::array<double, kInvKSize> inv{};
  for (std::size_t k = 1; k < kInvKSize; ++k) inv[k] = 1.0 / static_cast<double>(k);
  return inv;
}();

/// Acklam's rational approximation of the standard normal inverse CDF
/// (max absolute error ~1.15e-9 — far below the synthesis model's own
/// fidelity). One uniform word in, one z out: the v2 contract's normal
/// draw, replacing the two-word Box–Muller pair so every v2 draw consumes
/// EXACTLY one 32-bit word regardless of regime.
[[nodiscard]] inline double inverse_normal_cdf(double u) noexcept {
  constexpr double a0 = -3.969683028665376e+01, a1 = 2.209460984245205e+02;
  constexpr double a2 = -2.759285104469687e+02, a3 = 1.383577518672690e+02;
  constexpr double a4 = -3.066479806614716e+01, a5 = 2.506628277459239e+00;
  constexpr double b0 = -5.447609879822406e+01, b1 = 1.615858368580409e+02;
  constexpr double b2 = -1.556989798598866e+02, b3 = 6.680131188771972e+01;
  constexpr double b4 = -1.328068155288572e+01;
  constexpr double c0 = -7.784894002430293e-03, c1 = -3.223964580411365e-01;
  constexpr double c2 = -2.400758277161838e+00, c3 = -2.549732539343734e+00;
  constexpr double c4 = 4.374664141464968e+00, c5 = 2.938163982698783e+00;
  constexpr double d0 = 7.784695709041462e-03, d1 = 3.224671290700398e-01;
  constexpr double d2 = 2.445134137142996e+00, d3 = 3.754408661907416e+00;
  constexpr double plow = 0.02425;
  if (u < plow) {
    const double q = std::sqrt(-2.0 * std::log(u));
    return (((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5) /
           ((((d0 * q + d1) * q + d2) * q + d3) * q + 1.0);
  }
  if (u > 1.0 - plow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - u));
    return -(((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5) /
           ((((d0 * q + d1) * q + d2) * q + d3) * q + 1.0);
  }
  const double q = u - 0.5, r = q * q;
  return (((((a0 * r + a1) * r + a2) * r + a3) * r + a4) * r + a5) * q /
         (((((b0 * r + b1) * r + b2) * r + b3) * r + b4) * r + 1.0);
}

/// Exact single-word Poisson inversion for mean < kNormalCutoff32: walks
/// the CDF from p0 = exp(-mean) until it covers u. The walk is pure FP
/// multiplies (reciprocals from kInvK), consumes NO further words, and
/// returns the exact inverse-CDF count — distributionally identical to a
/// Knuth product chain but with a fixed one-word footprint, which is what
/// lets the v2 contract precompute every bin's word layout.
[[nodiscard]] inline std::uint64_t poisson_inv_core(double u, double mean,
                                                    double p0) noexcept {
  double pk = p0, cum = p0;
  std::uint64_t k = 0;
  while (u > cum && k + 1 < kInvKSize) {
    ++k;
    pk *= mean * kInvK[k];
    cum += pk;
  }
  return k;
}

/// One-word Poisson draw in the v2 grain: exact inversion below
/// kNormalCutoff32 (limit must be exp(-mean); tabulated by callers), the
/// inverse-CDF normal approximation with continuity correction above
/// (limit unused). mean 0 returns 0 without touching the word — but the
/// word is still consumed by the caller's layout either way.
[[nodiscard]] inline std::uint64_t sample_poisson_word32(std::uint32_t w, double mean,
                                                         double limit) noexcept {
  if (mean == 0.0) return 0;
  double u = to_unit32(w);
  if (mean < kNormalCutoff32) [[likely]] return poisson_inv_core(u, mean, limit);
  if (u <= 0.0) u = 0x1.0p-33;
  const double v = mean + std::sqrt(mean) * inverse_normal_cdf(u) + 0.5;
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

/// Deterministic exp(-m) for m in [0, kNormalCutoff32): range reduction
/// against a split ln2 plus a degree-7 Horner polynomial, EVERY multiply-
/// add an explicit std::fma. Fused ops are correctly rounded, so the
/// result is a pure function of the double operand sequence — immune to
/// compiler contraction choices and identical across translation units and
/// SIMD back-ends (the AVX2 kernel mirrors the same fma chain 4 lanes
/// wide). Relative error is below 1e-8 (degree-7 truncation at the ln2/2
/// reduction edge, ~7e-9 measured worst case), which only perturbs the v2
/// draw contract's tabulated thresholds by O(1e-8) in probability; the
/// function itself (not libm exp) IS the contract for the bulk count
/// sweep.
[[nodiscard]] inline double exp_neg12(double m) noexcept {
  constexpr double kLog2e = 1.4426950408889634;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const double x = -m;
  const double kd = std::floor(std::fma(x, kLog2e, 0.5));
  double r = std::fma(-kd, kLn2Hi, x);
  r = std::fma(-kd, kLn2Lo, r);
  // exp(r) for |r| <= ln2 / 2, Horner in explicit fma steps.
  double p = 1.0 / 5040.0;
  p = std::fma(p, r, 1.0 / 720.0);
  p = std::fma(p, r, 1.0 / 120.0);
  p = std::fma(p, r, 1.0 / 24.0);
  p = std::fma(p, r, 1.0 / 6.0);
  p = std::fma(p, r, 0.5);
  p = std::fma(p, r, 1.0);
  p = std::fma(p, r, 1.0);
  // Scale by 2^kd; kd is in [-18, 0] for this domain, so the biased
  // exponent never underflows.
  const auto bits = static_cast<std::uint64_t>(1023 + static_cast<int>(kd)) << 52;
  return p * std::bit_cast<double>(bits);
}

/// Out-of-line normal-regime resolution of one count word (mean >=
/// kNormalCutoff32). Lives in sampling.cpp so that every back-end's bulk
/// count sweep funnels rare heavy-mean lanes through literally the same
/// compiled code — one TU, one instruction sequence, no per-TU
/// floating-point contraction drift.
[[nodiscard]] std::uint64_t poisson_normal_word32(std::uint32_t w, double mean) noexcept;

/// Length of a precomputed inverse-CDF threshold row. Rows only exist for
/// means below kNormalCutoff32, where P(X > 47) is below 1e-15 — the scan
/// clamp at the row edge is unreachable in practice and documented as part
/// of the draw contract.
inline constexpr std::size_t kCdfRowLen = 48;

/// Row entries cdf_row_scan counts without a branch: one 64-byte cache
/// line. A branch-free count over the whole row touches three lines and
/// measured slower.
inline constexpr std::size_t kCdfScanPrefix = 16;

/// Resolves a word against one threshold row: k = #{j : w > t_j} with
/// t_j = min(floor(P(X <= j) * 2^32), 2^32 - 1), i.e. exact inverse-CDF
/// inversion of u = w / 2^32 (u > CDF_j iff w > t_j) with every comparison
/// a single integer compare. Entries with CDF 1 store 2^32 - 1, which no
/// word clears, so the count stops at the support edge.
///
/// Precondition: the row is nondecreasing (every CDF row is; the table
/// constructors check it). The cleared entries are then a prefix of the
/// row, so the count equals the index of the first uncleared entry. The
/// scan therefore counts the first kCdfScanPrefix entries without a branch
/// (the compiler vectorizes the sum) instead of exiting at a data-dependent
/// point that mispredicts on most draws; only a word that clears the whole
/// prefix continues entry by entry.
[[nodiscard]] inline std::uint64_t cdf_row_scan(const std::uint32_t* row,
                                               std::uint32_t w) noexcept {
  std::uint32_t cleared = 0;
  for (std::size_t j = 0; j < kCdfScanPrefix; ++j) cleared += w > row[j] ? 1u : 0u;
  std::uint64_t k = cleared;
  if (k == kCdfScanPrefix) [[unlikely]] {
    while (k < kCdfRowLen && w > row[k]) ++k;
  }
  return k;
}

/// One-word Poisson-sum draw table: row s holds the threshold row for
/// Poisson(s * mean_step), one row per integer sufficient statistic below
/// the cap. Draws with a tabulated stat are integer row scans; past the
/// cap the mean has cleared kNormalCutoff32 (by construction of the cap)
/// and the draw falls back to the one-word inverse-CDF normal. This is the
/// v2 contract's merged form of a run of per-session Poisson draws: a sum
/// of independent Poissons is Poisson of the summed mean, and the summed
/// mean is an integer statistic times a model constant.
class PoissonSumCdf {
 public:
  PoissonSumCdf(double mean_step, std::uint32_t stat_cap);

  [[nodiscard]] std::uint64_t sample(std::uint32_t w, std::uint64_t stat) const noexcept {
    if (stat < stat_cap_) [[likely]] return cdf_row_scan(row(stat), w);
    const double mean = mean_step_ * static_cast<double>(stat);
    double u = to_unit32(w);
    if (u <= 0.0) u = 0x1.0p-33;
    const double v = mean + std::sqrt(mean) * inverse_normal_cdf(u) + 0.5;
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
  }

  [[nodiscard]] std::uint32_t stat_cap() const noexcept { return stat_cap_; }

  /// Threshold row of `stat` (< stat_cap()), kCdfRowLen entries.
  [[nodiscard]] const std::uint32_t* row(std::uint64_t stat) const noexcept {
    return rows_.data() + stat * kCdfRowLen;
  }

 private:
  double mean_step_;
  std::uint32_t stat_cap_;
  std::vector<std::uint32_t> rows_;  // stat-major threshold rows
};

/// One-word Binomial(n, p) draw table with a fixed success probability:
/// threshold rows for every n whose mean np stays below the normal cutoff,
/// the one-word inverse-CDF normal with continuity correction (clamped to
/// [0, n]) above. The v2 contract's merged form of a per-trial Bernoulli
/// pass: the feature matrix only consumes success TOTALS, and the total of
/// n independent Bernoulli(p) trials is exactly Binomial(n, p), so one
/// word replaces n.
class BinomialCdf {
 public:
  explicit BinomialCdf(double p);

  [[nodiscard]] std::uint64_t sample(std::uint32_t w, std::uint64_t n) const noexcept {
    if (n == 0) return 0;
    if (n < n_cap_) [[likely]] {
      return std::min<std::uint64_t>(cdf_row_scan(row(n), w), n);
    }
    const double mean = p_ * static_cast<double>(n);
    double u = to_unit32(w);
    if (u <= 0.0) u = 0x1.0p-33;
    const double v = mean + std::sqrt(mean * (1.0 - p_)) * inverse_normal_cdf(u) + 0.5;
    if (v <= 0.0) return 0;
    return std::min(static_cast<std::uint64_t>(v), n);
  }

  [[nodiscard]] double p() const noexcept { return p_; }
  [[nodiscard]] std::uint32_t n_cap() const noexcept { return n_cap_; }

  /// Threshold row of `n` (< n_cap()), kCdfRowLen entries.
  [[nodiscard]] const std::uint32_t* row(std::uint64_t n) const noexcept {
    return rows_.data() + n * kCdfRowLen;
  }

 private:
  double p_;
  std::uint32_t n_cap_;
  std::vector<std::uint32_t> rows_;  // n-major threshold rows
};

/// Exact integer-threshold table for a capped, floored Pareto count:
/// count(u) = min(floor(1 / u^(1/shape)), cap) with u = to_unit32(w) and
/// u <= 0 guarded to 2^-53 (so word 0 maps to the cap). boundary[k-1] holds
/// the largest word w with count(to_unit32(w)) >= k + 1, so a count is
/// recovered from a raw word with integer compares only (no pow).
/// Boundaries are found once by binary search over the 2^32 word space and
/// verified exact.
class ParetoCountTable {
 public:
  ParetoCountTable(double shape, std::uint32_t cap);

  /// Count for draw word w. Descending boundary scan; expected ~1-2 probes
  /// for shape > 1.5.
  [[nodiscard]] std::uint32_t count(std::uint64_t m) const noexcept {
    std::uint32_t k = 1;
    while (k < cap_ && m <= boundary_[k - 1]) ++k;
    return k;
  }

  /// Branchless over the first three boundaries (covers ~98% of draws for
  /// shape >= 1.5); falls back to the scan for the tail.
  [[nodiscard]] std::uint32_t count_fast(std::uint64_t m) const noexcept {
    if (cap_ >= 4) [[likely]] {
      if (m > boundary_[2]) [[likely]]
        return 1 + (m <= boundary_[0] ? 1u : 0u) + (m <= boundary_[1] ? 1u : 0u);
      std::uint32_t k = 4;
      while (k < cap_ && m <= boundary_[k - 1]) ++k;
      return k;
    }
    return count(m);
  }

  [[nodiscard]] std::uint32_t cap() const noexcept { return cap_; }

  /// Raw boundary word for count k+1 (callers hoist the first few into
  /// locals to keep a staging loop's compares register-resident).
  [[nodiscard]] std::uint64_t boundary(std::size_t k) const noexcept {
    return boundary_[k];
  }

 private:
  std::vector<std::uint64_t> boundary_;  // descending in k
  std::uint32_t cap_;
};

}  // namespace batch

}  // namespace monohids::stats
