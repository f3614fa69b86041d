// The rank merge-scan and the SIMD-dispatched kernels.
//
// Evaluation: every experiment bottoms out in rank queries against an
// EmpiricalDistribution, whose runs (distinct values plus cumulative
// counts) answer each one with a search over a few dozen values per host
// week. rank_sorted answers a whole ascending query batch with one
// merge-scan over an ascending value span — O(n + T) for a threshold sweep
// instead of O(T log n) binary searches. It backs
// EmpiricalDistribution::rank_batch, and it is one plain portable
// function.
//
// Dispatch: three bulk kernels keep a function-pointer table with a
// portable scalar entry and an AVX2 entry. Two are the v2 scenario
// contract's draw kernels, philox_fill and poisson_counts, where scenario
// rendering spends its time. The third, small_counts, is the per-sample
// check of the EmpiricalDistribution constructor: every host-week it
// builds is first tested for being small non-negative integers that a
// histogram can count, 5.64M samples per policy sweep, and building those
// 8,400 host-weeks on one thread took 23-31 ms with the scalar entry
// against 15-21 ms with the AVX2 one. The table is selected at startup by runtime CPU
// detection; MONOHIDS_SIMD=scalar|avx2 overrides the choice for testing,
// and force_backend() does the same in-process.
//
// Bit-identity contract: rank_sorted computes exact integer ranks, and all
// floating-point post-processing (rank/n divisions, accumulation order)
// happens in shared code in the same order as the seed per-call path,
// which keeps sim::AnalysisCache memoization keys valid. Both back-ends
// produce identical words, counts and small-count verdicts (see each
// entry's comment), so neither scenarios nor distributions depend on the
// back-end that built them. The per-call seed loops are not part of the
// library: they live as test oracles in tests/oracle.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>

namespace monohids::stats::kernels {

/// out[j] = #{v in arena : v <= xs[j]}: upper-bound ranks of an ascending
/// query batch against an ascending `arena`, answered with one merge-scan
/// (or, for a sparse sweep over a large arena, one binary search per
/// query).
void rank_sorted(std::span<const double> arena, std::span<const double> xs,
                 std::uint32_t* out);

enum class Backend : std::uint8_t { Scalar = 0, Avx2 = 1 };

/// The largest sample small_counts accepts. Traffic counts stay far below
/// it, and it bounds a counting histogram to 65536 slots.
inline constexpr double kSmallCountMax = 65535.0;

/// small_counts' answer for a span that is not all small counts.
inline constexpr std::uint32_t kNotSmallCounts = 0xFFFFFFFFu;

/// Function-pointer table of one back-end.
struct Ops {
  const char* name;

  /// Writes `blocks` consecutive Philox4x32-10 counter blocks (4 uint32
  /// words each) of stream (key, stream) starting at block `first_block`
  /// into `out` — the v2 scenario contract's bulk draw generator
  /// (util::Philox4x32::fill_blocks is the reference). Pure integer
  /// function of its arguments, so every back-end produces identical words
  /// and v2 scenarios are SIMD-invariant by construction.
  void (*philox_fill)(std::uint64_t key, std::uint64_t stream,
                      std::uint64_t first_block, std::uint32_t* out,
                      std::size_t blocks);

  /// Bulk one-word Poisson count resolution — the v2 scenario contract's
  /// fused session-count sweep: counts[i] resolves words[i] against mean
  /// means[i] (exp via stats::batch::exp_neg12 then exact inversion below
  /// the normal cutoff, stats::batch::poisson_normal_word32 above; mean 0
  /// yields 0), and active[i] |= (counts[i] != 0), so a caller sweeping
  /// several rows into one flag row gets each bin's any-count flag without
  /// a second pass. Returns the sum of counts. Every floating-point step is
  /// either an exact fused multiply-add or a single IEEE op in fixed
  /// order, so all back-ends produce bit-identical counts (the v2
  /// SIMD-invariance contract).
  std::uint64_t (*poisson_counts)(const double* means, const std::uint32_t* words,
                                  std::uint32_t* counts, std::uint8_t* active, std::size_t n);

  /// The EmpiricalDistribution constructor's count check: when every
  /// xs[i] is an integral double in [0, kSmallCountMax] with its sign bit
  /// clear (so -0.0, NaN and infinities fail), writes out[i] = xs[i] and
  /// returns the largest; otherwise returns kNotSmallCounts and leaves
  /// `out` unspecified. n = 0 returns 0. Every back-end gives the same
  /// verdict, outputs and maximum.
  std::uint32_t (*small_counts)(const double* xs, std::uint32_t* out, std::size_t n);
};

/// The dispatched table: resolved once on first use from runtime CPU
/// detection, or from MONOHIDS_SIMD=scalar|avx2 when set. An unavailable
/// requested back-end falls back to the best available one.
[[nodiscard]] const Ops& active() noexcept;
[[nodiscard]] Backend active_backend() noexcept;

/// The table of one specific back-end, or nullptr when it is not available
/// on this host/build (e.g. avx2 on aarch64). Scalar is always available.
[[nodiscard]] const Ops* ops_for(Backend backend) noexcept;
[[nodiscard]] bool backend_available(Backend backend) noexcept;

[[nodiscard]] std::string_view backend_name(Backend backend) noexcept;

/// Overrides the dispatched back-end in-process (tests/benches). Returns
/// false (and leaves dispatch untouched) when the back-end is unavailable.
bool force_backend(Backend backend) noexcept;

/// Restores startup dispatch (CPU detection + MONOHIDS_SIMD).
void reset_backend() noexcept;

namespace detail {

/// One sample of small_counts: true, with `out` set, when `v` is an
/// integral double in [0, kSmallCountMax] with its sign bit clear.
/// EmpiricalDistribution::merge checks its run values with it too.
inline bool is_small_count(double v, std::uint32_t& out) noexcept {
  if (!(v >= 0.0) || v > kSmallCountMax) return false;
  const auto u = static_cast<std::uint32_t>(v);
  if (static_cast<double>(u) != v || std::signbit(v)) return false;
  out = u;
  return true;
}

/// The portable small_counts (the scalar back-end's entry, the reference
/// for the AVX2 one, and the AVX2 kernel's n % 4 tail).
std::uint32_t small_counts_portable(const double* xs, std::uint32_t* out, std::size_t n);

/// The portable poisson_counts implementation (the scalar back-end's entry
/// and the reference for the AVX2 one; also the fallback the AVX2 kernel
/// funnels its n % 8 tail through, so both back-ends' tail lanes run
/// literally the same compiled code).
std::uint64_t poisson_counts_portable(const double* means, const std::uint32_t* words,
                                      std::uint32_t* counts, std::uint8_t* active,
                                      std::size_t n);

/// Per-back-end tables; nullptr when compiled out or unsupported at
/// runtime-detection level (checked by kernels.cpp before exposure).
[[nodiscard]] const Ops* scalar_ops() noexcept;
[[nodiscard]] const Ops* avx2_ops() noexcept;    ///< null unless built with AVX2 support
[[nodiscard]] bool cpu_supports_avx2() noexcept;
}  // namespace detail

}  // namespace monohids::stats::kernels
