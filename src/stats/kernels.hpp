// Batched evaluation kernels with runtime SIMD dispatch.
//
// Every experiment bottoms out in the same scalar inner loop: one binary
// search per EmpiricalDistribution::cdf/exceedance call and one per attack
// size inside AttackModel::mean_fn, issued once per candidate threshold per
// user per feature per round. This layer replaces those per-call searches
// with batched, cache-friendly sweeps:
//
//   - rank_sorted: a single merge-scan over the sorted-sample arena for an
//     ascending query batch — O(n + T) for a whole threshold sweep instead
//     of O(T log n) binary searches.
//   - rank_unsorted: branchless rank queries in arbitrary order (vectorized
//     partition-count on small arenas, branchless binary search otherwise).
//   - rank_grid: the full attack-size x threshold grid of shifted ranks in
//     one tiled pass over the arena (AttackModel::mean_fn_batch).
//   - count_exceed / replay_detect / joint_exceed: the detector-side
//     bin-vs-threshold loops (alarm counting, storm replay, joint alarms).
//
// Back-ends: portable scalar (the reference), AVX2 and NEON intrinsics.
// One is selected at startup via cpuid-style runtime detection behind a
// function-pointer table; MONOHIDS_SIMD=scalar|avx2|neon overrides the
// choice for testing, and force_backend() does the same in-process.
//
// Bit-identity contract: every kernel computes integer ranks/counts, which
// are exact, and all floating-point post-processing (rank/n divisions,
// accumulation order) happens in shared code in the same order as the seed
// per-call path. Dispatched results are therefore bit-identical to the
// scalar seed path on every back-end and at any thread count — which keeps
// sim::AnalysisCache memoization keys valid (cached artifacts never depend
// on the back-end that produced them). The per-call seed loops themselves
// are not part of the library: they live as test oracles in tests/oracle.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace monohids::stats::kernels {

enum class Backend : std::uint8_t { Scalar = 0, Avx2 = 1, Neon = 2 };

/// Function-pointer table of one back-end. All `arena` arguments are
/// ascending sorted-sample spans (an EmpiricalDistribution's arena); all
/// ranks are upper-bound counts #{v in arena : v <= query}, so cdf(q) is
/// rank / n and the paper's strict alarm condition g > T is 1 - cdf(T).
struct Ops {
  const char* name;

  /// out[j] = #{v in arena : v <= xs[j] - shift}. `xs` must be ascending;
  /// the whole batch is answered with one merge-scan over the arena.
  void (*rank_sorted)(std::span<const double> arena, std::span<const double> xs,
                      double shift, std::uint32_t* out);

  /// Same contract with `xs` in arbitrary order (per-query partition-count
  /// or branchless binary search; the strategy is a back-end detail, the
  /// integer result is identical).
  void (*rank_unsorted)(std::span<const double> arena, std::span<const double> xs,
                        double shift, std::uint32_t* out);

  /// Full attack-size x threshold grid in one tiled pass over the arena:
  /// ranks[s * thresholds.size() + j] = #{v <= thresholds[j] - sizes[s]}.
  /// `thresholds` must be ascending; `sizes` may be any order.
  void (*rank_grid)(std::span<const double> arena, std::span<const double> thresholds,
                    std::span<const double> sizes, std::uint32_t* ranks);

  /// #{v in values : v > threshold} over an unsorted series (detector alarm
  /// counting, marginal alarm rates).
  std::uint64_t (*count_exceed)(std::span<const double> values, double threshold);

  /// Storm replay's fused bin-vs-threshold loop over parallel benign/attack
  /// series: benign alarms (benign > t), attacked bins (attack > 0) and
  /// detections (attack > 0 and benign + attack > t).
  void (*replay_detect)(std::span<const double> benign, std::span<const double> attack,
                        double threshold, std::uint64_t& benign_alarms,
                        std::uint64_t& attacked_bins, std::uint64_t& detected);

  /// Joint alarm counting across features sharing one bin grid: per-feature
  /// marginal alarm counts plus the count of bins where any feature alarms.
  /// All outputs are overwritten (never accumulated into).
  void (*joint_exceed)(const std::span<const double>* slices, const double* thresholds,
                       std::size_t feature_count, std::size_t bins,
                       std::uint64_t* marginal, std::uint64_t& joint);

  /// out[i] = (double)values[i]: widens an SoA staging buffer of integer
  /// tallies (the trace generator's per-bin counts) into a feature
  /// series. Values must be < 2^31 (per-bin traffic tallies always are);
  /// within that range the conversion is exact in every back-end, so the
  /// widened series is bit-identical across Scalar/AVX2/NEON.
  void (*widen_u32)(std::span<const std::uint32_t> values, double* out);

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
  /// yields 0). Returns the sum of counts. Every floating-point step is
  /// either an exact fused multiply-add or a single IEEE op in fixed
  /// order, so all back-ends produce bit-identical counts (the v2
  /// SIMD-invariance contract).
  std::uint64_t (*poisson_counts)(const double* means, const std::uint32_t* words,
                                  std::uint32_t* counts, std::size_t n);
};

/// The dispatched table: resolved once on first use from runtime CPU
/// detection, or from MONOHIDS_SIMD=scalar|avx2|neon when set. An
/// unavailable requested back-end falls back to the best available one.
[[nodiscard]] const Ops& active() noexcept;
[[nodiscard]] Backend active_backend() noexcept;

/// The table of one specific back-end, or nullptr when it is not available
/// on this host/build (e.g. neon on x86). Scalar is always available.
[[nodiscard]] const Ops* ops_for(Backend backend) noexcept;
[[nodiscard]] bool backend_available(Backend backend) noexcept;

[[nodiscard]] std::string_view backend_name(Backend backend) noexcept;

/// Overrides the dispatched back-end in-process (tests/benches). Returns
/// false (and leaves dispatch untouched) when the back-end is unavailable.
bool force_backend(Backend backend) noexcept;

/// Restores startup dispatch (CPU detection + MONOHIDS_SIMD).
void reset_backend() noexcept;

/// Arena-preparation fast path: sorts `samples` ascending with an O(n + K)
/// counting sweep when every value is a small non-negative integer (traffic
/// counts almost always are; K caps at 65535). Returns false — leaving
/// `samples` untouched — when the data does not qualify, in which case the
/// caller falls back to comparison sort. The sorted result is bit-identical
/// to std::sort's.
bool sort_counts(std::vector<double>& samples) noexcept;

/// Counting-sweep k-way merge of ascending spans into `out` (cleared
/// first): the pooled-distribution analog of sort_counts. Returns false
/// with `out` unspecified when the data does not qualify (caller falls back
/// to the heap merge).
bool counting_merge(std::span<const std::span<const double>> parts,
                    std::vector<double>& out);

/// Builds the cumulative rank table of an ascending integer-count arena:
/// cum[k] = #{v in arena : v <= k} for k in [0, max(arena)]. Turns every
/// upper-bound rank query into one O(1) load (see rank_from_table), which
/// collapses the attack-size x threshold rank grids the heuristics sweep.
/// Returns false (cum cleared) when the arena does not qualify — same
/// small-non-negative-integer criterion as sort_counts.
bool build_rank_table(std::span<const double> sorted_arena,
                      std::vector<std::uint32_t>& cum);

/// O(1) upper-bound rank from a build_rank_table table: #{v <= q} for an
/// arena of n samples. Exact for any real query against integer samples
/// (#{v <= q} = #{v <= floor(q)}), so the result is bit-identical to
/// std::upper_bound on the arena itself.
[[nodiscard]] inline std::uint32_t rank_from_table(std::span<const std::uint32_t> cum,
                                                   std::uint32_t n, double q) noexcept {
  if (!(q >= 0.0)) return 0;  // below every count (also rejects NaN)
  if (q >= static_cast<double>(cum.size())) return n;
  return cum[static_cast<std::size_t>(q)];
}

namespace detail {

/// Ascending-sweep strategy crossover shared by the back-ends: a merge-scan
/// touches ~n + t samples, per-query branchless binary search ~t*(log2 n +
/// 1) dependent loads. Binary wins for sparse sweeps over large arenas —
/// e.g. a few hundred candidate thresholds against a 200k-sample pooled
/// arena — while the merge-scan wins on dense per-user sweeps. Both
/// strategies return the same exact integer ranks; this is purely a cost
/// model and never changes results.
[[nodiscard]] constexpr bool sweep_prefers_binary(std::size_t n, std::size_t t) noexcept {
  if (n < 2048) return false;  // small arenas stay cache-resident either way
  const auto log2n = static_cast<std::size_t>(std::bit_width(n));
  return t * (log2n + 1) < n;
}

/// The portable poisson_counts implementation (the scalar back-end's entry
/// and the reference for the SIMD ones; also the fallback the AVX2 kernel
/// funnels normal-regime quads and tails through, so every back-end's rare
/// lanes run literally the same compiled code).
std::uint64_t poisson_counts_portable(const double* means, const std::uint32_t* words,
                                      std::uint32_t* counts, std::size_t n);

/// Per-back-end tables; nullptr when compiled out or unsupported at
/// runtime-detection level (checked by kernels.cpp before exposure).
[[nodiscard]] const Ops* scalar_ops() noexcept;
[[nodiscard]] const Ops* avx2_ops() noexcept;    ///< null unless built with AVX2 support
[[nodiscard]] const Ops* neon_ops() noexcept;    ///< null unless aarch64
[[nodiscard]] bool cpu_supports_avx2() noexcept;
}  // namespace detail

}  // namespace monohids::stats::kernels
