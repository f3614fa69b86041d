// Batched rank kernels and the SIMD-dispatched synthesis kernels.
//
// Evaluation: every experiment bottoms out in the same inner loop — one
// binary search per EmpiricalDistribution::cdf/exceedance call and one per
// attack size inside AttackModel::mean_fn, issued once per candidate
// threshold per user per feature per round. The rank functions here answer
// a whole batch at once:
//
//   - rank_sorted: a single merge-scan over the sorted-sample arena for an
//     ascending query batch — O(n + T) for a whole threshold sweep instead
//     of O(T log n) binary searches.
//   - rank_unsorted: rank queries in arbitrary order, one binary search each.
//   - rank_grid: the full attack-size x threshold grid of shifted ranks
//     (AttackModel::mean_fn_batch on arenas without a rank table).
//
// They are plain portable functions: integer-count arenas (every traffic
// feature) answer rank queries from their O(1) rank table
// (build_rank_table), so these loops run on a small share of the
// evaluation work, and no benchmark workload spends measurable time in
// them.
//
// Synthesis: the v2 scenario contract's bulk draw kernels, philox_fill and
// poisson_counts, are where scenario rendering spends its time, so they
// alone keep a function-pointer table with a portable scalar entry and an
// AVX2 entry. The table is selected at startup by runtime CPU detection;
// MONOHIDS_SIMD=scalar|avx2 overrides the choice for testing, and
// force_backend() does the same in-process.
//
// Bit-identity contract: the rank functions compute exact integer ranks,
// and all floating-point post-processing (rank/n divisions, accumulation
// order) happens in shared code in the same order as the seed per-call
// path, which keeps sim::AnalysisCache memoization keys valid. Both
// synthesis back-ends produce identical words and counts (see each entry's
// comment), so scenarios never depend on the back-end that rendered them.
// The per-call seed loops are not part of the library: they live as test
// oracles in tests/oracle.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace monohids::stats::kernels {

// All `arena` arguments below are ascending sorted-sample spans (an
// EmpiricalDistribution's arena); all ranks are upper-bound counts
// #{v in arena : v <= query}, so cdf(q) is rank / n and the paper's strict
// alarm condition g > T is 1 - cdf(T).

/// out[j] = #{v in arena : v <= xs[j] - shift}. `xs` must be ascending;
/// the whole batch is answered with one merge-scan over the arena (or, for
/// a sparse sweep over a large arena, one binary search per query).
void rank_sorted(std::span<const double> arena, std::span<const double> xs, double shift,
                 std::uint32_t* out);

/// Same contract with `xs` in arbitrary order: one std::upper_bound per
/// query, the seed per-call path's search.
void rank_unsorted(std::span<const double> arena, std::span<const double> xs, double shift,
                   std::uint32_t* out);

/// Full attack-size x threshold grid:
/// ranks[s * thresholds.size() + j] = #{v <= thresholds[j] - sizes[s]}.
/// `thresholds` must be ascending; `sizes` may be any order.
void rank_grid(std::span<const double> arena, std::span<const double> thresholds,
               std::span<const double> sizes, std::uint32_t* ranks);

enum class Backend : std::uint8_t { Scalar = 0, Avx2 = 1 };

/// Function-pointer table of one synthesis back-end.
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
  /// yields 0). Returns the sum of counts. Every floating-point step is
  /// either an exact fused multiply-add or a single IEEE op in fixed
  /// order, so all back-ends produce bit-identical counts (the v2
  /// SIMD-invariance contract).
  std::uint64_t (*poisson_counts)(const double* means, const std::uint32_t* words,
                                  std::uint32_t* counts, std::size_t n);
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

/// The portable poisson_counts implementation (the scalar back-end's entry
/// and the reference for the AVX2 one; also the fallback the AVX2 kernel
/// funnels its n % 8 tail through, so both back-ends' tail lanes run
/// literally the same compiled code).
std::uint64_t poisson_counts_portable(const double* means, const std::uint32_t* words,
                                      std::uint32_t* counts, std::size_t n);

/// Per-back-end tables; nullptr when compiled out or unsupported at
/// runtime-detection level (checked by kernels.cpp before exposure).
[[nodiscard]] const Ops* scalar_ops() noexcept;
[[nodiscard]] const Ops* avx2_ops() noexcept;    ///< null unless built with AVX2 support
[[nodiscard]] bool cpu_supports_avx2() noexcept;
}  // namespace detail

}  // namespace monohids::stats::kernels
