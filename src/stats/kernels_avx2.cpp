// AVX2 back-end. This translation unit is compiled with -mavx2 (see
// src/stats/CMakeLists.txt); its functions are only ever reached through
// the dispatch table after a runtime cpuid check, so the binary stays safe
// on pre-AVX2 hardware.
//
// Exactness: every function here computes integer ranks/counts from IEEE
// comparisons (and one vector add in replay_detect whose lanes are the
// exact scalar additions), so results are bit-identical to the scalar
// back-end by construction — no reassociated floating-point reductions.
#include "stats/kernels.hpp"
#include "stats/sampling.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__) && defined(MONOHIDS_COMPILE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

namespace monohids::stats::kernels {
namespace {

/// Advances `i` over ascending a[i..limit) while a[i] <= q, four lanes at a
/// time. Ascending order makes each 4-lane <=-mask a run of ones followed
/// by zeros, so countr_one gives the exact advance when the run breaks.
inline std::size_t advance_le(const double* a, std::size_t i, std::size_t limit,
                              double q) noexcept {
  const __m256d qv = _mm256_set1_pd(q);
  while (i + 4 <= limit) {
    const __m256d v = _mm256_loadu_pd(a + i);
    const auto le =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(v, qv, _CMP_LE_OQ)));
    if (le == 0xFu) {
      i += 4;
      continue;
    }
    return i + std::countr_one(le);  // a[result] > q
  }
  while (i < limit && a[i] <= q) ++i;
  return i;
}

/// Branchless upper bound (conditional-move binary search) for sparse
/// queries against large arenas.
inline std::uint32_t upper_bound_branchless(const double* a, std::size_t n,
                                            double q) noexcept {
  if (n == 0) return 0;
  const double* base = a;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (base[half - 1] <= q) ? half : 0;
    n -= half;
  }
  return static_cast<std::uint32_t>((base - a) + (*base <= q ? 1 : 0));
}

void rank_sorted_avx2(std::span<const double> arena, std::span<const double> xs,
                      double shift, std::uint32_t* out) {
  const double* a = arena.data();
  const std::size_t n = arena.size();
  if (detail::sweep_prefers_binary(n, xs.size())) {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      out[j] = upper_bound_branchless(a, n, xs[j] - shift);
    }
    return;
  }
  std::size_t i = 0;
  for (std::size_t j = 0; j < xs.size(); ++j) {
    i = advance_le(a, i, n, xs[j] - shift);
    out[j] = static_cast<std::uint32_t>(i);
  }
}

/// Partition count: #{v <= q} by accumulating 4-lane compare masks (each
/// all-ones lane is -1 as int64, so mask subtraction counts).
inline std::uint32_t partition_count_le(const double* a, std::size_t n,
                                        double q) noexcept {
  const __m256d qv = _mm256_set1_pd(q);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(a + i);
    acc = _mm256_sub_epi64(acc, _mm256_castpd_si256(_mm256_cmp_pd(v, qv, _CMP_LE_OQ)));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) count += a[i] <= q ? 1 : 0;
  return static_cast<std::uint32_t>(count);
}

void rank_unsorted_avx2(std::span<const double> arena, std::span<const double> xs,
                        double shift, std::uint32_t* out) {
  const double* a = arena.data();
  const std::size_t n = arena.size();
  // Tiny arenas: the branchless streaming count (n/4 independent vector
  // compares) beats ~log2(n) dependent loads. Anywhere past ~2 cache lines
  // per lane the binary search wins.
  constexpr std::size_t kPartitionCountMax = 96;
  if (n <= kPartitionCountMax) {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      out[j] = partition_count_le(a, n, xs[j] - shift);
    }
  } else {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      out[j] = upper_bound_branchless(a, n, xs[j] - shift);
    }
  }
}

void rank_grid_avx2(std::span<const double> arena, std::span<const double> thresholds,
                    std::span<const double> sizes, std::uint32_t* ranks) {
  const std::size_t n = arena.size();
  const std::size_t T = thresholds.size();
  const std::size_t S = sizes.size();
  if (T == 0 || S == 0) return;
  if (n == 0) {
    std::fill(ranks, ranks + T * S, 0u);
    return;
  }
  const double* a = arena.data();
  if (detail::sweep_prefers_binary(n, T)) {
    // Sparse grid over a large (pooled) arena: S*T binary searches touch
    // far fewer samples than S merge-scans of the whole arena.
    for (std::size_t s = 0; s < S; ++s) {
      const double shift = sizes[s];
      std::uint32_t* row = ranks + s * T;
      for (std::size_t j = 0; j < T; ++j) {
        row[j] = upper_bound_branchless(a, n, thresholds[j] - shift);
      }
    }
    return;
  }
  // One tiled pass: walk the arena in L1-resident tiles and run every
  // size's merge-scan segment over the tile before moving on, so the arena
  // is streamed from memory once instead of once per attack size.
  constexpr std::size_t kTile = 4096;  // 32 KiB of samples
  thread_local std::vector<std::size_t> arena_cursor, query_cursor;
  arena_cursor.assign(S, 0);
  query_cursor.assign(S, 0);
  for (std::size_t lo = 0; lo < n; lo += kTile) {
    const std::size_t hi = std::min(n, lo + kTile);
    const bool last_tile = hi == n;
    for (std::size_t s = 0; s < S; ++s) {
      std::size_t j = query_cursor[s];
      if (j >= T) continue;
      std::size_t i = arena_cursor[s];
      const double shift = sizes[s];
      std::uint32_t* row = ranks + s * T;
      while (j < T) {
        i = advance_le(a, i, hi, thresholds[j] - shift);
        if (i == hi && !last_tile) break;  // query reaches into the next tile
        row[j] = static_cast<std::uint32_t>(i);
        ++j;
      }
      arena_cursor[s] = i;
      query_cursor[s] = j;
    }
  }
}

std::uint64_t count_exceed_avx2(std::span<const double> values, double threshold) {
  const double* a = values.data();
  const std::size_t n = values.size();
  const __m256d tv = _mm256_set1_pd(threshold);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(a + i);
    acc = _mm256_sub_epi64(acc, _mm256_castpd_si256(_mm256_cmp_pd(v, tv, _CMP_GT_OQ)));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t count = static_cast<std::uint64_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < n; ++i) count += a[i] > threshold ? 1 : 0;
  return count;
}

void replay_detect_avx2(std::span<const double> benign, std::span<const double> attack,
                        double threshold, std::uint64_t& benign_alarms,
                        std::uint64_t& attacked_bins, std::uint64_t& detected) {
  const double* b = benign.data();
  const double* at = attack.data();
  const std::size_t n = benign.size();
  const __m256d tv = _mm256_set1_pd(threshold);
  const __m256d zero = _mm256_setzero_pd();
  __m256i acc_alarm = _mm256_setzero_si256();
  __m256i acc_attacked = _mm256_setzero_si256();
  __m256i acc_hit = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d bv = _mm256_loadu_pd(b + i);
    const __m256d av = _mm256_loadu_pd(at + i);
    const __m256d m_alarm = _mm256_cmp_pd(bv, tv, _CMP_GT_OQ);
    const __m256d m_attacked = _mm256_cmp_pd(av, zero, _CMP_GT_OQ);
    const __m256d m_hit =
        _mm256_and_pd(_mm256_cmp_pd(_mm256_add_pd(bv, av), tv, _CMP_GT_OQ), m_attacked);
    acc_alarm = _mm256_sub_epi64(acc_alarm, _mm256_castpd_si256(m_alarm));
    acc_attacked = _mm256_sub_epi64(acc_attacked, _mm256_castpd_si256(m_attacked));
    acc_hit = _mm256_sub_epi64(acc_hit, _mm256_castpd_si256(m_hit));
  }
  alignas(32) std::int64_t lanes[4];
  const auto reduce = [&lanes](__m256i acc) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    return static_cast<std::uint64_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  };
  std::uint64_t alarms = reduce(acc_alarm);
  std::uint64_t attacked = reduce(acc_attacked);
  std::uint64_t hits = reduce(acc_hit);
  for (; i < n; ++i) {
    if (b[i] > threshold) ++alarms;
    if (at[i] > 0.0) {
      ++attacked;
      if (b[i] + at[i] > threshold) ++hits;
    }
  }
  benign_alarms = alarms;
  attacked_bins = attacked;
  detected = hits;
}

void joint_exceed_avx2(const std::span<const double>* slices, const double* thresholds,
                       std::size_t feature_count, std::size_t bins,
                       std::uint64_t* marginal, std::uint64_t& joint) {
  for (std::size_t f = 0; f < feature_count; ++f) marginal[f] = 0;
  std::uint64_t any_count = 0;
  std::size_t b = 0;
  for (; b + 4 <= bins; b += 4) {
    __m256d any = _mm256_setzero_pd();
    for (std::size_t f = 0; f < feature_count; ++f) {
      const __m256d v = _mm256_loadu_pd(slices[f].data() + b);
      const __m256d m = _mm256_cmp_pd(v, _mm256_set1_pd(thresholds[f]), _CMP_GT_OQ);
      marginal[f] += static_cast<unsigned>(std::popcount(
          static_cast<unsigned>(_mm256_movemask_pd(m))));
      any = _mm256_or_pd(any, m);
    }
    any_count += static_cast<unsigned>(
        std::popcount(static_cast<unsigned>(_mm256_movemask_pd(any))));
  }
  for (; b < bins; ++b) {
    bool any = false;
    for (std::size_t f = 0; f < feature_count; ++f) {
      if (slices[f][b] > thresholds[f]) {
        ++marginal[f];
        any = true;
      }
    }
    if (any) ++any_count;
  }
  joint = any_count;
}

/// One pass of G independent 4-block Philox groups: each 64-bit lane of a
/// ymm register carries one block's 32-bit state word zero-extended to 64
/// bits, so _mm256_mul_epu32 computes the four full 32x32 -> 64 products
/// of a round in one instruction. All arithmetic is integer and
/// lane-independent, so the words match util::Philox4x32::fill_blocks bit
/// for bit. Writes 16 * G words at out.
template <int G>
inline void philox_pass_avx2(std::uint64_t key, __m256i c2_init, __m256i c3_init,
                             std::uint64_t first_index, std::uint32_t* out) noexcept {
  constexpr std::uint32_t kM0 = 0xD2511F53u;
  constexpr std::uint32_t kM1 = 0xCD9E8D57u;
  constexpr std::uint32_t kW0 = 0x9E3779B9u;
  constexpr std::uint32_t kW1 = 0xBB67AE85u;
  const __m256i m0 = _mm256_set1_epi64x(kM0);
  const __m256i m1 = _mm256_set1_epi64x(kM1);
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);

  __m256i c0[G], c1[G], c2[G], c3[G];
  for (int g = 0; g < G; ++g) {
    // Block indices first_index + 4g + {0,1,2,3} as 64-bit lanes; the
    // counter's low/high words are the index's split halves.
    const __m256i blk =
        _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(first_index + 4 * g)),
                         _mm256_set_epi64x(3, 2, 1, 0));
    c0[g] = _mm256_and_si256(blk, lo32);
    c1[g] = _mm256_srli_epi64(blk, 32);
    c2[g] = c2_init;
    c3[g] = c3_init;
  }
  __m256i k0 = _mm256_set1_epi64x(static_cast<long long>(key) & 0xFFFFFFFFll);
  __m256i k1 = _mm256_set1_epi64x(static_cast<long long>(key >> 32) & 0xFFFFFFFFll);
  for (int r = 0; r < 10; ++r) {
    for (int g = 0; g < G; ++g) {
      const __m256i p0 = _mm256_mul_epu32(c0[g], m0);
      const __m256i p1 = _mm256_mul_epu32(c2[g], m1);
      c0[g] = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p1, 32), c1[g]), k0);
      c1[g] = _mm256_and_si256(p1, lo32);
      c2[g] = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p0, 32), c3[g]), k1);
      c3[g] = _mm256_and_si256(p0, lo32);
    }
    k0 = _mm256_and_si256(_mm256_add_epi64(k0, _mm256_set1_epi64x(kW0)), lo32);
    k1 = _mm256_and_si256(_mm256_add_epi64(k1, _mm256_set1_epi64x(kW1)), lo32);
  }
  // Transpose lanes to block-major output: block i's words are lane i of
  // (c0, c1, c2, c3), each a 32-bit value sitting in the low half of a
  // 64-bit lane. shuffle_ps(a, b, 0x88) packs the even dwords of each
  // 128-bit half, giving [b0wA b1wA b0wB b1wB | b2wA b3wA b2wB b3wB];
  // two rounds of 32-bit unpacks then gather each block's four words
  // into one 128-bit half, and a cross-lane permute orders the blocks —
  // 8 shuffles + 2 stores per group instead of 16 scalar stores.
  for (int g = 0; g < G; ++g) {
    const __m256i w01 =
        _mm256_castps_si256(_mm256_shuffle_ps(_mm256_castsi256_ps(c0[g]),
                                              _mm256_castsi256_ps(c1[g]), 0x88));
    const __m256i w23 =
        _mm256_castps_si256(_mm256_shuffle_ps(_mm256_castsi256_ps(c2[g]),
                                              _mm256_castsi256_ps(c3[g]), 0x88));
    // w01: [b0w0 b1w0 b0w1 b1w1 | b2w0 b3w0 b2w1 b3w1], w23 same for w2/w3.
    const __m256i lo = _mm256_unpacklo_epi32(w01, w23);  // b0w0 b0w2 b1w0 b1w2 | b2...
    const __m256i hi = _mm256_unpackhi_epi32(w01, w23);  // b0w1 b0w3 b1w1 b1w3 | b2...
    const __m256i blk02 = _mm256_unpacklo_epi32(lo, hi);  // [b0 row | b2 row]
    const __m256i blk13 = _mm256_unpackhi_epi32(lo, hi);  // [b1 row | b3 row]
    std::uint32_t* o = out + 16 * g;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o),
                        _mm256_permute2x128_si256(blk02, blk13, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 8),
                        _mm256_permute2x128_si256(blk02, blk13, 0x31));
  }
}

void philox_fill_avx2(std::uint64_t key, std::uint64_t stream,
                      std::uint64_t first_block, std::uint32_t* out,
                      std::size_t blocks) {
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i c2_init = _mm256_set1_epi64x(static_cast<long long>(stream) & 0xFFFFFFFFll);
  const __m256i c3_init =
      _mm256_set1_epi64x(static_cast<long long>(stream >> 32) & 0xFFFFFFFFll);
  (void)lo32;

  // Two independent 4-block groups per pass (8 blocks, 32 words): the
  // per-round multiply latency chain is ~10 * 5 cycles per group, so a
  // second group in flight roughly doubles throughput without spilling
  // (2 groups x 4 state + 2 keys + 3 constants fits the 16 ymm registers).
  // A single-group pass mops up a 4..7-block remainder so the scalar tail
  // only ever sees < 4 blocks — the trace cursor's whole-group fills
  // (multiples of 4 blocks) never leave the vector path.
  std::size_t b = 0;
  for (; b + 8 <= blocks; b += 8) {
    philox_pass_avx2<2>(key, c2_init, c3_init, first_block + b, out + b * 4);
  }
  if (b + 4 <= blocks) {
    philox_pass_avx2<1>(key, c2_init, c3_init, first_block + b, out + b * 4);
    b += 4;
  }
  if (b < blocks) {
    util::Philox4x32::fill_blocks(key, stream, first_block + b, out + b * 4, blocks - b);
  }
}

/// Two quads (eight lanes) of poisson_counts_avx2 starting at lane 0 of
/// means/words/counts; returns their count sum. Mirrors
/// detail::poisson_counts_portable's inversion regime lane by lane: the
/// exp_neg12 fma chain (_mm256_fmadd_pd is the same correctly-rounded
/// fused op as std::fma), then the inversion walk with the identical
/// per-step mul/add sequence. This TU is compiled with -ffp-contract=off,
/// so no mul/add pair here can silently fuse differently than the scalar
/// reference.
///
/// The quads share one walk loop that exits when no lane of either quad is
/// live: one loop-exit mispredict per two quads, and the quads' exp and
/// multiply chains overlap. A lane's count does not depend on how long the
/// loop runs past its own exit — its cum never decreases, so a lane with
/// u <= cum stays done — which keeps quad grouping (and therefore tile
/// partitioning) from changing any lane's result.
inline std::uint64_t poisson_octet_avx2(const double* means, const std::uint32_t* words,
                                        std::uint32_t* counts) noexcept {
  constexpr int Q = 2;
  const __m256d cutoff = _mm256_set1_pd(batch::kNormalCutoff32);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i mant_hide = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d scale32 = _mm256_set1_pd(0x1.0p-32);

  __m256d m[Q], u[Q], dead[Q];
  int heavy_mask[Q];
  int all_dead = 0xF;
  for (int q = 0; q < Q; ++q) {
    m[q] = _mm256_loadu_pd(means + 4 * q);
    // Normal-regime lanes are masked out of the walk (their cum is pinned
    // above every u) and resolved scalar afterwards — the quad stays on
    // the vector path, so a single heavy lane never drags its inversion-
    // regime neighbours through the slow portable fallback.
    const __m256d heavy = _mm256_cmp_pd(m[q], cutoff, _CMP_GE_OQ);
    heavy_mask[q] = _mm256_movemask_pd(heavy);
    // u = w * 2^-32 exactly (mantissa-hiding u32 -> f64 convert).
    const __m128i w32 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(words + 4 * q));
    const __m256d wd = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_cvtepu32_epi64(w32), mant_hide)),
        two52);
    u[q] = _mm256_mul_pd(wd, scale32);
    // Per-lane zero-draw shortcut (see poisson_counts_portable): a lane
    // with u + mean <= 1 resolves to 0 before any exp. Shortcut lanes are
    // dead in the walk exactly like heavy lanes. When every quad is dead —
    // the common idle stretch — the exp and the walk are skipped outright.
    dead[q] = _mm256_or_pd(heavy, _mm256_cmp_pd(_mm256_add_pd(u[q], m[q]), one, _CMP_LE_OQ));
    all_dead &= _mm256_movemask_pd(dead[q]);
  }

  alignas(32) std::uint64_t kv[Q][4] = {};
  if (all_dead != 0xF) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    const __m256d log2e = _mm256_set1_pd(1.4426950408889634);
    const __m256d ln2hi = _mm256_set1_pd(6.93147180369123816490e-01);
    const __m256d ln2lo = _mm256_set1_pd(1.90821492927058770002e-10);
    const __m256d half = _mm256_set1_pd(0.5);
    __m256d pk[Q], cum[Q];
    __m256i k[Q];
    for (int q = 0; q < Q; ++q) {
      // limit = exp_neg12(m), lane-wise.
      const __m256d x = _mm256_xor_pd(m[q], sign);
      const __m256d kd = _mm256_floor_pd(_mm256_fmadd_pd(x, log2e, half));
      const __m256d nkd = _mm256_xor_pd(kd, sign);
      __m256d r = _mm256_fmadd_pd(nkd, ln2hi, x);
      r = _mm256_fmadd_pd(nkd, ln2lo, r);
      __m256d p = _mm256_set1_pd(1.0 / 5040.0);
      p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
      p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
      p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
      p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
      p = _mm256_fmadd_pd(p, r, half);
      p = _mm256_fmadd_pd(p, r, one);
      p = _mm256_fmadd_pd(p, r, one);
      const __m256i bits = _mm256_slli_epi64(
          _mm256_add_epi64(_mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(kd)),
                           _mm256_set1_epi64x(1023)),
          52);
      const __m256d limit = _mm256_mul_pd(p, _mm256_castsi256_pd(bits));
      // Dead lanes start with cum = 2 > any u, so they never step (and
      // whatever garbage a heavy lane's out-of-domain limit holds stays
      // inert in its own lane).
      pk[q] = limit;
      cum[q] = _mm256_blendv_pd(limit, _mm256_set1_pd(2.0), dead[q]);
      k[q] = _mm256_setzero_si256();
    }
    // The walk: k counts the steps where the lane still has u > cum.
    for (std::size_t kk = 1; kk < batch::kInvKSize; ++kk) {
      __m256d alive[Q];
      __m256d any = _mm256_setzero_pd();
      for (int q = 0; q < Q; ++q) {
        alive[q] = _mm256_cmp_pd(u[q], cum[q], _CMP_GT_OQ);
        any = _mm256_or_pd(any, alive[q]);
      }
      if (_mm256_movemask_pd(any) == 0) break;
      const __m256d inv_k = _mm256_set1_pd(batch::kInvK[kk]);
      for (int q = 0; q < Q; ++q) {
        k[q] = _mm256_sub_epi64(k[q], _mm256_castpd_si256(alive[q]));  // mask is -1 per lane
        pk[q] = _mm256_mul_pd(pk[q], _mm256_mul_pd(m[q], inv_k));
        cum[q] = _mm256_add_pd(cum[q], pk[q]);
      }
    }
    for (int q = 0; q < Q; ++q) _mm256_store_si256(reinterpret_cast<__m256i*>(kv[q]), k[q]);
  }

  std::uint64_t total = 0;
  for (int q = 0; q < Q; ++q) {
    if (heavy_mask[q] != 0) [[unlikely]] {
      for (int j = 0; j < 4; ++j) {
        if ((heavy_mask[q] >> j) & 1) {
          kv[q][j] = batch::poisson_normal_word32(words[4 * q + j], means[4 * q + j]);
        }
      }
    }
    for (int j = 0; j < 4; ++j) {
      counts[4 * q + j] = static_cast<std::uint32_t>(kv[q][j]);
      total += kv[q][j];
    }
  }
  return total;
}

std::uint64_t poisson_counts_avx2(const double* means, const std::uint32_t* words,
                                  std::uint32_t* counts, std::size_t n) {
  // Eight lanes per walk; the portable tail takes the last n % 8 lanes.
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) total += poisson_octet_avx2(means + i, words + i, counts + i);
  if (i < n) total += detail::poisson_counts_portable(means + i, words + i, counts + i, n - i);
  return total;
}

void widen_u32_avx2(std::span<const std::uint32_t> values, double* out) {
  // Staging tallies are < 2^31 (the op's contract), so the signed 32->64
  // float convert is the exact unsigned conversion.
  const std::uint32_t* v = values.data();
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i lanes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    _mm256_storeu_pd(out + i, _mm256_cvtepi32_pd(lanes));
  }
  for (; i < n; ++i) out[i] = static_cast<double>(v[i]);
}

}  // namespace

namespace detail {

const Ops* avx2_ops() noexcept {
  static const Ops ops = {
      "avx2",            rank_sorted_avx2,  rank_unsorted_avx2, rank_grid_avx2,
      count_exceed_avx2, replay_detect_avx2, joint_exceed_avx2, widen_u32_avx2,
      philox_fill_avx2,  poisson_counts_avx2,
  };
  return &ops;
}

}  // namespace detail
}  // namespace monohids::stats::kernels

#else  // AVX2 not available in this build

namespace monohids::stats::kernels::detail {
const Ops* avx2_ops() noexcept { return nullptr; }
}  // namespace monohids::stats::kernels::detail

#endif
