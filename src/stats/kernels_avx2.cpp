// AVX2 synthesis back-end. This translation unit is compiled with -mavx2
// (see src/stats/CMakeLists.txt); its functions are only ever reached
// through the dispatch table after a runtime cpuid check, so the binary
// stays safe on pre-AVX2 hardware.
//
// Exactness: philox_fill is pure lane-independent integer arithmetic, and
// poisson_counts repeats the scalar reference's floating-point steps lane
// by lane in the same order (exact fused ops only where written), so both
// are bit-identical to the scalar back-end by construction.
#include "stats/kernels.hpp"
#include "stats/sampling.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__) && defined(MONOHIDS_COMPILE_AVX2)

#include <immintrin.h>

#include <cstdint>

namespace monohids::stats::kernels {
namespace {

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

}  // namespace

namespace detail {

const Ops* avx2_ops() noexcept {
  static const Ops ops = {"avx2", philox_fill_avx2, poisson_counts_avx2};
  return &ops;
}

}  // namespace detail
}  // namespace monohids::stats::kernels

#else  // AVX2 not available in this build

namespace monohids::stats::kernels::detail {
const Ops* avx2_ops() noexcept { return nullptr; }
}  // namespace monohids::stats::kernels::detail

#endif
