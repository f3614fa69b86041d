// Deterministic random-number generation for reproducible experiments.
//
// Every experiment in the reproduction is seeded: a single master seed
// deterministically derives independent per-user / per-component streams, so
// adding a user or reordering generation does not perturb other users'
// traffic. We implement SplitMix64 (for seeding / stream derivation) and
// xoshiro256** (the workhorse engine), both satisfying
// std::uniform_random_bit_generator so they compose with <random>
// distributions.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace monohids::util {

/// SplitMix64: tiny, statistically strong 64-bit generator used to expand a
/// seed into the state of larger engines and to derive substream seeds.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  constexpr result_type operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast general-purpose 64-bit engine (Blackman & Vigna).
/// Used for all traffic synthesis; period 2^256 − 1.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state by expanding `seed` through SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  // Defined inline: trace synthesis draws from this engine ~200M times per
  // scenario, so the step must not be an out-of-line call.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl_(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Philox4x32-10: counter-mode engine (Salmon et al., "Parallel Random
/// Numbers: As Easy as 1, 2, 3"). Unlike the sequential engines above, every
/// output word is a pure function of (key, stream, word index): streams
/// keyed per (user, bin) are independent without any serial stepping between
/// them, which is what lets the v2 scenario contract render bins in any
/// order, in parallel, and in SIMD-width blocks (stats::kernels philox_fill
/// generates the same words 4+ blocks at a time, bit-identically).
///
/// Layout: the 2x32 Philox key is the split 64-bit `key`; the 4x32 counter
/// is (block_lo, block_hi, stream_lo, stream_hi), so one (key, stream) pair
/// owns 2^64 blocks of 4 output words. Draws are 32-bit words consumed in
/// block order; uniform01() maps one word to a double in [0, 1) at 32-bit
/// resolution (the v2 contract's draw grain — half the bits of the Xoshiro
/// path's 53, twice the throughput, and far more than the synthesis models
/// resolve).
class Philox4x32 {
 public:
  using result_type = std::uint32_t;

  explicit Philox4x32(std::uint64_t key, std::uint64_t stream = 0) noexcept
      : k0_(static_cast<std::uint32_t>(key)),
        k1_(static_cast<std::uint32_t>(key >> 32)),
        stream_(stream) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint32_t{0}; }

  result_type operator()() noexcept {
    if (index_ == 4) {
      buffer_ = block({static_cast<std::uint32_t>(block_),
                       static_cast<std::uint32_t>(block_ >> 32),
                       static_cast<std::uint32_t>(stream_),
                       static_cast<std::uint32_t>(stream_ >> 32)},
                      k0_, k1_);
      ++block_;
      index_ = 0;
    }
    return buffer_[index_++];
  }

  /// Uniform double in [0, 1) at 32-bit resolution: word * 2^-32 (exact).
  double uniform01() noexcept {
    return static_cast<double>(operator()()) * 0x1.0p-32;
  }

  /// Random access: positions the engine so the next word returned is word
  /// `draw_index` of this (key, stream) — O(1), no stepping.
  void seek(std::uint64_t draw_index) noexcept {
    block_ = draw_index / 4;
    const unsigned offset = static_cast<unsigned>(draw_index % 4);
    if (offset == 0) {
      index_ = 4;  // refill on the next call
    } else {
      buffer_ = block({static_cast<std::uint32_t>(block_),
                       static_cast<std::uint32_t>(block_ >> 32),
                       static_cast<std::uint32_t>(stream_),
                       static_cast<std::uint32_t>(stream_ >> 32)},
                      k0_, k1_);
      ++block_;
      index_ = offset;
    }
  }

  /// Index of the next word operator() will return.
  [[nodiscard]] std::uint64_t draw_index() const noexcept {
    return index_ == 4 ? block_ * 4 : (block_ - 1) * 4 + index_;
  }

  /// One 10-round Philox4x32 block: 4 counter words + 2 key words -> 4
  /// output words. Pure integer function; the bulk kernels
  /// (stats::kernels philox_fill) must match it word for word.
  [[nodiscard]] static std::array<std::uint32_t, 4> block(
      std::array<std::uint32_t, 4> counter, std::uint32_t k0,
      std::uint32_t k1) noexcept;

  /// Portable bulk form: writes `blocks` consecutive blocks (4 words each)
  /// of stream (key, stream) starting at block index `first_block` into
  /// `out`. Reference implementation for the SIMD kernels, with four
  /// independent blocks in flight so the multiply chains overlap.
  static void fill_blocks(std::uint64_t key, std::uint64_t stream,
                          std::uint64_t first_block, std::uint32_t* out,
                          std::size_t blocks) noexcept;

 private:
  std::uint32_t k0_, k1_;
  std::uint64_t stream_;
  std::uint64_t block_ = 0;
  std::array<std::uint32_t, 4> buffer_{};
  unsigned index_ = 4;
};

/// Derives a child seed from (master seed, label, index). Stable across
/// runs and platforms; labels keep independent components (e.g. "web",
/// "dns") decorrelated even for the same user index.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master, std::string_view label,
                                        std::uint64_t index) noexcept;

}  // namespace monohids::util
