#include "util/rng.hpp"

namespace monohids::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// FNV-1a 64-bit over a byte string; used only for label mixing.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm();
  // A state of all zeros is invalid for xoshiro; SplitMix64 cannot produce
  // four consecutive zeros from any seed, so no further check is needed.
}

namespace {

// Philox4x32 round constants (Salmon et al. 2011): the two multipliers and
// the Weyl key increments applied between rounds.
constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;
constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;

struct PhiloxState {
  std::uint32_t c0, c1, c2, c3;
};

inline PhiloxState philox_round(PhiloxState s, std::uint32_t k0,
                                std::uint32_t k1) noexcept {
  const std::uint64_t p0 = std::uint64_t{kPhiloxM0} * s.c0;
  const std::uint64_t p1 = std::uint64_t{kPhiloxM1} * s.c2;
  return {static_cast<std::uint32_t>(p1 >> 32) ^ s.c1 ^ k0,
          static_cast<std::uint32_t>(p1),
          static_cast<std::uint32_t>(p0 >> 32) ^ s.c3 ^ k1,
          static_cast<std::uint32_t>(p0)};
}

}  // namespace

std::array<std::uint32_t, 4> Philox4x32::block(std::array<std::uint32_t, 4> counter,
                                               std::uint32_t k0,
                                               std::uint32_t k1) noexcept {
  PhiloxState s{counter[0], counter[1], counter[2], counter[3]};
  for (int r = 0; r < 10; ++r) {
    s = philox_round(s, k0, k1);
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  return {s.c0, s.c1, s.c2, s.c3};
}

void Philox4x32::fill_blocks(std::uint64_t key, std::uint64_t stream,
                             std::uint64_t first_block, std::uint32_t* out,
                             std::size_t blocks) noexcept {
  const auto k0_init = static_cast<std::uint32_t>(key);
  const auto k1_init = static_cast<std::uint32_t>(key >> 32);
  const auto s_lo = static_cast<std::uint32_t>(stream);
  const auto s_hi = static_cast<std::uint32_t>(stream >> 32);

  std::size_t b = 0;
  // Four independent blocks in flight: each round is two 32x32 multiplies
  // on a short dependency chain, so interleaving four blocks keeps the
  // multiplier pipeline full (the same schedule the AVX2 kernel vectorizes).
  for (; b + 4 <= blocks; b += 4) {
    PhiloxState s[4];
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t blk = first_block + b + static_cast<std::uint64_t>(i);
      s[i] = {static_cast<std::uint32_t>(blk), static_cast<std::uint32_t>(blk >> 32),
              s_lo, s_hi};
    }
    std::uint32_t k0 = k0_init, k1 = k1_init;
    for (int r = 0; r < 10; ++r) {
      for (auto& lane : s) lane = philox_round(lane, k0, k1);
      k0 += kPhiloxW0;
      k1 += kPhiloxW1;
    }
    for (int i = 0; i < 4; ++i) {
      out[(b + static_cast<std::size_t>(i)) * 4 + 0] = s[i].c0;
      out[(b + static_cast<std::size_t>(i)) * 4 + 1] = s[i].c1;
      out[(b + static_cast<std::size_t>(i)) * 4 + 2] = s[i].c2;
      out[(b + static_cast<std::size_t>(i)) * 4 + 3] = s[i].c3;
    }
  }
  for (; b < blocks; ++b) {
    const std::uint64_t blk = first_block + b;
    const auto words = block({static_cast<std::uint32_t>(blk),
                              static_cast<std::uint32_t>(blk >> 32), s_lo, s_hi},
                             k0_init, k1_init);
    out[b * 4 + 0] = words[0];
    out[b * 4 + 1] = words[1];
    out[b * 4 + 2] = words[2];
    out[b * 4 + 3] = words[3];
  }
}

std::uint64_t derive_seed(std::uint64_t master, std::string_view label,
                          std::uint64_t index) noexcept {
  SplitMix64 sm(master ^ fnv1a(label));
  std::uint64_t h = sm();
  SplitMix64 sm2(h + 0x9e3779b97f4a7c15ULL * (index + 1));
  return sm2();
}

}  // namespace monohids::util
