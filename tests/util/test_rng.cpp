#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <vector>

namespace monohids::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, IsDeterministic) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, Uniform01StaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, Uniform01MeanIsHalf) {
  Xoshiro256 rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform01();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Xoshiro256, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256>);
  static_assert(std::uniform_random_bit_generator<SplitMix64>);
}

TEST(DeriveSeed, StableAcrossCalls) {
  EXPECT_EQ(derive_seed(42, "user", 7), derive_seed(42, "user", 7));
}

TEST(DeriveSeed, SensitiveToEveryInput) {
  const auto base = derive_seed(42, "user", 7);
  EXPECT_NE(base, derive_seed(43, "user", 7));
  EXPECT_NE(base, derive_seed(42, "web", 7));
  EXPECT_NE(base, derive_seed(42, "user", 8));
}

TEST(DeriveSeed, IndexNeighborsUncorrelated) {
  // Engines seeded from adjacent indices must not produce aligned output.
  Xoshiro256 a(derive_seed(1, "x", 0));
  Xoshiro256 b(derive_seed(1, "x", 1));
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, BitsLookBalanced) {
  // Population count over many draws should be close to 32 per word.
  Xoshiro256 rng(1234);
  double total_bits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) total_bits += std::popcount(rng());
  EXPECT_NEAR(total_bits / n, 32.0, 0.2);
}

TEST(Philox4x32, MatchesPublishedKnownAnswerVectors) {
  // The Random123 reference vectors for philox4x32-10 (Salmon et al.,
  // kat_vectors): counter/key of all zeros, all ones, and the pi digits.
  // These pin the constants, the round count, and the word order; the v2
  // scenario contract is defined in terms of exactly this function.
  using A4 = std::array<std::uint32_t, 4>;
  EXPECT_EQ(Philox4x32::block({0u, 0u, 0u, 0u}, 0u, 0u),
            (A4{0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu, 0x9b00dbd8u}));
  EXPECT_EQ(Philox4x32::block({0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
                              0xffffffffu, 0xffffffffu),
            (A4{0x408f276du, 0x41c83b0eu, 0xa20bc7c6u, 0x6d5451fdu}));
  EXPECT_EQ(Philox4x32::block({0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
                              0xa4093822u, 0x299f31d0u),
            (A4{0xd16cfe09u, 0x94fdccebu, 0x5001e420u, 0x24126ea1u}));
}

TEST(Philox4x32, SeekMatchesSerialStepping) {
  // Random access is the property the v2 contract builds on: the engine
  // positioned at draw k must continue exactly like one stepped k times.
  Philox4x32 serial(0xfeedface12345678ull, 7);
  std::vector<std::uint32_t> words(64);
  for (auto& w : words) w = serial();
  for (const std::uint64_t k : {0ull, 1ull, 3ull, 4ull, 5ull, 17ull, 63ull}) {
    Philox4x32 seeked(0xfeedface12345678ull, 7);
    seeked.seek(k);
    EXPECT_EQ(seeked.draw_index(), k);
    for (std::uint64_t i = k; i < words.size(); ++i) {
      ASSERT_EQ(seeked(), words[i]) << "seek(" << k << ") word " << i;
    }
  }
}

TEST(Philox4x32, DrawIndexTracksConsumption) {
  Philox4x32 rng(42, 0);
  for (std::uint64_t i = 0; i < 13; ++i) {
    EXPECT_EQ(rng.draw_index(), i);
    (void)rng();
  }
}

TEST(Philox4x32, FillBlocksMatchesTheEngineWordForWord) {
  // The portable bulk form is the reference for the SIMD kernels and must
  // itself agree with the serial engine, including at nonzero offsets.
  const std::uint64_t key = derive_seed(42, "v2/bins", 0);
  const std::uint64_t stream = 511;
  Philox4x32 engine(key, stream);
  std::vector<std::uint32_t> serial(40 * 4);
  for (auto& w : serial) w = engine();
  std::vector<std::uint32_t> bulk(40 * 4);
  Philox4x32::fill_blocks(key, stream, 0, bulk.data(), 40);
  EXPECT_EQ(bulk, serial);
  std::vector<std::uint32_t> offset(25 * 4);
  Philox4x32::fill_blocks(key, stream, 15, offset.data(), 25);
  EXPECT_TRUE(std::equal(offset.begin(), offset.end(), serial.begin() + 15 * 4));
}

TEST(Philox4x32, Uniform01IsTheWordTimesTwoToMinus32) {
  Philox4x32 a(99, 3), b(99, 3);
  for (int i = 0; i < 100; ++i) {
    const double u = a.uniform01();
    EXPECT_EQ(u, static_cast<double>(b()) * 0x1.0p-32);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Philox4x32, MonobitBalanced) {
  // NIST-style monobit smoke on one stream: ones fraction over 32k words
  // within 4 sigma of 1/2 (sigma = 1/(2*sqrt(bits))).
  Philox4x32 rng(derive_seed(7, "quality", 0), 0);
  const int n = 32768;
  double ones = 0;
  for (int i = 0; i < n; ++i) ones += std::popcount(rng());
  const double frac = ones / (32.0 * n);
  EXPECT_NEAR(frac, 0.5, 4.0 * 0.5 / std::sqrt(32.0 * n));
}

TEST(Philox4x32, ChiSquareUniformOver16Bins) {
  // 16-bin chi-square on uniform01 draws: 15 degrees of freedom, mean 15,
  // variance 30. 50 keeps the false-positive rate ~1e-8 while still
  // catching any gross bin bias.
  Philox4x32 rng(derive_seed(7, "quality", 1), 0);
  const int n = 65536;
  std::array<int, 16> bins{};
  for (int i = 0; i < n; ++i) {
    ++bins[static_cast<std::size_t>(rng.uniform01() * 16.0)];
  }
  const double expected = n / 16.0;
  double chi2 = 0.0;
  for (const int b : bins) {
    const double d = b - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 50.0);
}

TEST(Philox4x32, AdjacentStreamsAndKeysAreUncorrelated) {
  // The v2 draw-key layout puts adjacent bins in adjacent streams of one
  // per-user key and adjacent users in sibling derived keys; neither
  // neighbor relation may leak correlation. Checked as: no equal words at
  // the same position, and the bitwise-XOR density between paired draws
  // stays near 16 of 32 bits.
  const auto check_pair = [](Philox4x32 a, Philox4x32 b) {
    int equal = 0;
    double xor_bits = 0.0;
    const int n = 4096;
    for (int i = 0; i < n; ++i) {
      const std::uint32_t wa = a(), wb = b();
      equal += wa == wb;
      xor_bits += std::popcount(wa ^ wb);
    }
    EXPECT_EQ(equal, 0);
    EXPECT_NEAR(xor_bits / n, 16.0, 0.5);
  };
  const std::uint64_t key = derive_seed(42, "v2/bins", 0);
  check_pair(Philox4x32(key, 100), Philox4x32(key, 101));
  check_pair(Philox4x32(derive_seed(42, "v2/bins", 1), 100),
             Philox4x32(derive_seed(43, "v2/bins", 1), 100));
}

}  // namespace
}  // namespace monohids::util
