// EmpiricalDistribution::decode_runs against hostile bytes.
//
// A console decodes runs that hosts send it, so the decoder is a parser of
// untrusted input. Seeded valid encodings, built by an independent varint
// writer from random runs (sparse and dense values, counts up to the
// 2^32 - 1 total, the largest value), are mutated: cut at many offsets,
// bytes flipped, inserted and deleted, and fields rewritten as overlong
// varints, varints above 2^32 - 1, zero gaps, zero counts, overflowing
// values and totals, and a wrong run count. Every mutant must either throw
// InputError or decode to runs that re-encode to exactly its bytes, and an
// independent decoder must agree on which it is and on the runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stats/empirical.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

using Bytes = std::vector<std::uint8_t>;
constexpr std::uint64_t kMax32 = 0xFFFFFFFFull;

/// Appends `v` as LEB128; `overlong` adds a redundant 0x80 ... 0x00 tail.
void put(Bytes& out, std::uint64_t v, bool overlong = false) {
  do {
    const auto low = static_cast<std::uint8_t>(v & 0x7F);
    v >>= 7;
    out.push_back(v != 0 || overlong ? static_cast<std::uint8_t>(low | 0x80) : low);
  } while (v != 0);
  if (overlong) out.push_back(0x00);
}

/// The wire fields: run count, then a (gap, count) pair per run.
Bytes write_fields(const std::vector<std::uint64_t>& fields, std::size_t overlong_at = SIZE_MAX) {
  Bytes out;
  for (std::size_t i = 0; i < fields.size(); ++i) put(out, fields[i], i == overlong_at);
  return out;
}

struct RefRuns {
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> cum;
};

/// Independent reader: split the bytes into varints of at most five bytes
/// (a canonical one never ends in a zero byte after its first), then check
/// the field list as a whole.
std::optional<RefRuns> reference_decode(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint64_t> fields;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::uint64_t v = 0;
    std::size_t len = 0;
    for (;;) {
      if (pos == bytes.size() || len == 5) return std::nullopt;
      const std::uint8_t b = bytes[pos++];
      v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * len);
      ++len;
      if ((b & 0x80) == 0) {
        if (len > 1 && b == 0) return std::nullopt;
        break;
      }
    }
    if (v > kMax32) return std::nullopt;
    fields.push_back(v);
  }
  if (fields.empty() || fields.size() != 1 + 2 * fields[0]) return std::nullopt;
  RefRuns runs;
  std::uint64_t value = 0;
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k < fields[0]; ++k) {
    const std::uint64_t gap = fields[1 + 2 * k];
    const std::uint64_t count = fields[2 + 2 * k];
    if ((k > 0 && gap == 0) || count == 0) return std::nullopt;
    value += gap;
    total += count;
    if (value > kMax32 || total > kMax32) return std::nullopt;
    runs.values.push_back(value);
    runs.cum.push_back(total);
  }
  return runs;
}

/// Random valid fields: sparse or dense values, small or huge counts.
std::vector<std::uint64_t> seed_fields(std::uint64_t c, util::Xoshiro256& rng) {
  const std::uint64_t n = c % 7 == 0 ? c % 3 : 1 + rng() % (c % 2 == 0 ? 12 : 160);
  const std::uint64_t gap_cap = std::uint64_t{1} << (1 + c % 5 * 7);   // 2 .. 2^29
  const std::uint64_t count_cap = std::uint64_t{1} << (1 + c % 4 * 9);  // 2 .. 2^28
  std::vector<std::uint64_t> fields{n};
  std::uint64_t value = 0;
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::uint64_t gap = (k == 0 && rng() % 2 == 0) ? 0 : 1 + rng() % gap_cap;
    std::uint64_t count = 1 + rng() % count_cap;
    // Stay within 2^32 - 1, leaving one per remaining run.
    const std::uint64_t left = n - k - 1;
    gap = std::min(gap, kMax32 - left - value);
    count = std::min(count, kMax32 - left - total);
    if (c % 11 == 3 && k + 1 == n) {  // land on the largest value and total
      gap = kMax32 - value;
      count = kMax32 - total;
    }
    if (k > 0 && gap == 0) gap = 1;
    value += gap;
    total += count;
    fields.push_back(gap);
    fields.push_back(count);
  }
  return fields;
}

class Campaign {
 public:
  std::size_t mutants = 0;
  std::size_t rejected = 0;

  /// Decodes `bytes` with both readers; `must_reject` mutants break a rule.
  void check(const Bytes& bytes, const std::string& label, bool must_reject = false) {
    ++mutants;
    const auto reference = reference_decode(bytes);
    std::optional<EmpiricalDistribution> decoded;
    try {
      decoded = EmpiricalDistribution::decode_runs(bytes);
    } catch (const InputError&) {
      ++rejected;
    }
    ASSERT_EQ(decoded.has_value(), reference.has_value()) << label;
    if (must_reject) {
      ASSERT_FALSE(decoded.has_value()) << label;
    }
    if (!decoded) return;
    ASSERT_EQ(decoded->values().size(), reference->values.size()) << label;
    for (std::size_t k = 0; k < reference->values.size(); ++k) {
      ASSERT_EQ(decoded->values()[k], static_cast<double>(reference->values[k])) << label;
      ASSERT_EQ(decoded->cumulative_counts()[k], reference->cum[k]) << label;
    }
    Bytes again;
    decoded->encode_runs(again);
    ASSERT_EQ(again, bytes) << label;
  }
};

TEST(RunsCodecMutation, MutantsThrowOrReencodeToThemselves) {
  Campaign campaign;
  for (std::uint64_t c = 0; c < 300; ++c) {
    util::Xoshiro256 rng(0x5eed0000 + c);
    const auto fields = seed_fields(c, rng);
    const Bytes valid = write_fields(fields);
    const std::string seed = "seed " + std::to_string(c);
    campaign.check(valid, seed);
    ASSERT_TRUE(reference_decode(valid).has_value()) << seed;

    // Cuts: every offset of short encodings, 40 of long ones.
    const std::size_t cuts = std::min<std::size_t>(valid.size(), 40);
    for (std::size_t i = 0; i < cuts; ++i) {
      const std::size_t len = valid.size() <= 40 ? i : rng() % valid.size();
      campaign.check(Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len)),
                     seed + " cut at " + std::to_string(len), true);
    }
    // Byte flips: one bit, or a whole random byte.
    for (int i = 0; i < 24; ++i) {
      Bytes m = valid;
      const std::size_t at = rng() % m.size();
      const auto mask = static_cast<std::uint8_t>(i % 2 == 0 ? 1u << (rng() % 8) : 1 + rng() % 255);
      m[at] ^= mask;
      campaign.check(m, seed + " flip " + std::to_string(at));
    }
    // Inserted and deleted bytes.
    const std::uint8_t specials[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
    for (int i = 0; i < 10; ++i) {
      Bytes m = valid;
      const std::size_t at = rng() % (m.size() + 1);
      const auto b = i % 2 == 0 ? specials[rng() % 5] : static_cast<std::uint8_t>(rng());
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), b);
      campaign.check(m, seed + " insert at " + std::to_string(at));
    }
    for (int i = 0; i < 10; ++i) {
      Bytes m = valid;
      const std::size_t at = rng() % m.size();
      m.erase(m.begin() + static_cast<std::ptrdiff_t>(at));
      campaign.check(m, seed + " delete at " + std::to_string(at));
    }

    // Field rewrites, each of which breaks a rule.
    for (int i = 0; i < 3; ++i) {
      const std::size_t at = rng() % fields.size();
      campaign.check(write_fields(fields, at), seed + " overlong field " + std::to_string(at),
                     true);
    }
    {
      auto f = fields;
      f[rng() % f.size()] += std::uint64_t{1} << 32;  // a 5-byte varint above 2^32 - 1
      campaign.check(write_fields(f), seed + " field above 2^32-1", true);
    }
    for (int delta : {-1, 1}) {
      if (fields[0] == 0 && delta < 0) continue;
      auto f = fields;
      f[0] += static_cast<std::uint64_t>(delta);
      campaign.check(write_fields(f), seed + " run count " + std::to_string(delta), true);
    }
    const std::uint64_t n = fields[0];
    if (n == 0) continue;
    if (n >= 2) {
      auto f = fields;
      f[1 + 2 * (1 + rng() % (n - 1))] = 0;
      campaign.check(write_fields(f), seed + " zero gap", true);
    }
    {
      auto f = fields;
      f[2 + 2 * (rng() % n)] = 0;
      campaign.check(write_fields(f), seed + " zero count", true);
    }
    {
      // Raise one count or gap so the total or the last value reaches 2^32.
      std::uint64_t total = 0;
      std::uint64_t value = 0;
      for (std::uint64_t k = 0; k < n; ++k) {
        value += fields[1 + 2 * k];
        total += fields[2 + 2 * k];
      }
      auto f = fields;
      const std::uint64_t k = rng() % n;
      f[2 + 2 * k] += kMax32 + 1 - total;
      campaign.check(write_fields(f), seed + " total past 2^32-1", true);
      f = fields;
      f[1 + 2 * k] += kMax32 + 1 - value;
      campaign.check(write_fields(f), seed + " value past 2^32-1", true);
    }
  }
  EXPECT_GE(campaign.mutants, 10000u);
  // Most mutants are rejected, but not all: some flips and inserts land on
  // another valid encoding, which must then re-encode to itself.
  EXPECT_GT(campaign.rejected, campaign.mutants / 2);
  EXPECT_LT(campaign.rejected, campaign.mutants);
  std::cout << "[ runs   ] " << campaign.mutants << " mutants, " << campaign.rejected
            << " rejected\n";
}

}  // namespace
}  // namespace monohids::stats
