// EmpiricalDistribution::merge has two paths: parts whose values are all
// small non-negative integers (0..65535, never -0.0) have their run counts
// summed into one histogram, anything else — and tiny merges whose
// histogram would dwarf their run count — is sorted and coalesced. Both
// must give the runs of the pooled samples bit for bit. Every merge here is
// compared against oracle::SortedDistribution::merge (values by bit
// pattern, cumulative counts, mean()).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "oracle/sorted_distribution.hpp"
#include "stats/empirical.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

/// Slots per run from which merge sorts instead of counting
/// (kMergeSlotsPerRun in empirical.cpp).
constexpr std::size_t kSlotsPerRun = 8;

std::vector<std::uint64_t> bits_of(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// One part in both representations. The oracle's zeros are +0.0, the
/// representative a zero run keeps.
struct Part {
  EmpiricalDistribution dist;
  oracle::SortedDistribution reference;

  explicit Part(std::vector<double> samples)
      : dist(samples), reference(canonical_zeros(std::move(samples))) {}

  static std::vector<double> canonical_zeros(std::vector<double> samples) {
    for (double& v : samples) {
      if (v == 0.0) v = 0.0;
    }
    return samples;
  }
};

/// Merges `parts` both ways and compares values (bitwise), cumulative
/// counts and mean() bits.
void expect_merge_matches_oracle(const std::vector<Part>& parts, const std::string& label) {
  std::vector<EmpiricalDistribution> dists;
  std::vector<oracle::SortedDistribution> references;
  for (const Part& p : parts) {
    dists.push_back(p.dist);
    references.push_back(p.reference);
  }
  const EmpiricalDistribution merged = EmpiricalDistribution::merge(dists);
  const oracle::SortedDistribution expected = oracle::SortedDistribution::merge(references);
  ASSERT_EQ(merged.size(), expected.size()) << label;
  if (expected.size() == 0) {
    ASSERT_TRUE(merged.empty()) << label;
    return;
  }
  ASSERT_EQ(bits_of(merged.values()), bits_of(expected.distinct_values())) << label;
  const auto cum = merged.cumulative_counts();
  ASSERT_EQ(std::vector<std::uint32_t>(cum.begin(), cum.end()), expected.cumulative_counts())
      << label;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(merged.mean()),
            std::bit_cast<std::uint64_t>(expected.mean()))
      << label << " mean";
}

/// One host-week of 15-minute bins: about 20% idle bins, the rest counts
/// around a per-host scale, the busiest hosts reaching a few thousand.
std::vector<double> host_week(util::Xoshiro256& rng) {
  const double scale = std::exp(rng.uniform01() * 7.0);  // 1 .. ~1100
  std::vector<double> bins(672);
  for (double& v : bins) {
    v = rng() % 5 == 0 ? 0.0 : std::floor(scale * 3.0 * rng.uniform01() * rng.uniform01());
  }
  return bins;
}

TEST(EmpiricalMerge, HostWeekPoolsMatchOracle) {
  // A bank of host-weeks dealt into 200 pools of 1..400 parts (drawn with
  // replacement), with empty parts interleaved now and then.
  util::Xoshiro256 rng(0x6d65726765);
  std::vector<Part> bank;
  for (int h = 0; h < 600; ++h) bank.emplace_back(host_week(rng));
  const Part empty{std::vector<double>{}};
  for (int pool = 0; pool < 200; ++pool) {
    const std::size_t k = 1 + rng() % 400;
    std::vector<Part> parts;
    for (std::size_t i = 0; i < k; ++i) {
      if (rng() % 10 == 0) parts.push_back(empty);
      parts.push_back(bank[rng() % bank.size()]);
    }
    expect_merge_matches_oracle(parts, "pool " + std::to_string(pool) + " of " +
                                           std::to_string(k));
  }
}

TEST(EmpiricalMerge, LargestCountOnBothSidesOfTheHistogramRange) {
  // 9000 distinct values keep a 65536-slot histogram under kSlotsPerRun
  // slots per run, so 65535 is counted and 65536 (one past the range) is
  // sorted.
  static_assert(9000 * kSlotsPerRun > 65536);
  for (const double top : {65535.0, 65536.0}) {
    std::vector<double> wide;
    for (int v = 0; v < 9000; ++v) wide.push_back(v);
    std::vector<Part> parts;
    parts.emplace_back(wide);
    parts.emplace_back(std::vector<double>{0, 7, top, top});
    parts.emplace_back(std::vector<double>{8999, 65000, 1});
    expect_merge_matches_oracle(parts, "largest run " + std::to_string(top));
  }
}

TEST(EmpiricalMerge, OneNonIntegerOrNegativeRunSortsTheWholeMerge) {
  // The odd part sits first, in the middle or last among integer parts;
  // each merge is followed by an all-integer one, which must not see the
  // histogram the failed count left half filled.
  util::Xoshiro256 rng(0x0ddba11);
  for (const double odd : {0.5, -1.0}) {
    for (std::size_t at = 0; at < 3; ++at) {
      std::vector<Part> parts;
      for (std::size_t i = 0; i < 3; ++i) {
        if (i == at) {
          std::vector<double> samples = host_week(rng);
          samples[rng() % samples.size()] = odd;
          parts.emplace_back(std::move(samples));
        } else {
          parts.emplace_back(host_week(rng));
        }
      }
      const std::string label = "odd run " + std::to_string(odd) + " in part " +
                                std::to_string(at);
      expect_merge_matches_oracle(parts, label);
      parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(at));
      expect_merge_matches_oracle(parts, label + ", then without it");
    }
  }
}

TEST(EmpiricalMerge, NegativeZeroSamplesMergeIntoPositiveZeroRun) {
  std::vector<Part> parts;
  parts.emplace_back(std::vector<double>{-0.0, -0.0, 3.0});
  parts.emplace_back(std::vector<double>{-0.0, 1.0, 1.0});
  parts.emplace_back(std::vector<double>{0.0, 2.0});
  expect_merge_matches_oracle(parts, "signed zeros");
  std::vector<EmpiricalDistribution> dists;
  for (const Part& p : parts) dists.push_back(p.dist);
  const EmpiricalDistribution merged = EmpiricalDistribution::merge(dists);
  ASSERT_EQ(merged.values().front(), 0.0);
  EXPECT_FALSE(std::signbit(merged.values().front()));
  EXPECT_EQ(merged.cumulative_counts().front(), 4u);
}

TEST(EmpiricalMerge, EmptyPartsAreSkipped) {
  util::Xoshiro256 rng(0xe3971);
  const Part empty{std::vector<double>{}};
  std::vector<Part> parts{empty, Part{host_week(rng)}, empty, empty, Part{host_week(rng)},
                          Part{host_week(rng)}, empty};
  expect_merge_matches_oracle(parts, "interleaved empties");
  expect_merge_matches_oracle(std::vector<Part>{empty, empty}, "only empties");
}

TEST(EmpiricalMerge, SingleNonEmptyPartIsAPointerCopy) {
  util::Xoshiro256 rng(0x517);
  const EmpiricalDistribution only{host_week(rng)};
  const std::vector<EmpiricalDistribution> parts{EmpiricalDistribution{}, only,
                                                 EmpiricalDistribution{}};
  const EmpiricalDistribution merged = EmpiricalDistribution::merge(parts);
  EXPECT_EQ(merged.values().data(), only.values().data());
  EXPECT_EQ(merged.cumulative_counts().data(), only.cumulative_counts().data());
}

TEST(EmpiricalMerge, TinyMergesOnBothSidesOfTheSlotsPerRunCutoff) {
  // Two 3-run parts: 6 runs, so a largest value of 6 * kSlotsPerRun - 1 is
  // counted and 6 * kSlotsPerRun is sorted; far above it (60000) is sorted.
  const double edge = static_cast<double>(6 * kSlotsPerRun);
  for (const double top : {edge - 1.0, edge, 60000.0}) {
    std::vector<Part> parts;
    parts.emplace_back(std::vector<double>{0, 2, 2, top});
    parts.emplace_back(std::vector<double>{1, 2, top, top});
    expect_merge_matches_oracle(parts, "tiny merge up to " + std::to_string(top));
  }
}

}  // namespace
}  // namespace monohids::stats
