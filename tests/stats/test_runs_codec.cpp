// EmpiricalDistribution's runs wire format: hand-worked bytes, the edges
// of what it holds, one rejected byte string per decoder rule, and a round
// trip of every host-week of the default scenario (350 users x 5 weeks,
// seed 42), alone and pooled.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "features/feature.hpp"
#include "sim/scenario.hpp"
#include "stats/empirical.hpp"
#include "util/error.hpp"

namespace monohids::stats {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes encode(const EmpiricalDistribution& dist) {
  Bytes out;
  dist.encode_runs(out);
  return out;
}

/// Same runs, bit for bit.
void expect_same_runs(const EmpiricalDistribution& a, const EmpiricalDistribution& b,
                      const std::string& label) {
  ASSERT_EQ(a.values().size(), b.values().size()) << label;
  for (std::size_t k = 0; k < a.values().size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.values()[k]),
              std::bit_cast<std::uint64_t>(b.values()[k]))
        << label << " run " << k;
    ASSERT_EQ(a.cumulative_counts()[k], b.cumulative_counts()[k]) << label << " run " << k;
  }
}

TEST(RunsCodec, HandWorkedBytes) {
  // Runs (0, 2), (3, 3), (200, 1): run count 3, then gap 0 count 2, gap 3
  // count 3, gap 197 (0xC5 0x01) count 1.
  const std::vector<double> samples{3, 0, 200, 3, 0, 3};
  const EmpiricalDistribution dist(samples);
  const Bytes expected{0x03, 0x00, 0x02, 0x03, 0x03, 0xC5, 0x01, 0x01};
  EXPECT_EQ(encode(dist), expected);
  expect_same_runs(EmpiricalDistribution::decode_runs(expected), dist, "hand-worked");
}

TEST(RunsCodec, EmptyDistributionIsOneZeroByte) {
  EXPECT_EQ(encode(EmpiricalDistribution{}), Bytes{0x00});
  EXPECT_TRUE(EmpiricalDistribution::decode_runs(Bytes{0x00}).empty());
}

TEST(RunsCodec, EncodeAppends) {
  Bytes out{0xAB};
  const std::vector<double> one{5.0};
  EmpiricalDistribution(one).encode_runs(out);
  EXPECT_EQ(out, (Bytes{0xAB, 0x01, 0x05, 0x01}));
}

TEST(RunsCodec, LargestValueAndTotalRoundTrip) {
  // One run at value 2^32 - 1 holding 2^32 - 1 samples: 5-byte varints
  // whose last byte carries the top four bits.
  const Bytes bytes{0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
  const auto dist = EmpiricalDistribution::decode_runs(bytes);
  ASSERT_EQ(dist.values().size(), 1u);
  EXPECT_EQ(dist.values()[0], 4294967295.0);
  EXPECT_EQ(dist.cumulative_counts()[0], 4294967295u);
  EXPECT_EQ(encode(dist), bytes);
}

TEST(RunsCodec, ValuesItCannotHoldAreAPreconditionError) {
  for (const double bad : {-1.0, 0.5, 4294967296.0, 1e300}) {
    const std::vector<double> samples{1.0, bad};
    Bytes out{0x7F};
    EXPECT_THROW(EmpiricalDistribution(samples).encode_runs(out), PreconditionError) << bad;
    EXPECT_EQ(out, Bytes{0x7F}) << "nothing appended for " << bad;
  }
  const std::vector<double> zeros{-0.0, 0.0};  // one +0.0 run
  EXPECT_EQ(encode(EmpiricalDistribution(zeros)), (Bytes{0x01, 0x00, 0x02}));
}

TEST(RunsCodec, EachRuleRejectsItsByteString) {
  const std::vector<std::pair<std::string, Bytes>> cases = {
      {"no bytes", {}},
      {"truncated run count", {0x80}},
      {"truncated count", {0x01, 0x80, 0x01}},
      {"truncated gap varint", {0x01, 0x85, 0x80}},
      {"overlong run count", {0x80, 0x00}},
      {"overlong gap", {0x01, 0x81, 0x00, 0x01}},
      {"overlong count", {0x01, 0x00, 0x82, 0x80, 0x00}},
      {"varint above 2^32-1", {0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F}},
      {"six-byte varint", {0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x8F, 0x01}},
      {"run count above bytes / 2", {0x02, 0x00, 0x01, 0x01}},
      {"huge run count", {0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
      {"zero gap after the first run", {0x02, 0x00, 0x01, 0x00, 0x01}},
      {"zero count", {0x01, 0x00, 0x00}},
      {"value past 2^32-1",
       {0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x01, 0x01, 0x01}},
      {"total past 2^32-1",
       {0x02, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x01, 0x01}},
      {"trailing byte after empty", {0x00, 0x00}},
      {"trailing byte after a run", {0x01, 0x00, 0x01, 0x00}},
  };
  for (const auto& [label, bytes] : cases) {
    EXPECT_THROW((void)EmpiricalDistribution::decode_runs(bytes), InputError) << label;
  }
}

TEST(RunsCodec, EveryHostWeekOfTheDefaultScenarioRoundTrips) {
  // The default scenario: 350 users x 5 weeks, seed 42.
  const sim::Scenario scenario = sim::build_scenario(sim::ScenarioConfig{});
  const std::uint32_t weeks = scenario.config.generator.weeks;
  ASSERT_EQ(scenario.user_count(), 350u);
  ASSERT_EQ(weeks, 5u);
  std::uint64_t week0_bytes = 0;
  for (features::FeatureKind f : features::kAllFeatures) {
    for (std::uint32_t week = 0; week < weeks; ++week) {
      std::vector<EmpiricalDistribution> originals;
      std::vector<EmpiricalDistribution> decoded;
      for (std::uint32_t u = 0; u < scenario.user_count(); ++u) {
        const std::string label = std::string(features::name_of(f)) + " week " +
                                  std::to_string(week) + " user " + std::to_string(u);
        originals.emplace_back(scenario.matrices[u].of(f).week_slice(week));
        const Bytes bytes = encode(originals.back());
        if (week == 0) week0_bytes += bytes.size();
        decoded.push_back(EmpiricalDistribution::decode_runs(bytes));
        expect_same_runs(decoded.back(), originals.back(), label);
        ASSERT_EQ(encode(decoded.back()), bytes) << label;
      }
      expect_same_runs(EmpiricalDistribution::merge(decoded),
                       EmpiricalDistribution::merge(originals),
                       std::string(features::name_of(f)) + " pooled week " +
                           std::to_string(week));
    }
  }
  // The training week's uplink that ext_management_cost reports (271.6 KiB).
  EXPECT_EQ(week0_bytes, 278090u);
}

}  // namespace
}  // namespace monohids::stats
