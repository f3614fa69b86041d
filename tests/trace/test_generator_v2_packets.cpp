// The v2 counter-mode packet renderer. Its packets are built from exactly
// the draws the v2 feature renderer reads, so the packet path must agree
// with generate_features bin for bin on the five counted features (the
// distinct-destination count is an expectation formula on the feature
// path and agrees only statistically), a window must hold exactly the full
// trace's packets inside it, and the output must not depend on how it is
// produced: batch or streamed, any batch size, any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "features/pipeline.hpp"
#include "sim/scenario.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "trace/v2_contract.hpp"

namespace monohids::trace {
namespace {

using features::FeatureKind;

constexpr FeatureKind kCountedFeatures[] = {
    FeatureKind::TcpConnections, FeatureKind::UdpConnections, FeatureKind::DnsConnections,
    FeatureKind::HttpConnections, FeatureKind::TcpSyn};

GeneratorConfig v2_config(std::uint32_t weeks, std::uint32_t bin_minutes) {
  GeneratorConfig config;
  config.weeks = weeks;
  config.grid = util::BinGrid::minutes(bin_minutes);
  return config;
}

/// The paper-scale population (seed 42), from which the tests pick
/// ordinary users and the most intense (extreme) host.
const std::vector<UserProfile>& population() {
  static const std::vector<UserProfile> users = [] {
    PopulationConfig pc;
    pc.user_count = 350;
    pc.seed = 42;
    pc.weeks = 5;
    return generate_population(pc);
  }();
  return users;
}

const UserProfile& extreme_host() {
  const auto& users = population();
  return *std::max_element(users.begin(), users.end(),
                           [](const UserProfile& a, const UserProfile& b) {
                             return a.intensity < b.intensity;
                           });
}

/// A host busy enough that many bins hold more than kParetoDirectCap web,
/// P2P and update sessions (the histogram-and-shuffle split path).
UserProfile crowded_host() {
  UserProfile u = population()[3];
  u.session_rate_per_hour[index_of(AppKind::Web)] = 800.0;
  u.session_rate_per_hour[index_of(AppKind::P2p)] = 600.0;
  u.session_rate_per_hour[index_of(AppKind::Update)] = 600.0;
  return u;
}

/// Extracts features from generate_packets over [begin, end) and compares
/// the counted features with generate_features in every bin of the window.
void expect_exact_agreement(const TraceGenerator& generator, const UserProfile& user,
                            util::Timestamp begin, util::Timestamp end,
                            const std::string& what) {
  const GeneratorConfig& config = generator.config();
  features::PipelineConfig pipeline;
  pipeline.grid = config.grid;
  pipeline.horizon = config.horizon();
  const auto packets = generator.generate_packets(user, begin, end);
  ASSERT_FALSE(packets.empty()) << what;
  const auto extracted = features::extract_features(user.address, packets, pipeline).matrix;
  const auto expected = generator.generate_features(user);

  // Bins the window covers in full (its edge bins may be clipped).
  const std::uint64_t first = (begin + config.grid.width() - 1) / config.grid.width();
  const std::uint64_t last = end / config.grid.width();
  ASSERT_LT(first, last) << what;
  double counted = 0;
  for (std::uint64_t b = first; b < last; ++b) {
    for (const FeatureKind f : kCountedFeatures) {
      ASSERT_EQ(extracted.of(f).at(b), expected.of(f).at(b))
          << what << " bin " << b << " " << features::name_of(f);
      counted += expected.of(f).at(b);
    }
  }
  EXPECT_GT(counted, 0.0) << what;
}

TEST(GeneratorV2Packets, CountedFeaturesAgreeExactlyWithTheFeaturePath) {
  // Ordinary users and the extreme host, in the first, middle and last
  // weeks of the horizon (each window renders only its own bins).
  const TraceGenerator generator(v2_config(5, 15));
  const util::Duration day = util::kMicrosPerDay;
  // A resolver-cache share of exactly one half makes every odd lookup
  // count a rounding tie, which both paths must break away from zero.
  UserProfile half_hit = population()[1];
  half_hit.dns_cache_hit = 0.5;
  std::vector<const UserProfile*> users = {&population()[0], &population()[1],
                                           &population()[17], &extreme_host(), &half_hit};
  for (const UserProfile* u : users) {
    for (const std::uint32_t week : {0u, 2u, 4u}) {
      const util::Timestamp begin = week * util::kMicrosPerWeek + 2 * day;  // a Wednesday
      expect_exact_agreement(generator, *u, begin, begin + day / 2,
                             "user " + std::to_string(u->user_id) + " week " +
                                 std::to_string(week));
    }
  }
}

TEST(GeneratorV2Packets, CrowdedBinsSplitHistogramsExactly) {
  // Far more than kParetoDirectCap web, P2P and update sessions per bin:
  // the Pareto values arrive as histograms and are shuffled over sessions.
  const UserProfile u = crowded_host();
  const GeneratorConfig config = v2_config(1, 15);
  // Even at a quarter of full activity, a 15-minute bin expects over four
  // times kParetoDirectCap sessions of each of the three apps.
  const double bin_hours = 0.25;
  for (const AppKind app : {AppKind::Web, AppKind::P2p, AppKind::Update}) {
    ASSERT_GT(u.rate_of(app) * bin_hours * 0.25,
              4.0 * detail::FootprintTables32::kParetoDirectCap);
  }
  const TraceGenerator generator(config);
  expect_exact_agreement(generator, u, util::kMicrosPerDay + 9 * util::kMicrosPerHour,
                         util::kMicrosPerDay + 13 * util::kMicrosPerHour, "crowded host");
}

TEST(GeneratorV2Packets, PartialFinalBinAgreesOnA13MinuteGrid) {
  // 13-minute bins do not divide a week: the horizon ends in a bin that
  // overhangs the raw week, and activity is tabulated per bin.
  const GeneratorConfig config = v2_config(1, 13);
  const TraceGenerator generator(config);
  const util::Timestamp end = config.horizon();
  ASSERT_GT(end, util::kMicrosPerWeek);
  for (const UserProfile* u : {&population()[2], &extreme_host()}) {
    expect_exact_agreement(generator, *u, end - util::kMicrosPerDay / 3, end,
                           "13-minute grid user " + std::to_string(u->user_id));
    expect_exact_agreement(generator, *u, 2 * util::kMicrosPerDay,
                           2 * util::kMicrosPerDay + util::kMicrosPerDay / 3,
                           "13-minute grid mid-week user " + std::to_string(u->user_id));
  }
}

TEST(GeneratorV2Packets, LongBinsKeepEverySessionInsideItsBin) {
  // 660-minute bins: arrival offsets range past 2^32 microseconds, and the
  // last bin overhangs the raw week. Every bin must still agree exactly.
  const GeneratorConfig config = v2_config(1, 660);
  const TraceGenerator generator(config);
  const UserProfile& u = population()[4];
  expect_exact_agreement(generator, u, 0, config.horizon(), "660-minute grid");
}

TEST(GeneratorV2Packets, WindowEqualsFullTraceClippedToIt) {
  // A window holds exactly the full trace's packets inside it — any
  // window edges, including ones that split a bin.
  const TraceGenerator generator(v2_config(1, 15));
  const UserProfile& u = population()[5];
  const util::Timestamp horizon = generator.config().horizon();
  const auto whole = generator.generate_packets(u, 0, horizon);
  ASSERT_FALSE(whole.empty());
  const util::Timestamp edges[][2] = {
      {0, util::kMicrosPerDay},
      {26 * util::kMicrosPerHour + 123, 40 * util::kMicrosPerHour + 7},
      {horizon - util::kMicrosPerHour - 1, horizon},
      {3 * util::kMicrosPerDay + 15 * util::kMicrosPerMinute,
       3 * util::kMicrosPerDay + 30 * util::kMicrosPerMinute}};
  for (const auto& [begin, end] : edges) {
    std::vector<net::PacketRecord> clipped;
    std::copy_if(whole.begin(), whole.end(), std::back_inserter(clipped),
                 [&](const net::PacketRecord& p) {
                   return p.timestamp >= begin && p.timestamp < end;
                 });
    EXPECT_EQ(generator.generate_packets(u, begin, end), clipped)
        << "window [" << begin << ", " << end << ")";
  }
}

struct Collect final : features::PacketSink {
  std::vector<net::PacketRecord> all;
  void on_batch(std::span<const net::PacketRecord> batch) override {
    all.insert(all.end(), batch.begin(), batch.end());
  }
};

TEST(GeneratorV2Packets, StreamedEqualsBatchForEveryBatchSize) {
  const TraceGenerator generator(v2_config(1, 15));
  for (const UserProfile* u : {&population()[7], &extreme_host()}) {
    const util::Timestamp begin = 4 * util::kMicrosPerDay + 7;
    const util::Timestamp end = begin + util::kMicrosPerDay / 4;
    const auto batch = generator.generate_packets(*u, begin, end);
    ASSERT_FALSE(batch.empty());
    for (const std::size_t max_batch :
         {std::size_t{1}, std::size_t{997}, std::size_t{1} << 16}) {
      Collect sink;
      generator.generate_packets_streamed(*u, begin, end, sink, max_batch);
      EXPECT_EQ(sink.all, batch) << "user " << u->user_id << " max_batch " << max_batch;
    }
  }
}

TEST(GeneratorV2Packets, PacketFidelityScenarioMatchesBinFidelityAcrossThreads) {
  // The whole scenario at packet fidelity equals the bin-level scenario on
  // every counted feature, for any thread count and ingest batch size.
  sim::ScenarioConfig config;
  config.set_users(6);
  config.set_weeks(1);
  config.set_seed(2024);
  const sim::Scenario bins = build_scenario(config);

  config.fidelity = sim::TraceFidelity::Packets;
  config.threads = 1;
  const sim::Scenario serial = build_scenario(config);
  config.threads = 4;
  config.ingest_batch = 333;
  const sim::Scenario parallel = build_scenario(config);

  for (std::uint32_t u = 0; u < bins.user_count(); ++u) {
    for (const FeatureKind f : features::kAllFeatures) {
      const auto a = serial.matrices[u].of(f).values();
      const auto b = parallel.matrices[u].of(f).values();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "user " << u << " " << features::name_of(f);
    }
    for (const FeatureKind f : kCountedFeatures) {
      const auto a = serial.matrices[u].of(f).values();
      const auto b = bins.matrices[u].of(f).values();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "user " << u << " " << features::name_of(f);
    }
  }
}

/// Packet-path over feature-path distinct-destination totals for the first
/// two days of `user`.
double distinct_ratio(const GeneratorConfig& config, const UserProfile& user) {
  const TraceGenerator generator(config);
  features::PipelineConfig pipeline;
  pipeline.grid = config.grid;
  pipeline.horizon = config.horizon();
  const util::Timestamp end = 2 * util::kMicrosPerDay;
  const auto packets = generator.generate_packets(user, 0, end);
  const auto extracted = features::extract_features(user.address, packets, pipeline).matrix;
  const auto expected = generator.generate_features(user);
  double got = 0, want = 0;
  for (std::uint64_t b = 0; b < config.grid.bin_of(end); ++b) {
    got += extracted.of(FeatureKind::DistinctConnections).at(b);
    want += expected.of(FeatureKind::DistinctConnections).at(b);
  }
  return got / want;
}

TEST(GeneratorV2Packets, DistinctDestinationsTrackTheFeaturePathStatistically) {
  // The feature path turns destination draws into an expected distinct
  // count; the packet path makes the picks. The two agree only as well as
  // the model's expectation formula fits its popularity-weighted picks —
  // the same under the serial-stream (v1) contract this one replaced. The
  // v1 ratios of these users were measured by commit c31a951, the last
  // build with the v1 generator, and are frozen here.
  struct Case {
    std::size_t user;
    double v1_ratio;
  };
  for (const Case c : {Case{0, 0.47726184777405456}, Case{1, 0.65346267852330908},
                       Case{17, 0.55262403211930022}, Case{40, 0.63289529461636285}}) {
    const double v2 = distinct_ratio(v2_config(1, 15), population()[c.user]);
    // Measured ratios sit at 0.48-0.66 under both contracts.
    EXPECT_GT(v2, 0.35) << "user " << c.user;
    EXPECT_LT(v2, 0.9) << "user " << c.user;
    EXPECT_NEAR(v2, c.v1_ratio, 0.12) << "user " << c.user;
  }
}

TEST(GeneratorV2Packets, RenderIsReproducibleAndUserSpecific) {
  const TraceGenerator a(v2_config(1, 15));
  const TraceGenerator b(v2_config(1, 15));
  const util::Timestamp end = util::kMicrosPerDay / 2;
  const auto first = a.generate_packets(population()[9], 0, end);
  EXPECT_EQ(first, b.generate_packets(population()[9], 0, end));
  EXPECT_NE(first, a.generate_packets(population()[10], 0, end));
}

TEST(GeneratorV2Packets, BytesArePinned) {
  // FNV-1a over two users' packets on a fixed window: the v2 packet
  // contract must not drift when the code around it changes.
  const TraceGenerator generator(v2_config(2, 15));
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  std::size_t count = 0;
  for (const std::size_t u : {0u, 59u}) {
    const util::Timestamp begin = 8 * util::kMicrosPerDay;
    for (const auto& p : generator.generate_packets(population()[u], begin,
                                                    begin + util::kMicrosPerDay / 2)) {
      mix(p.timestamp, 8);
      mix(p.tuple.src_ip.value(), 4);
      mix(p.tuple.dst_ip.value(), 4);
      mix(p.tuple.src_port, 2);
      mix(p.tuple.dst_port, 2);
      mix(static_cast<std::uint64_t>(p.tuple.protocol), 1);
      mix(static_cast<std::uint64_t>(p.tcp_flags), 1);
      mix(p.payload_bytes, 2);
      ++count;
    }
  }
  EXPECT_EQ(count, 68835u);
  EXPECT_EQ(h, 4712571724246401432ULL);
}

}  // namespace
}  // namespace monohids::trace
