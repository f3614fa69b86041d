#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "trace/population.hpp"
#include "util/error.hpp"

namespace monohids::trace {
namespace {

using features::FeatureKind;
using util::kMicrosPerDay;
using util::kMicrosPerWeek;

UserProfile test_user(std::uint64_t seed = 42, double intensity = 2.0) {
  PopulationConfig config;
  config.user_count = 10;
  config.seed = seed;
  auto users = generate_population(config);
  UserProfile u = users[3];
  const double scale = intensity / u.intensity;
  u.intensity = intensity;
  for (AppKind app : kAllApps) {
    u.session_rate_per_hour[index_of(app)] *= scale;
  }
  return u;
}

GeneratorConfig one_week() {
  GeneratorConfig config;
  config.weeks = 1;
  return config;
}

TEST(Generator, FeatureMatrixIsDeterministic) {
  const TraceGenerator gen(one_week());
  const UserProfile u = test_user();
  const auto a = gen.generate_features(u);
  const auto b = gen.generate_features(u);
  for (FeatureKind f : features::kAllFeatures) {
    for (std::size_t bin = 0; bin < a.of(f).bin_count(); ++bin) {
      ASSERT_DOUBLE_EQ(a.of(f).at(bin), b.of(f).at(bin));
    }
  }
}

TEST(Generator, MatrixCoversConfiguredHorizon) {
  GeneratorConfig config;
  config.weeks = 3;
  const TraceGenerator gen(config);
  const auto m = gen.generate_features(test_user());
  EXPECT_EQ(m.of(FeatureKind::TcpConnections).bin_count(), 3u * 672u);
}

TEST(Generator, TrafficFollowsDiurnalRhythm) {
  const TraceGenerator gen(one_week());
  const auto m = gen.generate_features(test_user(42, 8.0));
  const auto& tcp = m.of(FeatureKind::TcpConnections);
  // Average over work-hour bins (Tue 10:00-16:00) vs night bins (Tue 01:00-05:00).
  double work = 0, night = 0;
  int work_n = 0, night_n = 0;
  const auto grid = tcp.grid();
  for (std::size_t b = 0; b < tcp.bin_count(); ++b) {
    const auto t = grid.bin_start(b);
    if (util::day_of_week(t) != 1) continue;
    const double hour = util::hour_of_day(t);
    if (hour >= 10 && hour < 16) {
      work += tcp.at(b);
      ++work_n;
    } else if (hour >= 1 && hour < 5) {
      night += tcp.at(b);
      ++night_n;
    }
  }
  ASSERT_GT(work_n, 0);
  ASSERT_GT(night_n, 0);
  EXPECT_GT(work / work_n, 3.0 * (night / night_n + 1.0));
}

TEST(Generator, HeavierUsersProduceMoreTraffic) {
  const TraceGenerator gen(one_week());
  const auto light = gen.generate_features(test_user(42, 0.5));
  const auto heavy = gen.generate_features(test_user(42, 10.0));
  double light_total = 0, heavy_total = 0;
  for (std::size_t b = 0; b < light.of(FeatureKind::TcpConnections).bin_count(); ++b) {
    light_total += light.of(FeatureKind::TcpConnections).at(b);
    heavy_total += heavy.of(FeatureKind::TcpConnections).at(b);
  }
  EXPECT_GT(heavy_total, 5.0 * light_total);
}

TEST(Generator, PacketsAreTimeOrderedAndInRange) {
  const TraceGenerator gen(one_week());
  const auto packets = gen.generate_packets(test_user(), 0, kMicrosPerDay);
  ASSERT_FALSE(packets.empty());
  for (std::size_t i = 1; i < packets.size(); ++i) {
    ASSERT_LE(packets[i - 1].timestamp, packets[i].timestamp);
  }
  EXPECT_LT(packets.back().timestamp, kMicrosPerDay);
}

TEST(Generator, EveryPacketInvolvesTheUser) {
  const TraceGenerator gen(one_week());
  const UserProfile u = test_user();
  const auto packets = gen.generate_packets(u, 0, kMicrosPerDay / 2);
  for (const auto& p : packets) {
    ASSERT_TRUE(p.tuple.src_ip == u.address || p.tuple.dst_ip == u.address);
  }
}

TEST(Generator, WindowedGenerationSeesSameSessions) {
  // Generating [day2, day3) alone must produce the same packet count in that
  // window as generating [0, day3) and filtering (session-level determinism).
  const TraceGenerator gen(one_week());
  const UserProfile u = test_user();
  const auto window = gen.generate_packets(u, 2 * kMicrosPerDay, 3 * kMicrosPerDay);
  auto whole = gen.generate_packets(u, 0, 3 * kMicrosPerDay);
  std::erase_if(whole, [](const net::PacketRecord& p) {
    return p.timestamp < 2 * kMicrosPerDay;
  });
  // Same sessions at the same arrival times; allow tiny clipping differences
  // for sessions straddling the window edges.
  EXPECT_NEAR(static_cast<double>(window.size()), static_cast<double>(whole.size()),
              std::max(20.0, 0.02 * static_cast<double>(whole.size())));
}

TEST(Generator, InvalidRangesAreErrors) {
  const TraceGenerator gen(one_week());
  const UserProfile u = test_user();
  EXPECT_THROW((void)gen.generate_packets(u, 100, 100), PreconditionError);
  EXPECT_THROW((void)gen.generate_packets(u, 0, 2 * kMicrosPerWeek), PreconditionError);
}

TEST(Generator, PoolsAreDeterministicPerUser) {
  const TraceGenerator gen(one_week());
  const UserProfile u = test_user();
  const auto a = gen.make_pools(u);
  const auto b = gen.make_pools(u);
  ASSERT_EQ(a.web_servers.size(), b.web_servers.size());
  EXPECT_EQ(a.web_servers, b.web_servers);
  EXPECT_EQ(a.peer_pool, b.peer_pool);
  EXPECT_GE(a.web_servers.size(), 8u);
}

TEST(Generator, HorizonIsBinAligned) {
  // Default grids divide the week exactly: the horizon stays weeks * week.
  GeneratorConfig config;
  EXPECT_EQ(config.horizon(), config.weeks * kMicrosPerWeek);
  // Non-divisible grids round UP to a whole bin so the feature path (which
  // always renders whole bins) and the packet path cover the same range.
  config.weeks = 1;
  config.grid = util::BinGrid::minutes(660);
  EXPECT_EQ(config.horizon() % config.grid.width(), 0u);
  EXPECT_GE(config.horizon(), kMicrosPerWeek);
  EXPECT_LT(config.horizon(), kMicrosPerWeek + config.grid.width());
}

TEST(Generator, ZeroWeeksIsAnError) {
  GeneratorConfig config;
  config.weeks = 0;
  EXPECT_THROW(TraceGenerator{config}, PreconditionError);
}

}  // namespace
}  // namespace monohids::trace
