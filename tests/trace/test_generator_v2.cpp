// Determinism suite for the counter-mode scenario contract: the rendered
// feature bytes must be a pure function of (config, user) — invariant to
// the bin-tile partition, the tile rendering order, and the SIMD back-end.
// There is no reference implementation to diff against; the contract IS
// the keyed draw layout (API_TOUR.md §16), so the suite pins its
// invariances plus a distributional check against the serial-stream (v1)
// model it replaced, whose totals are frozen below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "oracle/sampling.hpp"
#include "stats/kernels.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "trace/v2_contract.hpp"

namespace monohids::trace {
namespace {

void expect_bit_identical(const features::FeatureMatrix& a,
                          const features::FeatureMatrix& b, const std::string& what) {
  ASSERT_EQ(a.series.size(), b.series.size()) << what;
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    const auto va = a.series[s].values();
    const auto vb = b.series[s].values();
    ASSERT_EQ(va.size(), vb.size()) << what << " series " << s;
    ASSERT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0)
        << what << " series " << s;
  }
}

std::vector<UserProfile> small_population(std::uint32_t n, std::uint32_t weeks) {
  PopulationConfig pc;
  pc.user_count = n;
  pc.seed = 4242;
  pc.weeks = weeks;
  return generate_population(pc);
}

GeneratorConfig v2_config(std::uint32_t weeks, std::uint32_t bin_minutes) {
  GeneratorConfig config;
  config.weeks = weeks;
  config.grid = util::BinGrid::minutes(bin_minutes);
  return config;
}

/// Renders every bin of `user` through render_features_v2_tile in
/// consecutive tiles of `tile` bins.
features::FeatureMatrix render_in_tiles(const TraceGenerator& generator,
                                        const UserProfile& user, std::uint64_t tile) {
  const util::BinGrid grid = generator.config().grid;
  const util::Duration horizon = generator.config().horizon();
  const std::uint64_t bins = grid.bin_count(horizon);
  features::FeatureMatrix matrix;
  for (auto& series : matrix.series) series = features::BinnedSeries(grid, horizon);
  for (std::uint64_t begin = 0; begin < bins; begin += tile) {
    generator.render_features_v2_tile(user, begin, std::min(bins, begin + tile), matrix);
  }
  return matrix;
}

TEST(GeneratorV2, RenderIsReproducibleAcrossGeneratorInstances) {
  const auto users = small_population(6, 2);
  const TraceGenerator a(v2_config(2, 15));
  const TraceGenerator b(v2_config(2, 15));
  for (const UserProfile& u : users) {
    expect_bit_identical(a.generate_features(u), b.generate_features(u),
                         "user " + std::to_string(u.user_id));
  }
}

TEST(GeneratorV2, BinTilePartitionDoesNotChangeAnyByte) {
  // generate_features (one whole-horizon tile) vs bin-count-hostile tile
  // partitions, on grids that divide the week and grids that do not: every
  // partition must render identical bytes, because each (user, bin) owns
  // its own keyed stream.
  const auto users = small_population(4, 2);
  for (const std::uint32_t bin_minutes : {15u, 13u}) {
    const TraceGenerator generator(v2_config(2, bin_minutes));
    for (const UserProfile& u : users) {
      const auto expected = generator.generate_features(u);
      for (const std::uint64_t tile : {1u, 7u, 97u, 672u, 100000u}) {
        expect_bit_identical(render_in_tiles(generator, u, tile), expected,
                             "tile " + std::to_string(tile) + " bin-minutes " +
                                 std::to_string(bin_minutes) + " user " +
                                 std::to_string(u.user_id));
      }
    }
  }
}

TEST(GeneratorV2, OutOfOrderTileRenderMatchesGenerateFeatures) {
  // Tiles rendered directly through the parallel entry point, deliberately
  // back to front, must assemble the same matrix generate_features builds.
  const auto users = small_population(3, 1);
  const auto config = v2_config(1, 15);
  const TraceGenerator generator(config);
  const std::uint64_t bins = generator.config().grid.bin_count(generator.config().horizon());
  const std::uint64_t tile = 101;
  for (const UserProfile& u : users) {
    const auto expected = generator.generate_features(u);
    features::FeatureMatrix matrix;
    for (auto& series : matrix.series) {
      series = features::BinnedSeries(generator.config().grid,
                                      generator.config().horizon());
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> tiles;
    for (std::uint64_t begin = 0; begin < bins; begin += tile) {
      tiles.emplace_back(begin, std::min(begin + tile, bins));
    }
    for (auto it = tiles.rbegin(); it != tiles.rend(); ++it) {
      generator.render_features_v2_tile(u, it->first, it->second, matrix);
    }
    expect_bit_identical(matrix, expected, "user " + std::to_string(u.user_id));
  }
}

TEST(GeneratorV2, EveryAvailableBackendRendersIdenticalBytes) {
  // The SIMD-invariance leg of the v2 determinism gate, in-process: force
  // each available back-end and compare raw bytes against the scalar
  // render. (The counter words are pure integer functions everywhere; the
  // count resolution pipeline is fixed-order fma/IEEE ops by contract.)
  namespace kernels = stats::kernels;
  if (!kernels::backend_available(kernels::Backend::Avx2)) {
    GTEST_SKIP() << "no SIMD back-end available on this host";
  }

  const auto users = small_population(4, 2);
  const TraceGenerator generator(v2_config(2, 15));

  ASSERT_TRUE(kernels::force_backend(kernels::Backend::Scalar));
  std::vector<features::FeatureMatrix> expected;
  for (const UserProfile& u : users) expected.push_back(generator.generate_features(u));

  ASSERT_TRUE(kernels::force_backend(kernels::Backend::Avx2));
  for (std::size_t i = 0; i < users.size(); ++i) {
    expect_bit_identical(generator.generate_features(users[i]), expected[i],
                         "backend avx2 user " + std::to_string(i));
  }
  kernels::reset_backend();
}

TEST(GeneratorV2, AggregateVolumeTracksTheV1Model) {
  // The counter-mode contract redraws every count, so its bytes differ from
  // the serial-stream (v1) contract it replaced by design — but it samples
  // the same behavioral model, so the population-aggregate per-feature
  // totals must land in the same range. The v1 totals of these 12 users
  // (two weeks, 15-minute bins) were rendered by commit c31a951, the last
  // build with the v1 generator, and are frozen here in series order.
  constexpr double kV1Totals[features::kFeatureCount] = {357612, 457230, 464783,
                                                         133684, 489182, 450902};
  const auto users = small_population(12, 2);
  const TraceGenerator generator(v2_config(2, 15));

  std::vector<double> total(features::kFeatureCount, 0.0);
  for (const UserProfile& u : users) {
    const auto m = generator.generate_features(u);
    ASSERT_EQ(m.series.size(), total.size());
    for (std::size_t s = 0; s < m.series.size(); ++s) {
      for (const double v : m.series[s].values()) total[s] += v;
    }
  }
  for (std::size_t s = 0; s < total.size(); ++s) {
    ASSERT_GT(total[s], 0.0) << "series " << s;
    const double ratio = total[s] / kV1Totals[s];
    EXPECT_GT(ratio, 0.75) << "series " << s;
    EXPECT_LT(ratio, 1.30) << "series " << s;
  }
}

TEST(GeneratorV2, FeatureBytesArePinned) {
  // FNV-1a over the raw bytes of every bin of every series: the feature
  // contract must not move a byte when the code that renders it changes.
  // Three grids: 15 minutes divides the day, 21 minutes divides the week
  // but not the day, 13 minutes divides neither.
  const auto fnv = [](const std::vector<UserProfile>& users, std::uint32_t bin_minutes) {
    const TraceGenerator generator(v2_config(2, bin_minutes));
    std::uint64_t h = 1469598103934665603ULL;
    for (const UserProfile& u : users) {
      const auto m = generator.generate_features(u);
      for (const auto& series : m.series) {
        for (const double v : series.values()) {
          std::uint64_t bits;
          std::memcpy(&bits, &v, sizeof bits);
          for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xFF;
            h *= 1099511628211ULL;
          }
        }
      }
    }
    return h;
  };
  const auto users = small_population(40, 2);
  EXPECT_EQ(fnv(users, 15), 6741087548348779596ULL);
  const std::vector<UserProfile> few(users.begin(), users.begin() + 8);
  EXPECT_EQ(fnv(few, 21), 12037056479667261780ULL);
  EXPECT_EQ(fnv(few, 13), 4097864595905910545ULL);
}

TEST(GeneratorV2, EveryDrawTableRowIsNondecreasing) {
  // stats::batch::cdf_row_scan counts cleared thresholds without an early
  // exit, which equals the first-uncleared index only on a nondecreasing
  // row. Check every tabulated row of the footprint tables, and the scan
  // against the early-exit oracle on each row's thresholds and neighbours.
  // (The ParetoSumTable head binomials are checked by the BinomialCdf
  // constructor, which every table build runs.)
  const auto& T = detail::footprint_tables32();
  const auto check_row = [](const std::uint32_t* row, const std::string& what) {
    ASSERT_TRUE(std::is_sorted(row, row + stats::batch::kCdfRowLen)) << what;
    for (std::size_t j = 0; j < stats::batch::kCdfRowLen; ++j) {
      for (const std::uint32_t w : {row[j] - 1, row[j], row[j] + 1}) {
        ASSERT_EQ(stats::batch::cdf_row_scan(row, w), oracle::cdf_row_scan(row, w))
            << what << " w=" << w;
      }
    }
  };
  for (const auto* table : {&T.domain_sum, &T.dns_sum, &T.update_sum}) {
    for (std::uint64_t s = 0; s < table->stat_cap(); ++s) {
      check_row(table->row(s), "Poisson-sum stat " + std::to_string(s));
    }
  }
  for (const auto* table :
       {&T.https_045, &T.syn_retrans_003, &T.mail_dns_020, &T.interactive_dns_030}) {
    for (std::uint64_t n = 0; n < table->n_cap(); ++n) {
      check_row(table->row(n), "Binomial p=" + std::to_string(table->p()) + " n=" +
                                   std::to_string(n));
    }
  }
}

}  // namespace
}  // namespace monohids::trace
