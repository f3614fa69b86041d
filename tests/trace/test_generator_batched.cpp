// Differential suite for the batched feature-generation pipeline: the
// batched path must be BIT-identical to the seed per-(bin, app) loop
// (oracle::generate_features_seed) for every profile, grid (divisible by
// the week or not), horizon, kernel back-end and thread count. Identity is
// checked with memcmp over the raw bin storage — not approximate
// comparison — because scenario digests, AnalysisCache keys and every
// downstream experiment depend on exact bytes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "oracle/generator.hpp"
#include "sim/scenario.hpp"
#include "stats/kernels.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"

namespace monohids::trace {
namespace {

void expect_bit_identical(const features::FeatureMatrix& a,
                          const features::FeatureMatrix& b, const char* what) {
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    const auto va = a.series[s].values();
    const auto vb = b.series[s].values();
    ASSERT_EQ(va.size(), vb.size()) << what << " series " << s;
    ASSERT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0)
        << what << " series " << s;
  }
}

TEST(BatchedGenerator, BitIdenticalToReferenceAcross200SeededCases) {
  // 25 users x {1, 2} weeks x 4 grid widths = 200 cases. 15- and 35-minute
  // bins divide the week (the batched path's weekly-periodic rate tables);
  // 13- and 660-minute bins do not (the generic per-bin fallback, including
  // the bin-aligned partial-horizon extension).
  PopulationConfig pc;
  pc.user_count = 25;
  pc.seed = 9001;
  pc.weeks = 2;
  const auto users = generate_population(pc);

  int cases = 0;
  for (std::uint32_t weeks : {1u, 2u}) {
    for (std::uint32_t width_minutes : {15u, 35u, 13u, 660u}) {
      GeneratorConfig config;
      config.weeks = weeks;
      config.grid = util::BinGrid::minutes(width_minutes);
      const TraceGenerator gen(config);
      for (const UserProfile& u : users) {
        const auto reference = oracle::generate_features_seed(config, u);
        const auto batched = gen.generate_features(u);
        expect_bit_identical(reference, batched, "case");
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 200);
}

TEST(BatchedGenerator, BitIdenticalAcrossKernelBackends) {
  // The widen_u32 post-processing pass goes through the dispatched SIMD
  // table; forcing the scalar back-end must not change a byte.
  PopulationConfig pc;
  pc.user_count = 3;
  const auto users = generate_population(pc);
  GeneratorConfig config;
  config.weeks = 1;
  const TraceGenerator gen(config);

  for (const UserProfile& u : users) {
    const auto native = gen.generate_features(u);
    ASSERT_TRUE(stats::kernels::force_backend(stats::kernels::Backend::Scalar));
    const auto scalar = gen.generate_features(u);
    stats::kernels::reset_backend();
    expect_bit_identical(native, scalar, "backend");
  }
}

TEST(BatchedGenerator, ScenarioBitIdenticalAcrossThreadCountsAndModes) {
  // build_scenario fans users across worker threads; output must not depend
  // on the thread count, and must equal the seed loop user for user.
  sim::ScenarioConfig config;
  config.set_users(12);
  config.set_weeks(1);
  config.set_seed(4242);

  config.threads = 1;
  const auto serial_batched = sim::build_scenario(config);
  config.threads = 3;
  const auto threaded_batched = sim::build_scenario(config);
  const auto& users = serial_batched.users;
  ASSERT_EQ(users.size(), serial_batched.matrices.size());
  ASSERT_EQ(users.size(), threaded_batched.matrices.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const auto seed = oracle::generate_features_seed(config.generator, users[i]);
    expect_bit_identical(seed, serial_batched.matrices[i], "serial");
    expect_bit_identical(seed, threaded_batched.matrices[i], "threaded");
  }
}

}  // namespace
}  // namespace monohids::trace
