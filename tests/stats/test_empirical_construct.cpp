// The sample constructor against the sorted-sample oracle on every
// small_counts back-end. EmpiricalDistribution(span) checks the samples
// with the dispatched kernels::Ops::small_counts and counts them into a
// histogram when they are all small non-negative integers (and there are
// 64 or more), and sorts them otherwise. Whichever path and back-end runs,
// the runs must be the oracle's bit for bit: every host-week of a small
// scenario, seeded mixes around each rejection rule, both sides of the
// 64-sample cutoff, and non-finite samples, which throw PreconditionError
// on every back-end.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "features/feature.hpp"
#include "oracle/sorted_distribution.hpp"
#include "sim/scenario.hpp"
#include "stats/empirical.hpp"
#include "stats/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

using kernels::Backend;

/// Every back-end this host can run, scalar first.
std::vector<Backend> backends() {
  std::vector<Backend> out = {Backend::Scalar};
  if (kernels::backend_available(Backend::Avx2)) out.push_back(Backend::Avx2);
  return out;
}

/// Forces one back-end for its lifetime and restores startup dispatch.
class ForcedBackend {
 public:
  explicit ForcedBackend(Backend b) { EXPECT_TRUE(kernels::force_backend(b)); }
  ~ForcedBackend() { kernels::reset_backend(); }
  ForcedBackend(const ForcedBackend&) = delete;
  ForcedBackend& operator=(const ForcedBackend&) = delete;
};

/// The distribution of `samples` must hold the oracle's runs: the same
/// value bits (a zero run is +0.0 whatever signs its zeros carry) and the
/// same cumulative counts.
void expect_oracle_runs(std::span<const double> samples, const std::string& label) {
  const EmpiricalDistribution dist(samples);
  std::vector<double> canonical(samples.begin(), samples.end());
  for (double& v : canonical) {
    if (v == 0.0) v = 0.0;
  }
  const oracle::SortedDistribution reference(std::move(canonical));
  ASSERT_EQ(dist.size(), samples.size()) << label;
  const auto values = dist.values();
  const std::vector<double> expected_values = reference.distinct_values();
  ASSERT_EQ(values.size(), expected_values.size()) << label;
  for (std::size_t k = 0; k < values.size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(values[k]),
              std::bit_cast<std::uint64_t>(expected_values[k]))
        << label << " run " << k;
  }
  const auto cum = dist.cumulative_counts();
  ASSERT_EQ(std::vector<std::uint32_t>(cum.begin(), cum.end()), reference.cumulative_counts())
      << label;
}

TEST(EmpiricalConstruct, EveryHostWeekOfASmallScenarioMatchesTheOracle) {
  sim::ScenarioConfig config;
  config.set_users(12);
  config.set_weeks(2);
  config.set_seed(26);
  config.threads = 1;
  const sim::Scenario scenario = sim::build_scenario(config);
  for (Backend b : backends()) {
    const ForcedBackend forced(b);
    for (std::uint32_t u = 0; u < scenario.user_count(); ++u) {
      for (features::FeatureKind f : features::kAllFeatures) {
        for (std::uint32_t week = 0; week < 2; ++week) {
          const auto slice = scenario.matrices[u].of(f).week_slice(week);
          ASSERT_EQ(slice.size(), 672u);
          expect_oracle_runs(slice, std::string(kernels::backend_name(b)) + " user " +
                                        std::to_string(u) + " " +
                                        std::string(features::name_of(f)) + " week " +
                                        std::to_string(week));
        }
      }
    }
  }
}

TEST(EmpiricalConstruct, SeededMixesMatchTheOracle) {
  // Counts with a largest value up to 65535, and the same counts with one
  // value each rule rejects (a fraction, 65536, a negative, -0.0) at a
  // random index, at sizes around the cutoff and up to two host-weeks.
  const std::vector<double> odd = {0.5, 65536.0, -1.0, -0.0, 1e9, 65535.25};
  for (std::uint64_t c = 0; c < 240; ++c) {
    util::Xoshiro256 rng(0xc0257 + c);
    const std::size_t n = c % 4 == 0 ? 62 + rng() % 4 : 1 + rng() % 1400;
    const std::uint64_t cap = c % 3 == 0 ? 65535 : c % 3 == 1 ? 30 : 2000;
    std::vector<double> samples(n);
    for (double& v : samples) {
      v = rng() % 3 == 0 ? 0.0 : static_cast<double>(rng() % (cap + 1));
    }
    if (c % 5 == 0) samples[rng() % n] = 65535.0;
    if (c % 2 == 1) samples[rng() % n] = odd[(c / 2) % odd.size()];
    for (Backend b : backends()) {
      const ForcedBackend forced(b);
      expect_oracle_runs(samples, std::string(kernels::backend_name(b)) + " case " +
                                      std::to_string(c) + " n=" + std::to_string(n));
    }
  }
}

TEST(EmpiricalConstruct, SixtyThreeAndSixtyFourSamples) {
  // 63 samples sort, 64 count: both give the oracle's runs, with and
  // without a -0.0 among the zeros.
  util::Xoshiro256 rng(0x6364);
  std::vector<double> samples(64);
  for (double& v : samples) v = static_cast<double>(rng() % 12);
  samples[5] = 0.0;
  for (bool negative_zero : {false, true}) {
    samples[17] = negative_zero ? -0.0 : 0.0;
    for (std::size_t n : {std::size_t{63}, std::size_t{64}}) {
      for (Backend b : backends()) {
        const ForcedBackend forced(b);
        const std::span<const double> head(samples.data(), n);
        const std::string label = std::string(kernels::backend_name(b)) + " n=" +
                                  std::to_string(n) + (negative_zero ? " with -0.0" : "");
        expect_oracle_runs(head, label);
        EXPECT_FALSE(std::signbit(EmpiricalDistribution(head).values()[0])) << label;
      }
    }
  }
}

TEST(EmpiricalConstruct, NonFiniteSamplesThrowOnEveryBackend) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> week(672);
  util::Xoshiro256 rng(0xf1);
  for (double& v : week) v = static_cast<double>(rng() % 50);
  for (Backend b : backends()) {
    const ForcedBackend forced(b);
    for (std::size_t n : {std::size_t{63}, std::size_t{64}, std::size_t{672}}) {
      for (std::size_t at : {std::size_t{0}, std::size_t{63}, std::size_t{671}}) {
        if (at >= n) continue;
        for (double bad : {nan, -nan, inf, -inf}) {
          std::vector<double> samples(week.begin(),
                                      week.begin() + static_cast<std::ptrdiff_t>(n));
          samples[at] = bad;
          EXPECT_THROW((void)EmpiricalDistribution(samples), PreconditionError)
              << kernels::backend_name(b) << " n=" << n << " index " << at << " value "
              << bad;
        }
      }
    }
  }
}

}  // namespace
}  // namespace monohids::stats
