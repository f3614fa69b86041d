#include "hids/online_learner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "stats/empirical.hpp"
#include "stats/sampling.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

using features::FeatureKind;

TEST(OnlineLearner, Accessors) {
  OnlineThresholdLearner learner(0.99);
  EXPECT_DOUBLE_EQ(learner.percentile(), 0.99);
  EXPECT_EQ(learner.observations(FeatureKind::TcpSyn), 0u);
  learner.observe(FeatureKind::TcpSyn, 3.0);
  learner.observe(FeatureKind::TcpSyn, 3.0);
  EXPECT_EQ(learner.observations(FeatureKind::TcpSyn), 2u);
}

TEST(OnlineLearner, InvalidPercentileIsAnError) {
  EXPECT_THROW(OnlineThresholdLearner(0.0), PreconditionError);
  EXPECT_THROW(OnlineThresholdLearner(1.0), PreconditionError);
}

TEST(OnlineLearner, ThresholdBeforeObservationIsAnError) {
  const OnlineThresholdLearner learner(0.99);
  EXPECT_THROW((void)learner.threshold(FeatureKind::TcpConnections), PreconditionError);
}

TEST(OnlineLearner, NonFiniteBinsAreAnError) {
  OnlineThresholdLearner learner(0.5);
  learner.observe(FeatureKind::DnsConnections, 4.0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(learner.observe(FeatureKind::DnsConnections, bad), PreconditionError) << bad;
  }
  // A rejected bin leaves the learner as it was.
  EXPECT_EQ(learner.observations(FeatureKind::DnsConnections), 1u);
  EXPECT_EQ(learner.threshold(FeatureKind::DnsConnections), 4.0);
}

TEST(OnlineLearner, FeaturesAreIndependentStreams) {
  OnlineThresholdLearner learner(0.5);
  for (int i = 1; i <= 100; ++i) {
    learner.observe(FeatureKind::TcpConnections, i);
  }
  learner.observe(FeatureKind::UdpConnections, 7.0);
  EXPECT_EQ(learner.observations(FeatureKind::TcpConnections), 100u);
  EXPECT_EQ(learner.observations(FeatureKind::UdpConnections), 1u);
  EXPECT_DOUBLE_EQ(learner.threshold(FeatureKind::TcpConnections), 50.0);
  EXPECT_DOUBLE_EQ(learner.threshold(FeatureKind::UdpConnections), 7.0);
  EXPECT_THROW((void)learner.threshold(FeatureKind::DnsConnections), PreconditionError);
}

/// One seeded stream of bins; `c % 5` picks its shape.
std::vector<double> seeded_bins(std::uint64_t c, util::Xoshiro256& rng, std::string& shape) {
  const std::size_t n = 1 + rng() % 3000;
  std::vector<double> bins;
  switch (c % 5) {
    case 0: {  // heavy-tailed integer counts, as the feature pipeline emits
      shape = "integer counts";
      const stats::LogNormalSampler sampler(2.0, 1.2);
      for (std::size_t i = 0; i < n; ++i) bins.push_back(std::floor(sampler.sample(rng)));
      break;
    }
    case 1:  // non-integers, a fraction of them repeated
      shape = "non-integers";
      for (std::size_t i = 0; i < n; ++i) {
        bins.push_back(i > 0 && rng() % 4 == 0 ? bins[rng() % i] : rng.uniform01() * 1e3);
      }
      break;
    case 2:  // negatives and half-integers around zero
      shape = "negatives";
      for (std::size_t i = 0; i < n; ++i) {
        bins.push_back(static_cast<double>(rng() % 400) / 2.0 - 150.0);
      }
      break;
    case 3: {  // zeros of both signs among a few small values
      shape = "mixed zeros";
      const double pool[] = {-0.0, 0.0, -0.0, 1.0, -1.0, 2.5};
      for (std::size_t i = 0; i < n; ++i) bins.push_back(pool[rng() % 6]);
      break;
    }
    default:
      shape = "single sample";
      bins.push_back((rng.uniform01() - 0.5) * 100.0);
      break;
  }
  return bins;
}

TEST(OnlineLearner, ThresholdsAreBitEqualToTheEmpiricalQuantile) {
  for (std::uint64_t c = 0; c < 200; ++c) {
    util::Xoshiro256 rng(0x1ea2ee + c);
    std::string shape;
    const std::vector<double> bins = seeded_bins(c, rng, shape);
    const stats::EmpiricalDistribution dist{std::vector<double>(bins)};
    for (const double p : {0.5, 0.9, 0.99, 0.999}) {
      OnlineThresholdLearner learner(p);
      learner.observe_series(FeatureKind::HttpConnections, bins);
      ASSERT_EQ(learner.observations(FeatureKind::HttpConnections), bins.size());
      ASSERT_EQ(std::bit_cast<std::uint64_t>(learner.threshold(FeatureKind::HttpConnections)),
                std::bit_cast<std::uint64_t>(dist.quantile(p)))
          << "case " << c << " (" << shape << ", n=" << bins.size() << ") p=" << p;
    }
  }
}

TEST(OnlineLearner, StreamingMemoryStaysBounded) {
  // 50k integer counts over 100 distinct values on every feature: once each
  // value has been seen, further bins only raise counts.
  OnlineThresholdLearner learner(0.99);
  util::Xoshiro256 rng(78);
  const auto observe_all = [&](double v) {
    for (FeatureKind f : features::kAllFeatures) learner.observe(f, v);
  };
  for (int v = 99; v >= 0; --v) observe_all(v);
  const std::size_t after_runs = learner.memory_footprint_bytes();
  for (int i = 100; i < 50000; ++i) observe_all(static_cast<double>(rng() % 100));

  EXPECT_EQ(learner.observations(FeatureKind::TcpSyn), 50000u);
  EXPECT_EQ(learner.memory_footprint_bytes(), after_runs);
  // A (value, count) pair per run, with vector slack, plus the learner itself.
  EXPECT_LT(after_runs, sizeof(learner) + features::kFeatureCount * 2 * 100 * 16);
  // A buffer of the bins would hold 6 x 50k doubles.
  EXPECT_LT(after_runs, features::kFeatureCount * 50000 * sizeof(double) / 100);
}

TEST(OnlineLearner, ObserveSeriesMatchesLoop) {
  const std::vector<double> bins{1, 5, 2, 9, 4, 7};
  OnlineThresholdLearner a(0.5);
  OnlineThresholdLearner b(0.5);
  a.observe_series(FeatureKind::TcpSyn, bins);
  for (double v : bins) b.observe(FeatureKind::TcpSyn, v);
  EXPECT_DOUBLE_EQ(a.threshold(FeatureKind::TcpSyn), b.threshold(FeatureKind::TcpSyn));
}

TEST(OnlineLearner, ExactMatchesOfflinePercentileHeuristic) {
  // The learner must agree with the batch path used by assign_thresholds.
  util::Xoshiro256 rng(79);
  std::vector<double> bins;
  for (int i = 0; i < 672; ++i) bins.push_back(rng.uniform01() * 500);
  OnlineThresholdLearner learner(0.99);
  learner.observe_series(FeatureKind::HttpConnections, bins);
  const stats::EmpiricalDistribution d(bins);
  EXPECT_DOUBLE_EQ(learner.threshold(FeatureKind::HttpConnections), d.quantile(0.99));
}

}  // namespace
}  // namespace monohids::hids
