// Randomized differential test: GkSketch vs exact quantiles on 200 seeded
// distributions. The GK paper's contract is a *rank* guarantee — the value
// returned for quantile q has rank within ε·n of ceil(q·n) — so the oracle
// is the fully-sorted sample, and the check is on ranks, never on values
// (heavy-tailed draws make value-space comparisons meaningless). Shapes are
// drawn from the generator's own repertoire (uniform, log-normal, Pareto,
// few-distinct-values, sorted/reversed/constant streams) so the sketch sees
// both smooth CDFs and the pathological ties it must break by rank.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/gk_sketch.hpp"
#include "stats/quantile.hpp"
#include "stats/sampling.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

/// Rank distance of `answer` from the target rank ceil(q*n), measured
/// against the sorted reference; 0 when the target rank falls inside the
/// answer's tie range [lower_bound, upper_bound].
double rank_error(const std::vector<double>& sorted, double answer, double q) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), answer) - sorted.begin();
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), answer) - sorted.begin();
  const double target = std::ceil(q * static_cast<double>(sorted.size()));
  if (target < static_cast<double>(lo)) return static_cast<double>(lo) - target;
  if (target > static_cast<double>(hi)) return target - static_cast<double>(hi);
  return 0.0;
}

/// One of eight stream shapes, chosen by case index; returns its name for
/// failure messages.
std::string fill_case(std::uint64_t case_index, util::Xoshiro256& rng,
                      std::vector<double>& out) {
  switch (case_index % 8) {
    case 0:
      for (double& v : out) v = rng.uniform01();
      return "uniform";
    case 1: {
      const LogNormalSampler lognormal(0.0, 1.5);
      for (double& v : out) v = lognormal.sample(rng);
      return "lognormal";
    }
    case 2:
      // Pareto(xm = 1, alpha = 1.2) by inverse CDF.
      for (double& v : out) {
        double u = rng.uniform01();
        if (u <= 0.0) u = 0x1.0p-53;
        v = 1.0 / std::pow(u, 1.0 / 1.2);
      }
      return "pareto";
    case 3:
      // Few distinct values: massive ties, the classic GK edge case.
      for (double& v : out) v = static_cast<double>(rng() % 5);
      return "five-values";
    case 4:
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<double>(i);
      return "sorted-ascending";
    case 5:
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<double>(out.size() - i);
      }
      return "sorted-descending";
    case 6:
      for (double& v : out) v = 42.0;
      return "constant";
    case 7:
      // Mixture with outliers: mostly small, occasional huge spikes.
      for (double& v : out) {
        v = (rng() % 100 == 0) ? 1e9 * rng.uniform01() : rng.uniform01();
      }
      return "spiky-mixture";
    default:
      return "unreachable";
  }
}

TEST(GkDifferential, TwoHundredSeededDistributionsMeetTheRankGuarantee) {
  constexpr std::uint64_t kCases = 200;
  const std::vector<double> epsilons = {0.001, 0.01, 0.05, 0.1};
  const std::vector<double> quantiles = {0.0,  0.01, 0.05, 0.25, 0.5,
                                         0.75, 0.9,  0.95, 0.99, 1.0};

  for (std::uint64_t case_index = 0; case_index < kCases; ++case_index) {
    util::Xoshiro256 rng(util::derive_seed(4242, "gk-differential", case_index));
    // Sizes sweep two orders of magnitude so compression triggers at the
    // larger ones and stays trivial at the smaller.
    const std::size_t n = 100 + static_cast<std::size_t>(rng() % 20000);
    std::vector<double> samples(n);
    const std::string shape = fill_case(case_index, rng, samples);

    const double epsilon = epsilons[case_index % epsilons.size()];
    GkSketch sketch(epsilon);
    for (double v : samples) sketch.add(v);
    ASSERT_EQ(sketch.count(), n);

    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const double allowed = epsilon * static_cast<double>(n);

    for (double q : quantiles) {
      const double answer = sketch.quantile(q);
      const double err = rank_error(sorted, answer, q);
      ASSERT_LE(err, allowed)
          << "case " << case_index << " (" << shape << "), n=" << n
          << ", epsilon=" << epsilon << ", q=" << q << ": sketch answered " << answer
          << " with rank error " << err;
      // Cross-check the oracle itself: the exact nearest-rank quantile has
      // zero rank error by construction.
      ASSERT_EQ(rank_error(sorted, quantile_nearest_rank_sorted(sorted, q), q), 0.0);
    }

    // The space bound is the point of the sketch: tuples must stay well
    // below n once n outgrows the 1/epsilon regime (loose 8x guard so the
    // test pins the asymptotic behavior without chasing constants).
    if (static_cast<double>(n) * epsilon > 32.0) {
      EXPECT_LT(static_cast<double>(sketch.tuple_count()),
                8.0 * std::log2(epsilon * static_cast<double>(n) + 2.0) / epsilon + 64.0)
          << "case " << case_index << " (" << shape << "), n=" << n
          << ", epsilon=" << epsilon;
    }
  }
}

}  // namespace
}  // namespace monohids::stats
