#include "hids/heuristics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "oracle/per_call.hpp"
#include "stats/classification.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

using stats::EmpiricalDistribution;

EmpiricalDistribution uniform_0_100(int n = 10000) {
  util::Xoshiro256 rng(71);
  std::vector<double> v;
  v.reserve(n);
  for (int i = 0; i < n; ++i) v.push_back(rng.uniform01() * 100.0);
  return EmpiricalDistribution(std::move(v));
}

TEST(Percentile, ThresholdCapsTrainingFalsePositives) {
  const auto g = uniform_0_100();
  const PercentileHeuristic h(0.99);
  const double t = h.compute(g, nullptr);
  EXPECT_LE(g.exceedance(t), 0.01 + 1e-12);
  EXPECT_NEAR(t, 99.0, 1.0);
}

TEST(Percentile, NameAndAccessors) {
  const PercentileHeuristic h(0.999);
  EXPECT_EQ(h.name(), "percentile-99.9");
  EXPECT_DOUBLE_EQ(h.percentile(), 0.999);
}

TEST(Percentile, InvalidProbabilityIsAnError) {
  EXPECT_THROW(PercentileHeuristic(0.0), PreconditionError);
  EXPECT_THROW(PercentileHeuristic(1.0), PreconditionError);
}

TEST(MeanSigma, MatchesFormula) {
  const EmpiricalDistribution g({2, 4, 4, 4, 5, 5, 7, 9});  // mean 5, sigma 2
  const MeanSigmaHeuristic h(3.0);
  EXPECT_DOUBLE_EQ(h.compute(g, nullptr), 11.0);
}

TEST(MeanSigma, ZeroSigmaGivesMean) {
  const EmpiricalDistribution g({1, 2, 3});
  const MeanSigmaHeuristic h(0.0);
  EXPECT_DOUBLE_EQ(h.compute(g, nullptr), 2.0);
}

TEST(FnAwareHeuristics, RequireAttackModel) {
  const auto g = uniform_0_100(100);
  EXPECT_THROW((void)FMeasureHeuristic{}.compute(g, nullptr), PreconditionError);
  EXPECT_THROW((void)UtilityHeuristic{0.4}.compute(g, nullptr), PreconditionError);
  const AttackModel no_sizes;
  EXPECT_THROW((void)FMeasureHeuristic{}.compute(g, &no_sizes), PreconditionError);
  EXPECT_THROW((void)UtilityHeuristic{0.4}.compute(g, &no_sizes), PreconditionError);
}

TEST(Utility, PickedThresholdMaximizesUtilityOverCandidates) {
  const auto g = uniform_0_100(2000);
  const auto attack = linear_attack_sweep(100.0, 20);
  const UtilityHeuristic h(0.4);
  const double best_t = h.compute(g, &attack);
  const double best_u =
      stats::utility(attack.mean_fn(g, best_t), g.exceedance(best_t), 0.4);
  for (double t : candidate_thresholds(g)) {
    const double u = stats::utility(attack.mean_fn(g, t), g.exceedance(t), 0.4);
    ASSERT_LE(u, best_u + 1e-12);
  }
}

TEST(Utility, HighFnWeightPushesThresholdDown) {
  const auto g = uniform_0_100(2000);
  const auto attack = linear_attack_sweep(100.0, 20);
  const double t_fp_focused = UtilityHeuristic(0.1).compute(g, &attack);
  const double t_fn_focused = UtilityHeuristic(0.9).compute(g, &attack);
  EXPECT_LT(t_fn_focused, t_fp_focused);
}

TEST(Utility, InvalidWeightIsAnError) {
  EXPECT_THROW(UtilityHeuristic(-0.1), PreconditionError);
  EXPECT_THROW(UtilityHeuristic(1.1), PreconditionError);
}

TEST(FMeasure, BalancesPrecisionAndRecall) {
  const auto g = uniform_0_100(2000);
  const auto attack = linear_attack_sweep(100.0, 20);
  const FMeasureHeuristic h;
  const double t = h.compute(g, &attack);
  // F-measure optimum should be an interior threshold: neither "alarm on
  // everything" nor "alarm on nothing".
  EXPECT_GT(t, g.min());
  EXPECT_LT(t, g.max());
}

TEST(Candidates, CoverUniqueValuesPlusSentinel) {
  const EmpiricalDistribution g({1, 1, 2, 3, 3, 3});
  const auto candidates = candidate_thresholds(g);
  ASSERT_EQ(candidates.size(), 4u);  // 1, 2, 3, max+1
  EXPECT_DOUBLE_EQ(candidates[0], 1.0);
  EXPECT_DOUBLE_EQ(candidates[3], 4.0);
}

TEST(Candidates, SentinelThresholdNeverAlarms) {
  const EmpiricalDistribution g({5, 6, 7});
  const auto candidates = candidate_thresholds(g);
  EXPECT_DOUBLE_EQ(g.exceedance(candidates.back()), 0.0);
}

TEST(Heuristics, PolymorphicUseThroughBasePointer) {
  const auto g = uniform_0_100(500);
  const auto attack = linear_attack_sweep(100.0, 10);
  std::vector<std::unique_ptr<ThresholdHeuristic>> heuristics;
  heuristics.push_back(std::make_unique<PercentileHeuristic>(0.99));
  heuristics.push_back(std::make_unique<MeanSigmaHeuristic>(3.0));
  heuristics.push_back(std::make_unique<FMeasureHeuristic>());
  heuristics.push_back(std::make_unique<UtilityHeuristic>(0.4));
  for (const auto& h : heuristics) {
    EXPECT_FALSE(h->name().empty());
    EXPECT_GE(h->compute(g, &attack), 0.0);
  }
}

TEST(Heuristics, CacheKeysKeepEveryDigitNamesStayShort) {
  // Parameters equal to 6 significant digits: one display name, two keys.
  EXPECT_EQ(UtilityHeuristic(0.1234561).name(), UtilityHeuristic(0.1234564).name());
  EXPECT_NE(UtilityHeuristic(0.1234561).cache_key(), UtilityHeuristic(0.1234564).cache_key());
  EXPECT_EQ(PercentileHeuristic(0.9912341).name(), PercentileHeuristic(0.9912344).name());
  EXPECT_NE(PercentileHeuristic(0.9912341).cache_key(),
            PercentileHeuristic(0.9912344).cache_key());
  EXPECT_EQ(MeanSigmaHeuristic(2.0000001).name(), MeanSigmaHeuristic(2.0000004).name());
  EXPECT_NE(MeanSigmaHeuristic(2.0000001).cache_key(), MeanSigmaHeuristic(2.0000004).cache_key());
  EXPECT_EQ(UtilityHeuristic(0.4).name(), "utility-w0.4");
  EXPECT_EQ(UtilityHeuristic(0.4).cache_key(), UtilityHeuristic(0.4).cache_key());
}

// ------------------------------------------------------ operating curves

/// Count-like samples (small integers, heavy ties): distributions over them
/// carry a rank table, so mean_fn_batch takes its table branch.
std::vector<double> count_samples(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = static_cast<double>(rng() % 60);
  return v;
}

/// Training sets covering both mean_fn_batch branches: an owned count
/// distribution and a pooled view_of_sorted(..., true) (rank table), and a
/// continuous one (rank grid).
struct Trainings {
  EmpiricalDistribution counts{count_samples(31, 3000)};
  std::vector<double> pooled_arena;
  EmpiricalDistribution pooled;
  EmpiricalDistribution continuous = uniform_0_100(1500);

  Trainings() {
    const EmpiricalDistribution a(count_samples(32, 900));
    const EmpiricalDistribution b(count_samples(33, 1100));
    const std::vector<std::span<const double>> parts = {a.samples(), b.samples()};
    pooled_arena = oracle::merge_sorted(parts);
    pooled = EmpiricalDistribution::view_of_sorted(pooled_arena, /*with_rank_table=*/true);
  }

  [[nodiscard]] std::vector<const EmpiricalDistribution*> all() const {
    return {&counts, &pooled, &continuous};
  }
};

/// A 3-size linear sweep (mean_fn's per-size branch, below 8 sizes) and the
/// 64-size log sweep the experiments use.
std::vector<AttackModel> sweeps() {
  return {linear_attack_sweep(60.0, 3), log_attack_sweep(1.0, 100.0, 64)};
}

const std::vector<double> kWeights = {0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0};

TEST(OperatingCurve, PointsMatchPerThresholdCallsAtExactSize) {
  const Trainings trainings;
  ASSERT_FALSE(trainings.counts.rank_table().empty());
  ASSERT_FALSE(trainings.pooled.rank_table().empty());
  ASSERT_TRUE(trainings.continuous.rank_table().empty());
  for (const EmpiricalDistribution* g : trainings.all()) {
    for (const AttackModel& attack : sweeps()) {
      const OperatingCurve curve = operating_curve(*g, attack);
      EXPECT_EQ(curve.thresholds, candidate_thresholds(*g));
      EXPECT_EQ(curve.thresholds.capacity(), curve.thresholds.size());
      ASSERT_EQ(curve.fp.size(), curve.thresholds.size());
      ASSERT_EQ(curve.fn.size(), curve.thresholds.size());
      for (std::size_t j = 0; j < curve.thresholds.size(); ++j) {
        const double t = curve.thresholds[j];
        ASSERT_EQ(curve.fp[j], g->exceedance(t)) << "t=" << t;
        ASSERT_EQ(curve.fn[j], attack.mean_fn(*g, t)) << "t=" << t;
        ASSERT_EQ(curve.fn[j], oracle::mean_fn(attack, *g, t)) << "t=" << t;
      }
    }
  }
}

TEST(OperatingCurve, MeanFnBatchMatchesPerCallOnEveryBackend) {
  // The rank functions have one portable implementation, so one pass
  // covers every back-end.
  const Trainings trainings;
  for (const EmpiricalDistribution* g : trainings.all()) {
    for (const AttackModel& attack : sweeps()) {
      // Candidates plus off-grid queries: fractional, negative and past
      // every shifted sample (all three rank-table cases).
      auto thresholds = candidate_thresholds(*g);
      thresholds.insert(thresholds.begin(), {-5.0, 0.5});
      thresholds.push_back(1e6);
      std::sort(thresholds.begin(), thresholds.end());
      std::vector<double> batched(thresholds.size());
      attack.mean_fn_batch(*g, thresholds, batched);
      for (std::size_t j = 0; j < thresholds.size(); ++j) {
        ASSERT_EQ(batched[j], attack.mean_fn(*g, thresholds[j])) << "t=" << thresholds[j];
        ASSERT_EQ(batched[j], oracle::mean_fn(attack, *g, thresholds[j]))
            << "t=" << thresholds[j];
      }
    }
  }
}

TEST(CurveHeuristic, SelectOnTheCurveEqualsComputeAndTheOracle) {
  const Trainings trainings;
  for (const EmpiricalDistribution* g : trainings.all()) {
    for (const AttackModel& attack : sweeps()) {
      const OperatingCurve curve = operating_curve(*g, attack);
      for (double w : kWeights) {
        const UtilityHeuristic utility(w);
        const double selected = utility.select(curve);
        EXPECT_EQ(selected, utility.compute(*g, &attack)) << "w=" << w;
        EXPECT_EQ(selected, oracle::utility_threshold(*g, attack, w)) << "w=" << w;
      }
      const FMeasureHeuristic fmeasure;
      EXPECT_EQ(fmeasure.select(curve), fmeasure.compute(*g, &attack));
      EXPECT_EQ(fmeasure.select(curve), oracle::fmeasure_threshold(*g, attack));
    }
  }
}

TEST(CurveHeuristic, SelectNeedsTheNeverAlarmEndpoint) {
  OperatingCurve one_point;
  one_point.thresholds = {1.0};
  one_point.fp = {0.0};
  one_point.fn = {0.0};
  EXPECT_THROW((void)UtilityHeuristic(0.4).select(one_point), PreconditionError);
  EXPECT_THROW((void)FMeasureHeuristic{}.select(one_point), PreconditionError);
}

// ------------------------------------------------------------ utility hull

/// The weight grid every hull check runs: both ends, the smallest steps off
/// them, the tenths, and 200 seeded uniform draws.
std::vector<double> hull_weights() {
  std::vector<double> weights = {0.0, 0x1.0p-52, 1.0 - 0x1.0p-53, 1.0};
  for (int i = 1; i <= 9; ++i) weights.push_back(i / 10.0);
  util::Xoshiro256 rng(2009);
  for (int i = 0; i < 200; ++i) weights.push_back(rng.uniform01());
  return weights;
}

/// A hand-built curve: thresholds 0, 1, 2, ... over the given points.
OperatingCurve curve_of(std::vector<double> fp, std::vector<double> fn) {
  OperatingCurve curve;
  for (std::size_t j = 0; j < fp.size(); ++j) curve.thresholds.push_back(static_cast<double>(j));
  curve.fp = std::move(fp);
  curve.fn = std::move(fn);
  return curve;
}

/// `hull` is an ordered subsequence of `curve` (every kept point carries
/// its own fp and fn), stored at exact size.
void expect_subsequence(const OperatingCurve& hull, const OperatingCurve& curve) {
  ASSERT_EQ(hull.fp.size(), hull.thresholds.size());
  ASSERT_EQ(hull.fn.size(), hull.thresholds.size());
  EXPECT_EQ(hull.thresholds.capacity(), hull.thresholds.size());
  std::size_t j = 0;
  for (std::size_t k = 0; k < hull.thresholds.size(); ++k) {
    while (j < curve.thresholds.size() && curve.thresholds[j] != hull.thresholds[k]) ++j;
    ASSERT_LT(j, curve.thresholds.size()) << "hull point " << k << " is not on the curve";
    EXPECT_EQ(hull.fp[k], curve.fp[j]);
    EXPECT_EQ(hull.fn[k], curve.fn[j]);
    ++j;
  }
}

/// select() on the hull picks what select() on the whole curve picks, at
/// every hull weight.
void expect_hull_selects_like_the_curve(const OperatingCurve& curve, const char* what) {
  const OperatingCurve hull = utility_hull(curve);
  expect_subsequence(hull, curve);
  for (double w : hull_weights()) {
    const UtilityHeuristic utility(w);
    EXPECT_EQ(utility.select(hull), utility.select(curve)) << what << " w=" << w;
  }
}

TEST(UtilityHull, SelectMatchesTheOracleAtEveryWeight) {
  const Trainings trainings;
  for (const EmpiricalDistribution* g : trainings.all()) {
    for (const AttackModel& attack : sweeps()) {
      const OperatingCurve curve = operating_curve(*g, attack);
      const OperatingCurve hull = utility_hull(curve);
      expect_subsequence(hull, curve);
      // The never-alarm endpoint and the training maximum (fp = 0 both)
      // are the w = 0 minimum, so both stay.
      ASSERT_GE(hull.thresholds.size(), 2u);
      EXPECT_EQ(hull.thresholds.end()[-1], curve.thresholds.end()[-1]);
      EXPECT_EQ(hull.thresholds.end()[-2], curve.thresholds.end()[-2]);
      for (double w : hull_weights()) {
        EXPECT_EQ(UtilityHeuristic(w).select(hull), oracle::utility_threshold(*g, attack, w))
            << "w=" << w << " sizes=" << attack.sizes.size();
      }
    }
  }
  // The continuous training has 1501 candidates; its hull is a small subset.
  const OperatingCurve curve = operating_curve(trainings.continuous, sweeps()[1]);
  EXPECT_LT(utility_hull(curve).thresholds.size() * 10, curve.thresholds.size());
}

TEST(UtilityHull, CollinearPointsAllStay) {
  // Dyadic points on fp + fn = 3/4: at w = 1/2 all four tie exactly, and
  // the first of them must win on the hull as on the curve.
  const OperatingCurve exact = curve_of({0.75, 0.5, 0.25, 0.0, 0.0}, {0.0, 0.25, 0.5, 0.75, 1.0});
  EXPECT_EQ(utility_hull(exact).thresholds.size(), 5u);
  EXPECT_EQ(UtilityHeuristic(0.5).select(utility_hull(exact)), 0.0);
  expect_hull_selects_like_the_curve(exact, "dyadic collinear");
  // Collinear only up to rounding (tenths are not dyadic), plus a point a
  // hair below and one a hair above the middle of an edge.
  expect_hull_selects_like_the_curve(
      curve_of({0.3, 0.2, 0.1, 0.0, 0.0}, {0.1, 0.2, 0.3, 0.4, 1.0}), "rounded collinear");
  expect_hull_selects_like_the_curve(
      curve_of({0.4, 0.2, 0.2, 0.0, 0.0}, {0.0, 0.2 - 1e-15, 0.2 + 1e-15, 0.4, 1.0}),
      "near-collinear");
}

TEST(UtilityHull, RunsOfEqualRatesKeepTheirFirstPoint) {
  // Equal fn: at w = 1 the whole run ties and its first point wins.
  const OperatingCurve equal_fn =
      curve_of({0.9, 0.5, 0.3, 0.1, 0.0, 0.0}, {0.1, 0.1, 0.1, 0.4, 0.4, 1.0});
  EXPECT_EQ(UtilityHeuristic(1.0).select(utility_hull(equal_fn)), 0.0);
  expect_hull_selects_like_the_curve(equal_fn, "equal fn");
  // Equal fp (the tail every real curve ends in): at w = 0 the first wins.
  const OperatingCurve equal_fp =
      curve_of({0.5, 0.0, 0.0, 0.0, 0.0}, {0.0, 0.2, 0.2, 0.7, 1.0});
  EXPECT_EQ(UtilityHeuristic(0.0).select(utility_hull(equal_fp)), 1.0);
  expect_hull_selects_like_the_curve(equal_fp, "equal fp");
  // Duplicated points: both copies stay, the first wins.
  expect_hull_selects_like_the_curve(
      curve_of({0.4, 0.2, 0.2, 0.0, 0.0}, {0.0, 0.1, 0.1, 0.5, 1.0}), "duplicates");
}

TEST(UtilityHull, NeverAlarmEndpointAndTwoPointCurves) {
  // A one-value training set: the training maximum and the never-alarm
  // endpoint, both with fp = 0.
  const EmpiricalDistribution constant(std::vector<double>(50, 7.0));
  const AttackModel attack = linear_attack_sweep(10.0, 4);
  const OperatingCurve curve = operating_curve(constant, attack);
  ASSERT_EQ(curve.thresholds.size(), 2u);
  const OperatingCurve hull = utility_hull(curve);
  EXPECT_EQ(hull.thresholds, curve.thresholds);
  for (double w : hull_weights()) {
    EXPECT_EQ(UtilityHeuristic(w).select(hull), oracle::utility_threshold(constant, attack, w))
        << "w=" << w;
  }
  // Hand-built two- and three-point curves: the never-alarm endpoint ties
  // an earlier fp = 0 point at w = 0 and must lose the tie on the hull too.
  expect_hull_selects_like_the_curve(curve_of({0.0, 0.0}, {0.3, 1.0}), "two points");
  expect_hull_selects_like_the_curve(curve_of({0.0, 0.0}, {1.0, 1.0}), "two equal points");
  expect_hull_selects_like_the_curve(curve_of({1.0, 0.0, 0.0}, {0.0, 1.0, 1.0}),
                                     "all-or-nothing");
}

TEST(UtilityHull, SeededCoarseCurvesMatchTheWholeCurve) {
  // Monotone curves on a coarse grid (heavy exact ties, collinear runs):
  // 1/8 steps are exact in binary, 1/10 steps round. Each ends in the two
  // fp = 0 points every real curve ends in.
  util::Xoshiro256 rng(909);
  for (int trial = 0; trial < 400; ++trial) {
    const double grid = trial % 2 == 0 ? 8.0 : 10.0;
    const auto steps = static_cast<std::uint64_t>(grid);
    const std::size_t n = 2 + rng() % 12;
    std::vector<double> fp(n), fn(n);
    std::uint64_t fp_steps = steps, fn_steps = 0;
    for (std::size_t j = 0; j < n; ++j) {
      fp_steps -= std::min<std::uint64_t>(fp_steps, rng() % 3);
      fn_steps = std::min<std::uint64_t>(steps, fn_steps + rng() % 3);
      fp[j] = static_cast<double>(fp_steps) / grid;
      fn[j] = static_cast<double>(fn_steps) / grid;
    }
    fp.insert(fp.end(), {0.0, 0.0});
    fn.insert(fn.end(), {fn.back(), 1.0});
    expect_hull_selects_like_the_curve(curve_of(std::move(fp), std::move(fn)),
                                       grid == 8.0 ? "1/8 grid" : "1/10 grid");
    if (HasFailure()) break;
  }
}

TEST(UtilityHull, NeedsAMonotoneCurve) {
  // operating_curve's fp never rises and its fn never falls with the
  // threshold; the hull walks the points in that order. Empty and ragged
  // curves are errors too.
  EXPECT_THROW((void)utility_hull(curve_of({0.5, 0.6, 0.0}, {0.1, 0.2, 1.0})),
               PreconditionError);
  EXPECT_THROW((void)utility_hull(curve_of({0.5, 0.2, 0.0}, {0.3, 0.2, 1.0})),
               PreconditionError);
  OperatingCurve ragged = curve_of({0.5, 0.0}, {0.0, 1.0});
  ragged.fn.pop_back();
  EXPECT_THROW((void)utility_hull(ragged), PreconditionError);
  EXPECT_THROW((void)utility_hull(OperatingCurve{}), PreconditionError);
}

}  // namespace
}  // namespace monohids::hids
