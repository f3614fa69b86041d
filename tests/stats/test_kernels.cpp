// Unit tests for the kernel layer: the synthesis dispatch table's
// behavior, the tie-handling contract at exact sample values (alarms fire
// strictly above the threshold, so rank queries are upper bounds),
// degenerate distributions, and the two ways EmpiricalDistribution builds
// its runs (histogram sweep for small counts, sort + run-length encoding
// otherwise). Randomized checks against the sorted-sample and per-call
// oracles and across synthesis back-ends live in
// test_kernels_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "hids/attack_model.hpp"
#include "hids/detector.hpp"
#include "hids/evaluator.hpp"
#include "oracle/sorted_distribution.hpp"
#include "stats/empirical.hpp"
#include "stats/kernels.hpp"
#include "util/error.hpp"

namespace monohids::stats {
namespace {

using kernels::Backend;

/// Restores startup dispatch however a test exits.
class DispatchGuard {
 public:
  ~DispatchGuard() { kernels::reset_backend(); }
};

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::Scalar, Backend::Avx2}) {
    if (kernels::backend_available(b)) out.push_back(b);
  }
  return out;
}

TEST(KernelDispatch, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(kernels::backend_available(Backend::Scalar));
  ASSERT_NE(kernels::ops_for(Backend::Scalar), nullptr);
  EXPECT_STREQ(kernels::ops_for(Backend::Scalar)->name, "scalar");
}

TEST(KernelDispatch, ActiveTableIsOneOfTheAvailableBackends) {
  const kernels::Ops& ops = kernels::active();
  bool found = false;
  for (Backend b : available_backends()) {
    if (&ops == kernels::ops_for(b)) found = true;
  }
  EXPECT_TRUE(found) << "active() returned a table not reachable via ops_for";
  EXPECT_TRUE(kernels::backend_available(kernels::active_backend()));
}

TEST(KernelDispatch, ForceBackendSwitchesAndResetRestores) {
  DispatchGuard guard;
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b)) << kernels::backend_name(b);
    EXPECT_EQ(kernels::active_backend(), b);
    EXPECT_EQ(&kernels::active(), kernels::ops_for(b));
  }
  kernels::reset_backend();
  EXPECT_TRUE(kernels::backend_available(kernels::active_backend()));
}

TEST(KernelDispatch, ForcingUnavailableBackendFailsWithoutSideEffects) {
  DispatchGuard guard;
  const Backend before = kernels::active_backend();
  if (!kernels::backend_available(Backend::Avx2)) {
    EXPECT_FALSE(kernels::force_backend(Backend::Avx2));
    EXPECT_EQ(kernels::active_backend(), before);
  }
}

TEST(KernelDispatch, BackendNamesMatchTables) {
  EXPECT_EQ(kernels::backend_name(Backend::Scalar), "scalar");
  EXPECT_EQ(kernels::backend_name(Backend::Avx2), "avx2");
  for (Backend b : available_backends()) {
    EXPECT_EQ(std::string(kernels::ops_for(b)->name), kernels::backend_name(b));
  }
}

// --- Tie handling -----------------------------------------------------------
//
// The paper's alarm condition is strict (g > T, detector.hpp), so a rank
// query at an exact sample value must count that value as *not* alarming:
// rank(q) = #{v <= q} includes every tied sample, and exceedance(q) counts
// only strictly greater ones. A duplicated sample pinned exactly on the
// query is the regression case.

TEST(KernelTieHandling, RankAtExactSampleValueCountsAllTies) {
  const std::vector<double> arena{1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 5.0};
  const std::vector<double> queries{0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<std::uint32_t> expected{0, 1, 4, 6, 6, 7, 7};
  std::vector<std::uint32_t> out(queries.size(), 0xffffffffu);
  kernels::rank_sorted(arena, queries, out.data());
  EXPECT_EQ(out, expected) << "rank_sorted";

  const EmpiricalDistribution dist{std::vector<double>(arena)};
  std::fill(out.begin(), out.end(), 0xffffffffu);
  dist.rank_batch(queries, out);
  EXPECT_EQ(out, expected) << "rank_batch, ascending";
  const std::vector<double> reversed(queries.rbegin(), queries.rend());
  dist.rank_batch(reversed, out);
  EXPECT_EQ(out, std::vector<std::uint32_t>(expected.rbegin(), expected.rend()))
      << "rank_batch, descending";
}

TEST(KernelTieHandling, ExceedanceBatchMatchesStrictAlarmAtThresholdOnSample) {
  const EmpiricalDistribution dist(std::vector<double>{4.0, 7.0, 7.0, 7.0, 9.0});
  // Thresholded exactly on the tied value: only the 9.0 bin alarms.
  std::vector<double> xs{7.0};
  std::vector<double> out{-1.0};
  dist.exceedance_batch(xs, out);
  EXPECT_DOUBLE_EQ(out[0], dist.exceedance(7.0));
  EXPECT_DOUBLE_EQ(out[0], 1.0 / 5.0);
}

TEST(KernelTieHandling, CountExceedIsStrictAtThreshold) {
  const std::vector<double> bins{3.0, 5.0, 5.0, 5.0, 5.5, 8.0};
  EXPECT_EQ(hids::ThresholdDetector(5.0).count_alarms(bins), 2u);
}

TEST(KernelTieHandling, ReplayDetectIsStrictAtThreshold) {
  // benign + attack lands exactly on the threshold in bin 1: no detection.
  const std::vector<double> benign{6.0, 3.0, 4.0, 5.0};
  const std::vector<double> attack{0.0, 2.0, 3.0, 0.0};
  const hids::ReplayOutcome out = hids::evaluate_replay(benign, attack, 5.0);
  EXPECT_EQ(out.fp_rate, 1.0 / 4.0);         // only 6.0 alarms
  EXPECT_EQ(out.detection_rate, 1.0 / 2.0);  // 4+3 > 5, not 3+2, of 2 attacked bins
}

// --- Degenerate arenas ------------------------------------------------------

TEST(KernelEdgeCases, EmptyArenaRanksAreZero) {
  const std::span<const double> empty;
  const std::vector<double> queries{-1.0, 0.0, 1.0};
  std::vector<std::uint32_t> out(queries.size(), 0xffffffffu);
  kernels::rank_sorted(empty, queries, out.data());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 0, 0}));
  std::fill(out.begin(), out.end(), 0xffffffffu);
  EmpiricalDistribution{}.rank_batch(queries, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 0, 0}));
  EXPECT_EQ(hids::ThresholdDetector(0.0).count_alarms(empty), 0u);
}

TEST(KernelEdgeCases, SingleSampleArena) {
  const std::vector<double> arena{2.0};
  const std::vector<double> queries{1.0, 2.0, 3.0};
  const std::vector<std::uint32_t> expected{0, 1, 1};
  std::vector<std::uint32_t> out(3, 0xffffffffu);
  kernels::rank_sorted(arena, queries, out.data());
  EXPECT_EQ(out, expected);
  const EmpiricalDistribution dist{std::vector<double>(arena)};
  std::fill(out.begin(), out.end(), 0xffffffffu);
  dist.rank_batch(queries, out);
  EXPECT_EQ(out, expected);
  const std::vector<double> shuffled{3.0, 1.0, 2.0};
  dist.rank_batch(shuffled, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 0, 1}));
}

TEST(KernelEdgeCases, CdfBatchOnEmptyDistributionThrows) {
  const EmpiricalDistribution d;
  std::vector<double> xs{1.0};
  std::vector<double> out(1);
  EXPECT_THROW(d.exceedance_batch(xs, out), PreconditionError);
}

TEST(KernelEdgeCases, RankGridMatchesPerSizeQueries) {
  // Every cell of the attack-size x threshold grid the run walk sums over:
  // a one-size attack model's mean_fn_batch is that size's row of shifted
  // ranks over n, including thresholds below every shifted sample and past
  // the last run.
  const EmpiricalDistribution dist(
      std::vector<double>{0.0, 1.0, 1.0, 2.0, 4.0, 4.0, 4.0, 7.0, 9.0});
  const std::vector<double> thresholds{0.0, 1.0, 2.0, 4.5, 7.0, 10.0};
  for (double size : {0.5, 1.0, 3.0}) {
    hids::AttackModel attack;
    attack.sizes = {size};
    std::vector<double> row(thresholds.size(), -1.0);
    attack.mean_fn_batch(dist, thresholds, row);
    std::vector<std::uint32_t> ranks(thresholds.size());
    const std::vector<double> shifted_queries = [&] {
      std::vector<double> q;
      for (double t : thresholds) q.push_back(t - size);
      return q;
    }();
    dist.rank_batch(shifted_queries, ranks);
    for (std::size_t j = 0; j < thresholds.size(); ++j) {
      EXPECT_EQ(row[j], static_cast<double>(ranks[j]) / 9.0)
          << "size " << size << " threshold " << thresholds[j];
      EXPECT_EQ(row[j], dist.shifted_cdf(size, thresholds[j]));
    }
  }
}

// --- Run construction -------------------------------------------------------
//
// Small non-negative integer samples are counted into runs by one histogram
// sweep; everything else is sorted and run-length encoded. Both must give
// exactly the runs of the sorted samples.

void expect_runs_of_sorted_samples(const std::vector<double>& samples) {
  const EmpiricalDistribution dist{std::vector<double>(samples)};
  const oracle::SortedDistribution reference(samples);
  const auto values = dist.values();
  const auto cum = dist.cumulative_counts();
  EXPECT_EQ(std::vector<double>(values.begin(), values.end()), reference.distinct_values());
  EXPECT_EQ(std::vector<std::uint32_t>(cum.begin(), cum.end()),
            reference.cumulative_counts());
  EXPECT_EQ(dist.size(), samples.size());
}

TEST(KernelCountingPaths, SortCountsMatchesStdSort) {
  std::vector<double> data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<double>((i * 37) % 11));
  expect_runs_of_sorted_samples(data);
  // Gaps in the value range leave no empty runs behind.
  std::vector<double> sparse(100, 0.0);
  sparse[7] = 65535.0;
  sparse[9] = 12.0;
  expect_runs_of_sorted_samples(sparse);
}

TEST(KernelCountingPaths, SortCountsRejectsNonCountData) {
  // Each input leaves the histogram path and takes sort + run-length
  // encoding; the runs must be the same either way.
  const std::vector<double> base(100, 1.0);
  for (double odd : {-1.0, 2.5, 70000.0}) {
    std::vector<double> v = base;
    v[40] = odd;
    SCOPED_TRACE(odd);
    expect_runs_of_sorted_samples(v);
  }
  expect_runs_of_sorted_samples(std::vector<double>(10, 1.0));  // below the crossover
  // -0.0 joins the zero run, which keeps +0.0 (pinned in the differential
  // suite for every mix of zeros).
  std::vector<double> zeros(100, 0.0);
  zeros[40] = -0.0;
  const EmpiricalDistribution dist{std::vector<double>(zeros)};
  ASSERT_EQ(dist.values().size(), 1u);
  EXPECT_FALSE(std::signbit(dist.values()[0]));
  EXPECT_EQ(dist.cumulative_counts()[0], 100u);
}

TEST(KernelRankTable, MatchesUpperBoundIncludingTiesAndOutOfRange) {
  // The cumulative counts are the rank table: each rank is the count of
  // the last run at or below the query.
  std::vector<double> arena;
  for (int i = 0; i < 40; ++i) {
    arena.push_back(0.0);
    arena.push_back(3.0);
    arena.push_back(3.0);
    arena.push_back(static_cast<double>(i % 7));
  }
  const EmpiricalDistribution dist{std::vector<double>(arena)};
  std::sort(arena.begin(), arena.end());

  std::vector<double> queries = {-10.0, -0.5, 0.0, 0.5, 2.999, 3.0,
                                 3.5,   6.0,  6.5, 7.0, 1e9};
  std::vector<std::uint32_t> ranks(queries.size());
  for (int order = 0; order < 2; ++order) {
    dist.rank_batch(queries, ranks);
    for (std::size_t j = 0; j < queries.size(); ++j) {
      const auto expected = static_cast<std::uint32_t>(
          std::upper_bound(arena.begin(), arena.end(), queries[j]) - arena.begin());
      EXPECT_EQ(ranks[j], expected) << "q=" << queries[j];
    }
    std::reverse(queries.begin(), queries.end());
  }
}

TEST(KernelRankTable, EmpiricalDistributionBuildsAndUsesTable) {
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(static_cast<double>(i % 13));

  const EmpiricalDistribution dist{std::vector<double>(samples)};
  ASSERT_EQ(dist.values().size(), 13u);
  ASSERT_EQ(dist.cumulative_counts().back(), 200u);

  const std::vector<double> queries = {-1.0, 0.0, 4.0, 4.5, 12.0, 13.0};
  std::vector<double> batched(queries.size());
  dist.exceedance_batch(queries, batched);
  for (std::size_t j = 0; j < queries.size(); ++j) {
    EXPECT_EQ(batched[j], dist.exceedance(queries[j])) << "q=" << queries[j];
  }
}

}  // namespace
}  // namespace monohids::stats
