// Unit tests for the batched SIMD kernel layer: dispatch-table behavior,
// the tie-handling contract at exact sample values (alarms fire strictly
// above the threshold, so rank queries are upper bounds), degenerate arenas,
// and the counting sort/merge fast paths. Cross-back-end bit-identity over
// randomized inputs lives in test_kernels_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "stats/empirical.hpp"
#include "oracle/per_call.hpp"
#include "stats/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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
  for (Backend b : {Backend::Scalar, Backend::Avx2, Backend::Neon}) {
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
  for (Backend b : {Backend::Avx2, Backend::Neon}) {
    if (kernels::backend_available(b)) continue;
    EXPECT_FALSE(kernels::force_backend(b));
    EXPECT_EQ(kernels::active_backend(), before);
  }
}

TEST(KernelDispatch, BackendNamesMatchTables) {
  EXPECT_EQ(kernels::backend_name(Backend::Scalar), "scalar");
  EXPECT_EQ(kernels::backend_name(Backend::Avx2), "avx2");
  EXPECT_EQ(kernels::backend_name(Backend::Neon), "neon");
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
  DispatchGuard guard;
  const std::vector<double> arena{1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 5.0};
  const std::vector<double> queries{0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<std::uint32_t> expected{0, 1, 4, 6, 6, 7, 7};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    const kernels::Ops& ops = kernels::active();
    std::vector<std::uint32_t> sorted_out(queries.size(), 0xffffffffu);
    std::vector<std::uint32_t> unsorted_out(queries.size(), 0xffffffffu);
    ops.rank_sorted(arena, queries, 0.0, sorted_out.data());
    ops.rank_unsorted(arena, queries, 0.0, unsorted_out.data());
    EXPECT_EQ(sorted_out, expected) << "rank_sorted on " << kernels::backend_name(b);
    EXPECT_EQ(unsorted_out, expected) << "rank_unsorted on " << kernels::backend_name(b);
  }
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
  DispatchGuard guard;
  const std::vector<double> bins{3.0, 5.0, 5.0, 5.0, 5.5, 8.0};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    EXPECT_EQ(kernels::active().count_exceed(bins, 5.0), 2u)
        << kernels::backend_name(b);
  }
}

TEST(KernelTieHandling, ReplayDetectIsStrictAtThreshold) {
  DispatchGuard guard;
  // benign + attack lands exactly on the threshold in bin 1: no detection.
  const std::vector<double> benign{6.0, 3.0, 4.0, 5.0};
  const std::vector<double> attack{0.0, 2.0, 3.0, 0.0};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    std::uint64_t benign_alarms = 99, attacked = 99, detected = 99;
    kernels::active().replay_detect(benign, attack, 5.0, benign_alarms, attacked,
                                    detected);
    EXPECT_EQ(benign_alarms, 1u) << kernels::backend_name(b);  // only 6.0
    EXPECT_EQ(attacked, 2u) << kernels::backend_name(b);
    EXPECT_EQ(detected, 1u) << kernels::backend_name(b);  // 4+3 > 5, not 3+2
  }
}

// --- Degenerate arenas ------------------------------------------------------

TEST(KernelEdgeCases, EmptyArenaRanksAreZero) {
  DispatchGuard guard;
  const std::span<const double> empty;
  const std::vector<double> queries{-1.0, 0.0, 1.0};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    const kernels::Ops& ops = kernels::active();
    std::vector<std::uint32_t> out(queries.size(), 0xffffffffu);
    ops.rank_sorted(empty, queries, 0.0, out.data());
    EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 0, 0})) << kernels::backend_name(b);
    std::fill(out.begin(), out.end(), 0xffffffffu);
    ops.rank_unsorted(empty, queries, 0.0, out.data());
    EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 0, 0})) << kernels::backend_name(b);
    std::vector<std::uint32_t> grid(queries.size() * 2, 0xffffffffu);
    const std::vector<double> sizes{1.0, 2.0};
    ops.rank_grid(empty, queries, sizes, grid.data());
    EXPECT_EQ(grid, std::vector<std::uint32_t>(6, 0)) << kernels::backend_name(b);
    EXPECT_EQ(ops.count_exceed(empty, 0.0), 0u);
  }
}

TEST(KernelEdgeCases, SingleSampleArena) {
  DispatchGuard guard;
  const std::vector<double> arena{2.0};
  const std::vector<double> queries{1.0, 2.0, 3.0};
  const std::vector<std::uint32_t> expected{0, 1, 1};
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    const kernels::Ops& ops = kernels::active();
    std::vector<std::uint32_t> out(3, 0xffffffffu);
    ops.rank_sorted(arena, queries, 0.0, out.data());
    EXPECT_EQ(out, expected) << kernels::backend_name(b);
    std::fill(out.begin(), out.end(), 0xffffffffu);
    ops.rank_unsorted(arena, queries, 0.0, out.data());
    EXPECT_EQ(out, expected) << kernels::backend_name(b);
  }
}

TEST(KernelEdgeCases, CdfBatchOnEmptyDistributionThrows) {
  const EmpiricalDistribution d;
  std::vector<double> xs{1.0};
  std::vector<double> out(1);
  EXPECT_THROW(d.exceedance_batch(xs, out), PreconditionError);
}

TEST(KernelEdgeCases, RankGridMatchesPerSizeQueries) {
  DispatchGuard guard;
  const std::vector<double> arena{0.0, 1.0, 1.0, 2.0, 4.0, 4.0, 4.0, 7.0, 9.0};
  const std::vector<double> thresholds{0.0, 1.0, 2.0, 4.5, 7.0, 10.0};
  const std::vector<double> sizes{0.5, 1.0, 3.0};
  const std::size_t T = thresholds.size();
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::force_backend(b));
    const kernels::Ops& ops = kernels::active();
    std::vector<std::uint32_t> grid(T * sizes.size(), 0xffffffffu);
    ops.rank_grid(arena, thresholds, sizes, grid.data());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::vector<std::uint32_t> row(T, 0xffffffffu);
      ops.rank_sorted(arena, thresholds, sizes[s], row.data());
      for (std::size_t j = 0; j < T; ++j) {
        EXPECT_EQ(grid[s * T + j], row[j])
            << kernels::backend_name(b) << " size " << sizes[s] << " threshold "
            << thresholds[j];
      }
    }
  }
}

// --- Counting sort / merge fast paths --------------------------------------

TEST(KernelCountingPaths, SortCountsMatchesStdSort) {
  std::vector<double> data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<double>((i * 37) % 11));
  std::vector<double> expected = data;
  std::sort(expected.begin(), expected.end());
  ASSERT_TRUE(kernels::sort_counts(data));
  EXPECT_EQ(data, expected);
}

TEST(KernelCountingPaths, SortCountsRejectsNonCountData) {
  const std::vector<double> base(100, 1.0);
  {
    std::vector<double> v = base;
    v[40] = -1.0;
    const std::vector<double> untouched = v;
    EXPECT_FALSE(kernels::sort_counts(v));
    EXPECT_EQ(v, untouched);  // a rejected buffer is left exactly as given
  }
  {
    std::vector<double> v = base;
    v[40] = 2.5;
    EXPECT_FALSE(kernels::sort_counts(v));
  }
  {
    std::vector<double> v = base;
    v[40] = 70000.0;
    EXPECT_FALSE(kernels::sort_counts(v));
  }
  {
    std::vector<double> v = base;
    v[40] = -0.0;  // bitwise-distinct from the +0.0 a counting emit produces
    EXPECT_FALSE(kernels::sort_counts(v));
  }
  {
    std::vector<double> tiny(10, 1.0);  // below the crossover, std::sort wins
    EXPECT_FALSE(kernels::sort_counts(tiny));
  }
}

TEST(KernelCountingPaths, CountingMergeMatchesHeapMerge) {
  std::vector<std::vector<double>> parts_storage;
  for (int p = 0; p < 5; ++p) {
    std::vector<double> part;
    for (int i = 0; i < 100; ++i) {
      part.push_back(static_cast<double>((i * (p + 3)) % 23));
    }
    std::sort(part.begin(), part.end());
    parts_storage.push_back(std::move(part));
  }
  std::vector<std::span<const double>> parts(parts_storage.begin(), parts_storage.end());

  std::vector<double> counted;
  ASSERT_TRUE(kernels::counting_merge(parts, counted));

  EXPECT_EQ(counted, oracle::merge_sorted(parts));
}

TEST(KernelCountingPaths, CountingMergeRejectsNonCountData) {
  std::vector<double> a(200, 1.0);
  std::vector<double> b(200, 2.5);  // fractional part
  std::vector<std::span<const double>> parts{a, b};
  std::vector<double> out;
  EXPECT_FALSE(kernels::counting_merge(parts, out));

  std::vector<double> tiny_a{1.0}, tiny_b{2.0};  // below the crossover
  std::vector<std::span<const double>> tiny{tiny_a, tiny_b};
  EXPECT_FALSE(kernels::counting_merge(tiny, out));
}

TEST(KernelRankTable, MatchesUpperBoundIncludingTiesAndOutOfRange) {
  std::vector<double> arena;
  for (int i = 0; i < 40; ++i) {
    arena.push_back(0.0);
    arena.push_back(3.0);
    arena.push_back(3.0);
    arena.push_back(static_cast<double>(i % 7));
  }
  std::sort(arena.begin(), arena.end());

  std::vector<std::uint32_t> cum;
  ASSERT_TRUE(kernels::build_rank_table(arena, cum));
  const auto n = static_cast<std::uint32_t>(arena.size());

  const std::vector<double> queries = {-10.0, -0.5,  0.0, 0.5, 2.999, 3.0,
                                       3.5,   6.0,   6.5, 7.0, 1e9};
  for (double q : queries) {
    const auto expected = static_cast<std::uint32_t>(
        std::upper_bound(arena.begin(), arena.end(), q) - arena.begin());
    EXPECT_EQ(kernels::rank_from_table(cum, n, q), expected) << "q=" << q;
  }
  // NaN queries rank below every count (upper_bound on NaN is unspecified,
  // so the table pins the answer instead of comparing against it).
  EXPECT_EQ(kernels::rank_from_table(cum, n, std::numeric_limits<double>::quiet_NaN()),
            0u);
}

TEST(KernelRankTable, RejectsNonCountData) {
  std::vector<std::uint32_t> cum;

  std::vector<double> fractional(100, 1.5);
  EXPECT_FALSE(kernels::build_rank_table(fractional, cum));
  EXPECT_TRUE(cum.empty());

  std::vector<double> negative(100, 2.0);
  negative.front() = -1.0;
  EXPECT_FALSE(kernels::build_rank_table(negative, cum));

  std::vector<double> oversized(100, 70000.0);
  EXPECT_FALSE(kernels::build_rank_table(oversized, cum));

  std::vector<double> tiny(16, 1.0);  // below the crossover
  EXPECT_FALSE(kernels::build_rank_table(tiny, cum));

  std::vector<double> negative_zero(100, 0.0);
  negative_zero.front() = -0.0;
  EXPECT_FALSE(kernels::build_rank_table(negative_zero, cum));
}

TEST(KernelRankTable, EmpiricalDistributionBuildsAndUsesTable) {
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(static_cast<double>(i % 13));

  const EmpiricalDistribution dist{std::vector<double>(samples)};
  ASSERT_FALSE(dist.rank_table().empty());

  const std::vector<double> queries = {-1.0, 0.0, 4.0, 4.5, 12.0, 13.0};
  std::vector<double> batched(queries.size());
  dist.exceedance_batch(queries, batched);
  for (std::size_t j = 0; j < queries.size(); ++j) {
    EXPECT_EQ(batched[j], dist.exceedance(queries[j])) << "q=" << queries[j];
  }
}

TEST(KernelWiden, WidenU32IsExactOnEveryBackend) {
  // widen_u32 feeds the batched trace generator's SoA staging buffers into
  // feature series; it must be an exact conversion on every back-end
  // (values < 2^31 always fit the 53-bit mantissa) including awkward tails.
  util::Xoshiro256 rng(7);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{17}, std::size_t{1024}, std::size_t{1031}}) {
    std::vector<std::uint32_t> values(n);
    for (auto& v : values) v = static_cast<std::uint32_t>(rng() >> 33);  // < 2^31
    if (n > 2) {
      values[0] = 0;
      values[1] = (1u << 31) - 1;
    }
    for (Backend b : available_backends()) {
      std::vector<double> out(n, -1.0);
      kernels::ops_for(b)->widen_u32(values, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], static_cast<double>(values[i]))
            << kernels::backend_name(b) << " i=" << i;
      }
    }
  }
}

TEST(KernelRankTable, ViewBuildsTableOnlyWhenRequested) {
  std::vector<double> sorted(128);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<double>(i / 4);
  }
  EXPECT_TRUE(EmpiricalDistribution::view_of_sorted(sorted).rank_table().empty());
  const auto view = EmpiricalDistribution::view_of_sorted(sorted, /*with_rank_table=*/true);
  ASSERT_FALSE(view.rank_table().empty());
  EXPECT_EQ(view.rank_table().back(), static_cast<std::uint32_t>(sorted.size()));
}

}  // namespace
}  // namespace monohids::stats
