// Differential suite for the fleet-mode GkSketch surface: from_distribution(),
// merge(), quantile_batch(), and serialize()/deserialize(). The oracle is
// the same as test_gk_differential.cpp — the fully-sorted pooled sample and
// a rank-space check — because the GK contract is a rank guarantee. Merge
// is exercised over left-folds and balanced trees of seeded shard streams
// to pin that the ε-rank guarantee survives any merge shape the fleet
// console uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "stats/gk_sketch.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

/// The fleet reducer's construction path: a sketch from the runs of the
/// samples' distribution.
GkSketch sketch_of(std::vector<double> samples, double epsilon) {
  return GkSketch::from_distribution(EmpiricalDistribution(std::move(samples)), epsilon);
}


double rank_error(const std::vector<double>& sorted, double answer, double q) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), answer) - sorted.begin();
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), answer) - sorted.begin();
  const double target = std::ceil(q * static_cast<double>(sorted.size()));
  if (target < static_cast<double>(lo)) return static_cast<double>(lo) - target;
  if (target > static_cast<double>(hi)) return target - static_cast<double>(hi);
  return 0.0;
}

std::string fill_case(std::uint64_t case_index, util::Xoshiro256& rng,
                      std::vector<double>& out) {
  switch (case_index % 5) {
    case 0:
      for (double& v : out) v = rng.uniform01();
      return "uniform";
    case 1:
      // Small-integer bin counts: the shape fleet sketches actually hold.
      for (double& v : out) v = static_cast<double>(rng() % 40);
      return "bin-counts";
    case 2:
      for (double& v : out) v = static_cast<double>(rng() % 3);
      return "three-values";
    case 3:
      for (double& v : out) v = std::exp(3.0 * rng.uniform01());
      return "exp-skew";
    case 4:
      for (double& v : out) v = 7.0;
      return "constant";
    default:
      return "unreachable";
  }
}

const std::vector<double> kQuantiles = {0.0,  0.05, 0.25, 0.5,
                                        0.75, 0.9,  0.95, 0.99, 1.0};

TEST(GkFromSorted, MatchesTheRankGuaranteeAndTightensTuples) {
  for (std::uint64_t case_index = 0; case_index < 40; ++case_index) {
    util::Xoshiro256 rng(util::derive_seed(777, "gk-from-sorted", case_index));
    const std::size_t n = 50 + static_cast<std::size_t>(rng() % 8000);
    std::vector<double> samples(n);
    const std::string shape = fill_case(case_index, rng, samples);
    std::sort(samples.begin(), samples.end());

    const double epsilon = (case_index % 2 == 0) ? 1.0 / 48.0 : 0.01;
    const GkSketch sketch = sketch_of(samples, epsilon);
    ASSERT_EQ(sketch.count(), n);

    const double allowed = epsilon * static_cast<double>(n);
    for (double q : kQuantiles) {
      const double err = rank_error(samples, sketch.quantile(q), q);
      ASSERT_LE(err, allowed) << "case " << case_index << " (" << shape << "), n=" << n
                              << ", q=" << q;
    }
    // Space: compress() must have collapsed the run-length tuples into the
    // O((1/eps)·log(eps·n)) band (same loose guard as the add() suite).
    if (static_cast<double>(n) * epsilon > 32.0) {
      EXPECT_LT(static_cast<double>(sketch.tuple_count()),
                8.0 * std::log2(epsilon * static_cast<double>(n) + 2.0) / epsilon + 64.0);
    }
  }
}

TEST(GkFromSorted, NonFiniteInputIsRejectedAndSampleOrderIsIrrelevant) {
  // The distribution sorts its samples, so any sample order gives the
  // same sketch image; a non-finite sample never reaches the sketch.
  const auto image = [](const GkSketch& sketch) {
    std::stringstream buffer;
    sketch.serialize(buffer);
    return buffer.str();
  };
  EXPECT_EQ(image(sketch_of({3.0, 2.0, 1.0, 2.0}, 0.05)),
            image(sketch_of({1.0, 2.0, 2.0, 3.0}, 0.05)));
  EXPECT_THROW(sketch_of({1.0, std::nan(""), 2.0}, 0.05), PreconditionError);
  EXPECT_EQ(sketch_of({}, 0.05).count(), 0u);
}

TEST(GkMerge, LeftFoldOverShardsKeepsTheRankGuarantee) {
  // The fleet console's exact shape: per-shard from_distribution() summaries
  // folded left-to-right into one pooled sketch, vs the exact pooled sort.
  for (std::uint64_t case_index = 0; case_index < 60; ++case_index) {
    util::Xoshiro256 rng(util::derive_seed(777, "gk-merge-fold", case_index));
    const std::size_t shard_count = 2 + case_index % 7;
    const double epsilon = (case_index % 2 == 0) ? 1.0 / 48.0 : 0.02;

    GkSketch pooled(epsilon);
    std::vector<double> all;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::size_t n = 20 + static_cast<std::size_t>(rng() % 3000);
      std::vector<double> shard(n);
      fill_case(case_index + s, rng, shard);
      std::sort(shard.begin(), shard.end());
      all.insert(all.end(), shard.begin(), shard.end());
      pooled.merge(sketch_of(shard, epsilon));
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(pooled.count(), all.size());

    const double allowed = epsilon * static_cast<double>(all.size());
    for (double q : kQuantiles) {
      const double err = rank_error(all, pooled.quantile(q), q);
      ASSERT_LE(err, allowed)
          << "case " << case_index << ", shards=" << shard_count << ", q=" << q
          << ": pooled sketch answered " << pooled.quantile(q) << " with rank error "
          << err;
    }
  }
}

TEST(GkMerge, BalancedTreeFoldKeepsTheRankGuarantee) {
  for (std::uint64_t case_index = 0; case_index < 20; ++case_index) {
    util::Xoshiro256 rng(util::derive_seed(777, "gk-merge-tree", case_index));
    const double epsilon = 1.0 / 48.0;

    std::vector<GkSketch> level;
    std::vector<double> all;
    for (std::size_t s = 0; s < 8; ++s) {
      const std::size_t n = 20 + static_cast<std::size_t>(rng() % 2000);
      std::vector<double> shard(n);
      fill_case(case_index + s, rng, shard);
      std::sort(shard.begin(), shard.end());
      all.insert(all.end(), shard.begin(), shard.end());
      level.push_back(sketch_of(shard, epsilon));
    }
    while (level.size() > 1) {
      std::vector<GkSketch> next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        level[i].merge(level[i + 1]);
        next.push_back(std::move(level[i]));
      }
      level = std::move(next);
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(level.front().count(), all.size());

    const double allowed = epsilon * static_cast<double>(all.size());
    for (double q : kQuantiles) {
      ASSERT_LE(rank_error(all, level.front().quantile(q), q), allowed)
          << "case " << case_index << ", q=" << q;
    }
  }
}

TEST(GkMerge, EmptyAndMismatchedEpsilonEdges) {
  GkSketch a(0.05);
  GkSketch b(0.05);
  a.merge(b);  // empty into empty
  EXPECT_EQ(a.count(), 0u);

  const std::vector<double> vals = {1.0, 2.0, 3.0};
  b = sketch_of(vals, 0.05);
  a.merge(b);  // non-empty into empty adopts the other summary
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));

  GkSketch empty(0.05);
  a.merge(empty);  // empty into non-empty is a no-op
  EXPECT_EQ(a.count(), 3u);

  GkSketch other_eps(0.1);
  EXPECT_THROW(a.merge(other_eps), PreconditionError);
}

TEST(GkQuantileBatch, MatchesPerCallQuantileBitForBit) {
  for (std::uint64_t case_index = 0; case_index < 30; ++case_index) {
    util::Xoshiro256 rng(util::derive_seed(777, "gk-batch", case_index));
    const std::size_t n = 30 + static_cast<std::size_t>(rng() % 6000);
    std::vector<double> samples(n);
    fill_case(case_index, rng, samples);

    const double epsilon = 1.0 / 48.0;
    GkSketch sketch(epsilon);
    if (case_index % 2 == 0) {
      std::sort(samples.begin(), samples.end());
      sketch = sketch_of(samples, epsilon);
    } else {
      for (double v : samples) sketch.add(v);
    }

    // Dense ascending grid including the exact endpoints — the fleet's
    // per-user quantile-row shape.
    std::vector<double> qs;
    for (std::size_t j = 0; j <= 96; ++j) qs.push_back(static_cast<double>(j) / 96.0);
    std::vector<double> batch(qs.size());
    sketch.quantile_batch(qs, batch);
    for (std::size_t j = 0; j < qs.size(); ++j) {
      ASSERT_EQ(batch[j], sketch.quantile(qs[j]))
          << "case " << case_index << ", q=" << qs[j];
    }
  }
}

TEST(GkQuantileBatch, RejectsBadBatches) {
  const std::vector<double> vals = {1.0, 2.0, 3.0};
  const GkSketch sketch = sketch_of(vals, 0.05);
  std::vector<double> out(2);
  const std::vector<double> descending = {0.9, 0.1};
  EXPECT_THROW(sketch.quantile_batch(descending, out), PreconditionError);
  const std::vector<double> out_of_range = {0.5, 1.5};
  EXPECT_THROW(sketch.quantile_batch(out_of_range, out), PreconditionError);
  std::vector<double> wrong_size(3);
  EXPECT_THROW(sketch.quantile_batch(descending, wrong_size), PreconditionError);
  const GkSketch empty(0.05);
  const std::vector<double> one = {0.5};
  std::vector<double> one_out(1);
  EXPECT_THROW(empty.quantile_batch(one, one_out), PreconditionError);
}

TEST(GkSerde, RoundTripAnswersEveryQueryIdentically) {
  for (std::uint64_t case_index = 0; case_index < 20; ++case_index) {
    util::Xoshiro256 rng(util::derive_seed(777, "gk-serde", case_index));
    const std::size_t n = 10 + static_cast<std::size_t>(rng() % 4000);
    std::vector<double> samples(n);
    fill_case(case_index, rng, samples);
    GkSketch sketch(0.02);
    for (double v : samples) sketch.add(v);

    std::stringstream buffer;
    sketch.serialize(buffer);
    const GkSketch restored = GkSketch::deserialize(buffer);
    ASSERT_EQ(restored.count(), sketch.count());
    ASSERT_EQ(restored.tuple_count(), sketch.tuple_count());
    ASSERT_EQ(restored.epsilon(), sketch.epsilon());
    for (double q : kQuantiles) ASSERT_EQ(restored.quantile(q), sketch.quantile(q));

    // A restored sketch must stay a live summary: merging into it works.
    GkSketch target = GkSketch::deserialize(*(buffer.seekg(0), &buffer));
    target.merge(sketch);
    EXPECT_EQ(target.count(), 2 * n);
  }
}

TEST(GkSerde, RejectsCorruptImages) {
  const std::vector<double> vals = {1.0, 2.0, 2.0, 3.0, 9.0};
  GkSketch sketch = sketch_of(vals, 0.1);

  {  // bad magic
    std::stringstream buffer;
    sketch.serialize(buffer);
    std::string image = buffer.str();
    image[0] = static_cast<char>(~image[0]);
    std::stringstream corrupt(image);
    EXPECT_THROW(GkSketch::deserialize(corrupt), InputError);
  }
  {  // truncated mid-tuple
    std::stringstream buffer;
    sketch.serialize(buffer);
    std::stringstream truncated(buffer.str().substr(0, buffer.str().size() - 7));
    EXPECT_THROW(GkSketch::deserialize(truncated), InputError);
  }
  {  // rank bookkeeping that does not sum to n
    std::stringstream buffer;
    sketch.serialize(buffer);
    std::string image = buffer.str();
    // n lives right after magic (4) + epsilon (8); inflate it.
    image[12] = static_cast<char>(image[12] + 1);
    std::stringstream corrupt(image);
    EXPECT_THROW(GkSketch::deserialize(corrupt), InputError);
  }
  {  // empty stream
    std::stringstream empty;
    EXPECT_THROW(GkSketch::deserialize(empty), InputError);
  }
}

}  // namespace
}  // namespace monohids::stats
