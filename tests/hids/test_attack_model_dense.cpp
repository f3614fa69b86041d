// AttackModel::mean_fn_batch's rank-table path, and mean_fn's run walk on
// the same inputs, against the per-call oracle (one shifted_cdf per attack
// size), bit for bit.
//
// In mean_fn_batch, distributions whose values are small non-negative
// integers answer each shifted rank with one load from a dense table of
// rank quotients; any other distribution, and any whose table would be
// sparse for the lookups it serves, walks the runs. The cases below sit on
// both sides of every rule that picks the path: the 65535 value limit, a
// fractional run, signed zeros, a single run, queries below min() and past
// max(), whole-number sizes that land queries exactly on values, and the
// sparsity cutoff. mean_fn also gets sizes in any order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "hids/attack_model.hpp"
#include "hids/heuristics.hpp"
#include "oracle/per_call.hpp"
#include "stats/empirical.hpp"
#include "support/attack_sweep.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

using stats::EmpiricalDistribution;
using test_support::linear_attack_sweep;

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

/// Asserts mean_fn at every threshold, and mean_fn_batch over them when
/// they ascend, equal the per-call oracle bit for bit.
void expect_oracle(const AttackModel& attack, const EmpiricalDistribution& g,
                   const std::vector<double>& thresholds, const std::string& label) {
  std::vector<double> expected, single;
  for (double t : thresholds) {
    expected.push_back(oracle::mean_fn(attack, g, t));
    single.push_back(attack.mean_fn(g, t));
  }
  ASSERT_EQ(bits(single), bits(expected)) << label << ": mean_fn";
  if (std::is_sorted(thresholds.begin(), thresholds.end())) {
    std::vector<double> batch(thresholds.size(), -1.0);
    attack.mean_fn_batch(g, thresholds, batch);
    ASSERT_EQ(bits(batch), bits(expected)) << label << ": mean_fn_batch";
  }
}

/// A host-week of 15-minute traffic counts: 672 bins, about a fifth idle,
/// a busy body and a heavy tail reaching `peak`.
std::vector<double> host_week(util::Xoshiro256& rng, std::uint32_t peak) {
  std::vector<double> bins(672);
  for (double& b : bins) {
    const double u = rng.uniform01();
    if (u < 0.2) {
      b = 0.0;
    } else if (u < 0.95) {
      b = static_cast<double>(rng() % (peak / 8 + 1));
    } else {
      b = static_cast<double>(rng() % (peak + 1));
    }
  }
  bins[rng() % bins.size()] = static_cast<double>(peak);
  return bins;
}

/// Candidate thresholds (the run values and max + 1) plus ascending
/// queries from below min() to past max(), some fractional.
std::vector<double> sweep_thresholds(const EmpiricalDistribution& g, util::Xoshiro256& rng) {
  std::vector<double> th = candidate_thresholds(g);
  th.push_back(-3.0);
  th.push_back(g.min() - 0.5);
  th.push_back(g.max() + 0.25);
  th.push_back(2.0 * g.max() + 7.0);
  for (int i = 0; i < 16; ++i) th.push_back(rng.uniform01() * (g.max() + 20.0));
  std::sort(th.begin(), th.end());
  return th;
}

/// Sizes of a seeded sweep up to `top`: whole numbers (queries land on
/// values) and fractions, in ascending or shuffled order.
AttackModel seeded_sweep(util::Xoshiro256& rng, double top, std::size_t count, bool shuffle) {
  AttackModel attack;
  for (std::size_t i = 0; i < count; ++i) {
    const double s = rng() % 2 == 0 ? static_cast<double>(1 + rng() % static_cast<std::uint64_t>(top))
                                    : 0.5 + rng.uniform01() * top;
    attack.sizes.push_back(s);
  }
  std::sort(attack.sizes.begin(), attack.sizes.end());
  if (shuffle) {
    for (std::size_t i = attack.sizes.size(); i > 1; --i) {
      std::swap(attack.sizes[i - 1], attack.sizes[rng() % i]);
    }
  }
  return attack;
}

TEST(AttackModelDense, HostWeeksAndTheirPoolsMatchTheOracle) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    util::Xoshiro256 rng(0xd3a5e000 + seed);
    std::vector<EmpiricalDistribution> hosts;
    for (int h = 0; h < 24; ++h) {
      const std::uint32_t peak = 4 + static_cast<std::uint32_t>(rng() % (h % 3 == 0 ? 3000 : 200));
      hosts.emplace_back(host_week(rng, peak));
    }
    const EmpiricalDistribution pool = EmpiricalDistribution::merge(hosts);
    const AttackModel log_sweep = log_attack_sweep(1.0, pool.max(), 64);
    for (std::size_t h = 0; h <= hosts.size(); ++h) {
      const EmpiricalDistribution& g = h < hosts.size() ? hosts[h] : pool;
      const std::string label = "seed " + std::to_string(seed) + (h < hosts.size() ? " host " + std::to_string(h) : " pool");
      expect_oracle(log_sweep, g, sweep_thresholds(g, rng), label + " log sweep");
      const AttackModel shuffled = seeded_sweep(rng, std::min(g.max() + 1.0, 40.0), 64, true);
      // Low thresholds, fractional and whole, under shuffled sizes.
      std::vector<double> low;
      for (int i = 0; i < 24; ++i) low.push_back(g.min() + static_cast<double>(rng() % 48) + (i % 4 == 0 ? 0.5 : 0.0));
      expect_oracle(shuffled, g, low, label + " shuffled sizes");
    }
  }
}

TEST(AttackModelDense, LargestValue65535AndOneMore) {
  // Dense runs 0..599 and one far value: enough thresholds x sizes that
  // the batch affords a table of 65536 slots; 65536 is past the limit.
  for (const double far : {65535.0, 65536.0}) {
    std::vector<double> samples;
    for (int v = 0; v < 600; ++v) samples.push_back(static_cast<double>(v));
    samples.push_back(far);
    samples.push_back(far);
    const EmpiricalDistribution g(samples);
    const AttackModel attack = linear_attack_sweep(far, 64);
    util::Xoshiro256 rng(static_cast<std::uint64_t>(far));
    std::vector<double> th = candidate_thresholds(g);
    for (int i = 0; i < 64; ++i) th.push_back(rng.uniform01() * (far + 1000.0));
    th.push_back(far - 0.5);
    th.push_back(far);
    std::sort(th.begin(), th.end());
    expect_oracle(attack, g, th, "far value " + std::to_string(far));
  }
}

TEST(AttackModelDense, FractionalRunKeepsTheWalk) {
  // One fractional run anywhere, below the queries or above them, sends
  // the batch to the walk. The smallest size sits last, so mean_fn's
  // cursor moves both ways.
  AttackModel attack;
  for (int i = 0; i < 63; ++i) attack.sizes.push_back(4.0 + static_cast<double>(i % 9));
  attack.sizes.push_back(1.0);
  const double t = 12.0;
  for (const double half : {5.5, 10.5, 11.0, 11.5, 12.5}) {
    std::vector<double> samples;
    for (int v = 0; v <= 20; ++v) samples.push_back(static_cast<double>(v));
    samples.push_back(half);
    samples.push_back(half);
    const EmpiricalDistribution g(samples);
    const std::string label = "run at " + std::to_string(half);
    expect_oracle(attack, g, {t, t + 0.25, t - 0.5, 9.0, 6.0, 0.0}, label);
    expect_oracle(attack, g, {-1.0, 0.0, 5.5, 6.0, 9.0, 11.0, 12.0, 12.5, 30.0, 40.0}, label);
  }
}

TEST(AttackModelDense, SignedZerosAndSingleRuns) {
  const AttackModel attack = linear_attack_sweep(8.0, 16);
  const std::vector<double> th = {-1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 7.0, 8.0, 9.0, 16.0, 100.0};
  expect_oracle(attack, EmpiricalDistribution(std::vector<double>{-0.0, 0.0, -0.0, 2.0, 2.0, 5.0}),
                th, "signed zeros");
  expect_oracle(attack, EmpiricalDistribution(std::vector<double>{-0.0, -0.0}), th, "only -0.0");
  expect_oracle(attack, EmpiricalDistribution(std::vector<double>{0.0}), th, "single zero");
  expect_oracle(attack, EmpiricalDistribution(std::vector<double>{7.0, 7.0, 7.0}),
                th, "single run 7");
  expect_oracle(attack, EmpiricalDistribution(std::vector<double>{65535.0}),
                th, "single run 65535");
  // A negative or fractional value anywhere keeps the walk.
  expect_oracle(attack, EmpiricalDistribution(std::vector<double>{-2.0, 0.0, 1.0, 3.0}),
                th, "negative run");
  expect_oracle(attack, EmpiricalDistribution(std::vector<double>{0.25, 1.0, 3.0}),
                th, "fractional first run");
}

TEST(AttackModelDense, QueriesBelowMinAndPastMax) {
  // Every query below min() adds nothing and every query at or past max()
  // adds n/n; whole-number sizes and thresholds land queries on values.
  std::vector<double> samples;
  for (int v = 10; v <= 30; v += 2) samples.insert(samples.end(), 3, static_cast<double>(v));
  const EmpiricalDistribution g(samples);
  AttackModel attack;
  for (int b = 1; b <= 40; ++b) attack.sizes.push_back(static_cast<double>(b));
  std::vector<double> th;
  for (int t = -5; t <= 80; ++t) th.push_back(static_cast<double>(t));
  expect_oracle(attack, g, th, "ascending whole sizes");
  std::reverse(attack.sizes.begin(), attack.sizes.end());
  expect_oracle(attack, g, th, "descending whole sizes");
}

TEST(AttackModelDense, ShuffledSizesSkipLowQueries) {
  // Sizes whose query falls below min() come first and in between: mean_fn
  // must skip them, not stop at them.
  util::Xoshiro256 rng(0x5ca1ab1e);
  std::vector<double> samples;
  for (int v = 5; v <= 15; ++v) samples.insert(samples.end(), 1 + rng() % 4, static_cast<double>(v));
  const EmpiricalDistribution g(samples);
  for (int round = 0; round < 50; ++round) {
    AttackModel attack = seeded_sweep(rng, 14.0, 64, true);
    attack.sizes[0] = 13.0;  // query below min() first
    std::vector<double> th;
    for (int i = 0; i < 12; ++i) th.push_back(5.0 + static_cast<double>(rng() % 12) + rng.uniform01());
    expect_oracle(attack, g, th, "round " + std::to_string(round));
  }
}

TEST(AttackModelDense, SparsityCutoffBothSides) {
  // The batch affords 2 slots per lookup: 64 sizes x 3 thresholds (two
  // runs and max + 1) allow 384 slots, i.e. a largest value of 383.
  const AttackModel sweep = linear_attack_sweep(400.0, 64);
  for (const double top : {382.0, 383.0, 384.0, 385.0, 60000.0}) {
    const EmpiricalDistribution g(std::vector<double>{0.0, 0.0, top});
    std::vector<double> th = candidate_thresholds(g);
    expect_oracle(sweep, g, th, "batch top " + std::to_string(top));
    th = {0.0, top / 2.0, top - 1.0, top, top + 0.5, top + 400.0};
    expect_oracle(sweep, g, th, "mixed top " + std::to_string(top));
  }
  // Descending fractional sizes with queries landing on and between runs.
  AttackModel attack;
  for (int b = 64; b >= 1; --b) attack.sizes.push_back(static_cast<double>(b) / 4.0 + 0.75);
  std::vector<double> samples;
  for (int v = 0; v <= 40; ++v) samples.insert(samples.end(), 1 + v % 3, static_cast<double>(v));
  const EmpiricalDistribution g(samples);
  expect_oracle(attack, g, {15.5, 16.0, 16.5, 16.75, 17.0, 17.5, 30.0}, "descending sizes");
}

}  // namespace
}  // namespace monohids::hids
