// Randomized differential suite for the kernel layer. The rank paths, the
// run-length EmpiricalDistribution and the detector/evaluator alarm loops
// must match the oracles in tests/oracle (the sorted-sample distribution,
// one std::upper_bound per query, one compare per bin) on the same inputs,
// and every available synthesis back-end, called through its table, must
// reproduce the scalar reference. Ranks and counts are integers and every
// floating-point answer is compared by bit pattern, so any divergence is a
// bug, not numerical noise. 520 seeded cases sweep arena shapes (uniform,
// heavy-tailed, few-distinct-values/massive ties, small counts, extreme
// magnitudes, constant, negative values, mixed -0.0/+0.0 zeros, and
// non-integers above the histogram range) and sizes (empty, single-sample,
// up to 3000) crossed with sorted and unsorted query batches whose values
// are deliberately pinned onto arena samples to stress tie handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hids/attack_model.hpp"
#include "hids/detector.hpp"
#include "hids/evaluator.hpp"
#include "oracle/per_call.hpp"
#include "oracle/sorted_distribution.hpp"
#include "stats/empirical.hpp"
#include "stats/kernels.hpp"
#include "stats/ks.hpp"
#include "stats/sampling.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

using kernels::Backend;

constexpr std::uint64_t kCases = 520;

std::vector<Backend> simd_backends() {
  std::vector<Backend> out;
  if (kernels::backend_available(Backend::Avx2)) out.push_back(Backend::Avx2);
  return out;
}

/// Draws one arena shape into `out` in sample (unsorted) order; returns its
/// name for failure messages.
std::string fill_arena(std::uint64_t case_index, util::Xoshiro256& rng,
                       std::vector<double>& out) {
  const std::size_t n = case_index % 7 == 0   ? 0
                        : case_index % 7 == 1 ? 1
                                              : 1 + rng() % 3000;
  out.resize(n);
  switch (case_index % 9) {
    case 0:
      for (double& v : out) v = rng.uniform01() * 100.0;
      return "uniform";
    case 1: {
      const LogNormalSampler lognormal(0.0, 2.0);
      for (double& v : out) v = lognormal.sample(rng);
      return "lognormal";
    }
    case 2:
      // Few distinct values: the tie regime every traffic-count feature
      // lives in, and the case where upper-bound vs lower-bound confusion
      // shows up immediately.
      for (double& v : out) v = static_cast<double>(rng() % 5);
      return "five-values";
    case 3:
      for (double& v : out) v = static_cast<double>(rng() % 200);
      return "counts";
    case 4:
      // Extreme magnitudes: denormal-adjacent and huge values in one arena.
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = (i % 2 == 0) ? rng.uniform01() * 1e-300 : rng.uniform01() * 1e300;
      }
      return "extremes";
    case 5:
      out.assign(out.size(), 42.0);
      return "constant";
    case 6:
      // Negative counts and fractions: never the histogram path.
      for (double& v : out) {
        v = rng() % 2 == 0 ? static_cast<double>(rng() % 40) - 30.0
                           : (rng.uniform01() - 0.8) * 50.0;
      }
      return "negative";
    case 7:
      // Small counts with -0.0 mixed into the +0.0 zeros: one zero run.
      for (double& v : out) {
        const auto r = rng() % 4;
        v = r == 0 ? -0.0 : static_cast<double>(r - 1);
      }
      return "signed-zeros";
    default:
      // Non-integers above the histogram's 65535 cap, tied in pairs.
      for (double& v : out) v = 65535.0 + std::floor(rng.uniform01() * 500.0) * 0.75;
      return "above-65535";
  }
}

/// The sorted-sample reference of `samples`. std::sort leaves tied
/// -0.0/+0.0 in unspecified order, so zeros are canonicalized to +0.0, the
/// representative the run representation keeps (pinned separately).
oracle::SortedDistribution reference_of(std::vector<double> samples) {
  for (double& v : samples) {
    if (v == 0.0) v = 0.0;
  }
  return oracle::SortedDistribution(std::move(samples));
}

/// Query batch: half fresh random values, half pinned exactly onto arena
/// samples (ties). Sorted for even cases, shuffled for odd ones.
std::vector<double> make_queries(const std::vector<double>& arena, std::uint64_t case_index,
                                 util::Xoshiro256& rng, bool& sorted) {
  const std::size_t t = 1 + rng() % 300;
  std::vector<double> xs(t);
  for (double& q : xs) {
    if (!arena.empty() && rng() % 2 == 0) {
      q = arena[rng() % arena.size()];
    } else {
      q = (rng.uniform01() - 0.25) * 150.0;
    }
  }
  sorted = case_index % 2 == 0;
  if (sorted) {
    std::sort(xs.begin(), xs.end());
  } else {
    for (std::size_t i = xs.size(); i > 1; --i) std::swap(xs[i - 1], xs[rng() % i]);
  }
  return xs;
}

/// `xs` shifted by one IEEE subtraction each (xs[j] - shift), the way
/// shifted attack queries are formed.
std::vector<double> shifted(const std::vector<double>& xs, double shift) {
  std::vector<double> out(xs.size());
  for (std::size_t j = 0; j < xs.size(); ++j) out[j] = xs[j] - shift;
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> bits(std::span<const double> vs) {
  std::vector<std::uint64_t> out;
  out.reserve(vs.size());
  for (double v : vs) out.push_back(bits(v));
  return out;
}

/// Asserts that `dist` holds exactly the runs of `reference`.
void expect_same_runs(const EmpiricalDistribution& dist,
                      const oracle::SortedDistribution& reference, const std::string& label) {
  ASSERT_EQ(bits(dist.values()), bits(reference.distinct_values())) << label << " values";
  const auto cum = dist.cumulative_counts();
  ASSERT_EQ(std::vector<std::uint32_t>(cum.begin(), cum.end()), reference.cumulative_counts())
      << label << " cumulative counts";
}

TEST(KernelDifferential, RankAndAlarmCountsMatchPerCallOracle) {
  std::uint64_t executed = 0;
  for (std::uint64_t c = 0; c < kCases; ++c) {
    util::Xoshiro256 rng(0x5eed0000 + c);
    std::vector<double> samples;
    const std::string arena_name = fill_arena(c, rng, samples);
    const EmpiricalDistribution dist{std::vector<double>(samples)};
    const oracle::SortedDistribution reference = reference_of(samples);
    const std::vector<double> arena(reference.samples().begin(), reference.samples().end());
    bool sorted = false;
    const std::vector<double> xs = make_queries(arena, c, rng, sorted);
    // Zero shift on every third case keeps the pinned queries exactly tied
    // to arena samples (nonzero shifts would perturb them off the ties).
    const double shift = (c % 3 == 0) ? 0.0 : (rng.uniform01() - 0.5) * 10.0;
    const std::string label =
        "case " + std::to_string(c) + " (" + arena_name + ", n=" +
        std::to_string(arena.size()) + ", t=" + std::to_string(xs.size()) +
        (sorted ? ", sorted)" : ", unsorted)");

    const std::vector<double> queries = shifted(xs, shift);
    const std::vector<std::uint32_t> expected = oracle::upper_bound_ranks(arena, queries);
    std::vector<std::uint32_t> got(xs.size(), 0xffffffffu);
    dist.rank_batch(queries, got);
    ASSERT_EQ(got, expected) << label << " rank_batch";
    if (sorted) {
      std::fill(got.begin(), got.end(), 0xffffffffu);
      kernels::rank_sorted(arena, queries, got.data());
      ASSERT_EQ(got, expected) << label << " rank_sorted";
    }

    const hids::ThresholdDetector detector(xs[c % xs.size()]);
    ASSERT_EQ(detector.count_alarms(xs), oracle::count_alarms(detector, xs))
        << label << " count_alarms";

    // Mean FN over an attack sweep in arbitrary size order (ascending on
    // every other case), per threshold and, for sorted query batches, as
    // one ascending threshold sweep.
    if (!dist.empty()) {
      hids::AttackModel attack;
      attack.sizes.resize(1 + rng() % 40);
      for (double& s : attack.sizes) {
        // Whole sizes land shifted queries exactly on integer samples.
        s = rng() % 2 == 0 ? static_cast<double>(1 + rng() % 20) : rng.uniform01() * 20.0;
      }
      if (c % 4 < 2) std::sort(attack.sizes.begin(), attack.sizes.end());
      std::vector<double> per_call, sorted_samples, single;
      for (double t : xs) {
        per_call.push_back(oracle::mean_fn(attack, dist, t));
        sorted_samples.push_back(reference.mean_fn(attack, t));
        single.push_back(attack.mean_fn(dist, t));
      }
      ASSERT_EQ(bits(single), bits(sorted_samples)) << label << " mean_fn vs sorted samples";
      ASSERT_EQ(bits(per_call), bits(sorted_samples)) << label << " per-call vs sorted samples";
      if (sorted) {
        std::vector<double> fn(xs.size());
        attack.mean_fn_batch(dist, xs, fn);
        ASSERT_EQ(bits(fn), bits(sorted_samples)) << label << " mean_fn_batch vs sorted samples";
      }
    }
    ++executed;
  }
  EXPECT_GE(executed, 500u);
}

TEST(KernelDifferential, DistributionMatchesSortedSamplesOracle) {
  // The same 520 arenas, built into distributions and queried through every
  // entry point, against the sorted-sample reference.
  const std::vector<double> fixed_qs = {0.0,  1e-9, 0.01, 0.25,  0.5,
                                        0.75, 0.9,  0.99, 0.999, 1.0};
  std::uint64_t signed_zero_arenas = 0;
  for (std::uint64_t c = 0; c < kCases; ++c) {
    util::Xoshiro256 rng(0x5eed0000 + c);
    std::vector<double> samples;
    const std::string arena_name = fill_arena(c, rng, samples);
    const std::string label =
        "case " + std::to_string(c) + " (" + arena_name + ", n=" +
        std::to_string(samples.size()) + ")";
    const EmpiricalDistribution dist{std::vector<double>(samples)};
    const oracle::SortedDistribution reference = reference_of(samples);
    if (samples.empty()) {
      ASSERT_TRUE(dist.empty()) << label;
      continue;
    }
    expect_same_runs(dist, reference, label);
    ASSERT_EQ(dist.size(), samples.size()) << label;

    // A run of zeros keeps +0.0 whichever signs its samples carry.
    const bool has_negative_zero = std::any_of(samples.begin(), samples.end(), [](double v) {
      return v == 0.0 && std::signbit(v);
    });
    if (has_negative_zero) {
      ++signed_zero_arenas;
      const auto values = dist.values();
      const auto zero = std::find(values.begin(), values.end(), 0.0);
      ASSERT_NE(zero, values.end()) << label;
      ASSERT_FALSE(std::signbit(*zero)) << label << " zero run keeps -0.0";
    }

    ASSERT_EQ(bits(dist.min()), bits(reference.samples().front())) << label;
    ASSERT_EQ(bits(dist.max()), bits(reference.samples().back())) << label;
    ASSERT_EQ(bits(dist.mean()), bits(reference.mean())) << label << " mean";
    ASSERT_EQ(bits(dist.variance()), bits(reference.variance())) << label << " variance";

    std::vector<double> qs = fixed_qs;
    for (int i = 0; i < 20; ++i) qs.push_back(rng.uniform01());
    for (double q : qs) {
      ASSERT_EQ(bits(dist.quantile(q)), bits(reference.quantile(q))) << label << " q=" << q;
      ASSERT_EQ(bits(dist.quantile_interpolated(q)), bits(reference.quantile_interpolated(q)))
          << label << " interpolated q=" << q;
    }

    bool sorted = false;
    const std::vector<double> xs = make_queries(
        std::vector<double>(reference.samples().begin(), reference.samples().end()), c, rng,
        sorted);
    const double shift = (rng.uniform01() - 0.3) * 10.0;
    for (std::size_t j = 0; j < xs.size(); ++j) {
      const double x = xs[j];
      ASSERT_EQ(bits(dist.cdf(x)), bits(reference.cdf(x))) << label << " cdf x=" << x;
      ASSERT_EQ(bits(dist.exceedance(x)), bits(reference.exceedance(x))) << label << " x=" << x;
      ASSERT_EQ(bits(dist.shifted_cdf(shift, x)), bits(reference.shifted_cdf(shift, x)))
          << label << " shifted_cdf x=" << x;
      const double mass = qs[j % qs.size()] == 0.0 ? 1.0 : qs[j % qs.size()];
      ASSERT_EQ(bits(dist.max_hidden_shift(x, mass)), bits(reference.max_hidden_shift(x, mass)))
          << label << " max_hidden_shift t=" << x << " mass=" << mass;
    }

    // Merge of 1, 2 and k parts: the samples dealt into parts at random.
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, 3 + c % 6}) {
      std::vector<std::vector<double>> dealt(k);
      for (double v : samples) dealt[rng() % k].push_back(v);
      std::vector<EmpiricalDistribution> parts;
      std::vector<oracle::SortedDistribution> reference_parts;
      for (auto& part : dealt) {
        parts.emplace_back(part);
        reference_parts.push_back(reference_of(part));
      }
      const EmpiricalDistribution merged = EmpiricalDistribution::merge(parts);
      const std::string what = label + " merge of " + std::to_string(k);
      expect_same_runs(merged, oracle::SortedDistribution::merge(reference_parts), what);
      ASSERT_EQ(bits(merged.mean()), bits(reference.mean())) << what;
    }

    // KS against another arena of the same shape (in another size class):
    // the run walk against the sample walk.
    std::vector<double> other;
    (void)fill_arena(c + 9, rng, other);
    if (!other.empty()) {
      const EmpiricalDistribution other_dist{std::vector<double>(other)};
      ASSERT_EQ(bits(stats::ks_statistic(dist, other_dist)),
                bits(oracle::ks_statistic(samples, other)))
          << label << " ks_statistic";
    }
  }
  EXPECT_GT(signed_zero_arenas, 30u);
}

TEST(KernelDifferential, ReplayAndJointLoopsMatchPerCallOracle) {
  for (std::uint64_t c = 0; c < 200; ++c) {
    util::Xoshiro256 rng(0xab5eed + c);
    const std::size_t bins = 1 + rng() % 2000;
    std::vector<double> benign(bins), attack(bins);
    for (std::size_t i = 0; i < bins; ++i) {
      benign[i] = static_cast<double>(rng() % 30);
      attack[i] = (rng() % 3 == 0) ? static_cast<double>(rng() % 10) : 0.0;
    }
    const double threshold = static_cast<double>(rng() % 25);
    const hids::ReplayOutcome replay = hids::evaluate_replay(benign, attack, threshold);
    const hids::ReplayOutcome ref_replay = oracle::evaluate_replay(benign, attack, threshold);
    ASSERT_EQ(replay.fp_rate, ref_replay.fp_rate) << "case " << c;
    ASSERT_EQ(replay.detection_rate, ref_replay.detection_rate) << "case " << c;

    // One-minute bins keep every case (at most 2000 bins) inside week 0.
    features::FeatureMatrix matrix;
    for (auto& series : matrix.series) {
      series = features::BinnedSeries(util::BinGrid::minutes(1),
                                      bins * util::BinGrid::minutes(1).width());
      for (std::size_t b = 0; b < bins; ++b) series.set(b, static_cast<double>(rng() % 20));
    }
    std::array<double, features::kFeatureCount> thresholds{};
    for (double& t : thresholds) t = static_cast<double>(rng() % 15);
    const hids::JointAlarmOutcome joint = hids::joint_alarm_rate(matrix, 0, thresholds);
    const hids::JointAlarmOutcome ref_joint = oracle::joint_alarm_rate(matrix, 0, thresholds);
    ASSERT_EQ(joint.per_feature, ref_joint.per_feature) << "case " << c;
    ASSERT_EQ(joint.joint_fp_rate, ref_joint.joint_fp_rate) << "case " << c;
    ASSERT_EQ(joint.sum_of_marginals, ref_joint.sum_of_marginals) << "case " << c;
  }
}

TEST(KernelDifferential, PhiloxFillBitIdenticalToTheSerialEngine) {
  // The bulk counter-mode generator on every back-end must reproduce
  // util::Philox4x32 word for word — the v2 scenario contract's
  // SIMD-invariance rests on this, so the check is literal equality over
  // keys/streams/offsets including non-multiple-of-4 block counts.
  const auto simd = simd_backends();
  const kernels::Ops& scalar = *kernels::ops_for(Backend::Scalar);
  for (std::uint64_t c = 0; c < 50; ++c) {
    util::Xoshiro256 rng(0x9e37 + c);
    const std::uint64_t key = rng();
    const std::uint64_t stream = rng() % 4096;
    const std::uint64_t first_block = rng() % 1000;
    const std::size_t blocks = 1 + rng() % 70;

    util::Philox4x32 engine(key, stream);
    engine.seek(first_block * 4);
    std::vector<std::uint32_t> ref(blocks * 4);
    for (auto& w : ref) w = engine();

    std::vector<std::uint32_t> got(blocks * 4, 0xdeadbeefu);
    scalar.philox_fill(key, stream, first_block, got.data(), blocks);
    ASSERT_EQ(got, ref) << "case " << c << " on scalar";
    for (Backend b : simd) {
      std::fill(got.begin(), got.end(), 0xdeadbeefu);
      kernels::ops_for(b)->philox_fill(key, stream, first_block, got.data(), blocks);
      ASSERT_EQ(got, ref) << "case " << c << " on " << kernels::backend_name(b);
    }
  }
}

TEST(KernelDifferential, PoissonCountsBitIdenticalToScalar) {
  // The fused count sweep mixes four per-lane regimes: exact-zero means,
  // zero-draw shortcut lanes (word + mean clears nothing), inversion-walk
  // lanes below the normal cutoff, and heavy normal-regime lanes above it.
  // Cases deliberately pack mixed quads so the AVX2 per-lane masking and
  // the scalar funnel for heavy lanes are both exercised; counts and the
  // returned sum must match the scalar reference exactly.
  const auto simd = simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD back-end available on this host";
  const kernels::Ops& scalar = *kernels::ops_for(Backend::Scalar);

  for (std::uint64_t c = 0; c < 120; ++c) {
    util::Xoshiro256 rng(0x70155a + c);
    const std::size_t n = 1 + rng() % 600;  // crosses quad boundaries freely
    std::vector<double> means(n);
    for (double& m : means) {
      switch (rng() % 6) {
        case 0: m = 0.0; break;                                   // exact zero
        case 1: m = rng.uniform01() * 0.01; break;                // shortcut-heavy
        case 2: m = rng.uniform01() * 1.0; break;                 // low inversion
        case 3: m = rng.uniform01() * 11.9; break;                // full inversion
        case 4: m = 12.0 + rng.uniform01() * 50.0; break;         // normal regime
        default: m = rng.uniform01() * 500.0; break;              // anything
      }
    }
    std::vector<std::uint32_t> words(((n + 3) / 4) * 4);
    util::Philox4x32::fill_blocks(rng(), c, 0, words.data(), (n + 3) / 4);
    words.resize(n);

    std::vector<std::uint32_t> ref(n, 0xffffffffu);
    const std::uint64_t ref_sum = scalar.poisson_counts(means.data(), words.data(),
                                                        ref.data(), n);

    for (Backend b : simd) {
      std::vector<std::uint32_t> got(n, 0xffffffffu);
      const std::uint64_t sum = kernels::ops_for(b)->poisson_counts(
          means.data(), words.data(), got.data(), n);
      ASSERT_EQ(got, ref) << "case " << c << " (n=" << n << ") on "
                          << kernels::backend_name(b);
      ASSERT_EQ(sum, ref_sum) << "case " << c << " on " << kernels::backend_name(b);
    }
  }
}

TEST(KernelDifferential, PoissonCountsPairDeadQuadsWithLongWalks) {
  // The AVX2 kernel walks two quads in one loop until neither has a live
  // lane, and the portable tail takes the last n % 8 lanes. Pair an
  // all-dead quad (zero means, shortcut lanes, heavy normal-regime lanes)
  // with a quad whose lanes walk far (mean just below the cutoff, words
  // near 2^32), in both orders, for every n % 8 from 0 to 7 and every
  // start offset that shifts the quad grouping by one to seven lanes.
  const auto simd = simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD back-end available on this host";
  const kernels::Ops& scalar = *kernels::ops_for(Backend::Scalar);

  util::Xoshiro256 rng(0xdeadbeef);
  for (int pattern = 0; pattern < 6; ++pattern) {
    for (std::size_t n = 8; n < 40; ++n) {
      std::vector<double> means(n);
      std::vector<std::uint32_t> words(n);
      for (std::size_t i = 0; i < n; ++i) {
        const bool walking_quad = ((i / 4) % 2 == 0) == (pattern % 2 == 0);
        if (walking_quad) {
          means[i] = 11.0 + rng.uniform01() * 0.99;
          words[i] = 0xffffffffu - static_cast<std::uint32_t>(rng() % 4096);
        } else {
          switch (pattern / 2) {
            case 0: means[i] = 0.0; words[i] = static_cast<std::uint32_t>(rng()); break;
            case 1: means[i] = 0.01; words[i] = static_cast<std::uint32_t>(rng() % 1000); break;
            default: means[i] = 12.0 + rng.uniform01() * 400.0;
                     words[i] = static_cast<std::uint32_t>(rng()); break;
          }
        }
      }
      for (std::size_t offset = 0; offset < 8; ++offset) {
        const std::size_t len = n - offset;
        std::vector<std::uint32_t> ref(len, 0xffffffffu);
        const std::uint64_t ref_sum = scalar.poisson_counts(
            means.data() + offset, words.data() + offset, ref.data(), len);
        for (Backend b : simd) {
          std::vector<std::uint32_t> got(len, 0xffffffffu);
          const std::uint64_t sum = kernels::ops_for(b)->poisson_counts(
              means.data() + offset, words.data() + offset, got.data(), len);
          ASSERT_EQ(got, ref) << "pattern " << pattern << " n=" << n << " offset=" << offset
                              << " on " << kernels::backend_name(b);
          ASSERT_EQ(sum, ref_sum) << "pattern " << pattern << " n=" << n;
        }
      }
    }
  }
}

}  // namespace
}  // namespace monohids::stats
