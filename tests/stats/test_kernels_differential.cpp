// Randomized differential suite for the SIMD kernel layer: every available
// back-end, forced in-process, must produce bit-identical results to the
// scalar reference on the same inputs. Ranks and counts are integers, so
// "bit-identical" here is literal equality — any divergence is a kernel bug,
// not numerical noise. 500+ seeded cases sweep arena shapes (uniform,
// heavy-tailed, few-distinct-values/massive ties, empty, single-sample,
// extreme magnitudes) crossed with sorted and unsorted query batches whose
// values are deliberately pinned onto arena samples to stress tie handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/kernels.hpp"
#include "stats/sampling.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

using kernels::Backend;

constexpr std::uint64_t kCases = 520;

std::vector<Backend> simd_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::Avx2, Backend::Neon}) {
    if (kernels::backend_available(b)) out.push_back(b);
  }
  return out;
}

/// Draws one arena shape; returns its name for failure messages. Arenas are
/// returned sorted (the kernels' contract).
std::string fill_arena(std::uint64_t case_index, util::Xoshiro256& rng,
                       std::vector<double>& out) {
  const std::size_t n = case_index % 7 == 0   ? 0
                        : case_index % 7 == 1 ? 1
                                              : 1 + rng() % 3000;
  out.resize(n);
  std::string name;
  switch (case_index % 6) {
    case 0:
      for (double& v : out) v = rng.uniform01() * 100.0;
      name = "uniform";
      break;
    case 1: {
      const LogNormalSampler lognormal(0.0, 2.0);
      for (double& v : out) v = lognormal.sample(rng);
      name = "lognormal";
      break;
    }
    case 2:
      // Few distinct values: the tie regime every traffic-count feature
      // lives in, and the case where upper-bound vs lower-bound confusion
      // shows up immediately.
      for (double& v : out) v = static_cast<double>(rng() % 5);
      name = "five-values";
      break;
    case 3:
      for (double& v : out) v = static_cast<double>(rng() % 200);
      name = "counts";
      break;
    case 4:
      // Extreme magnitudes: denormal-adjacent and huge values in one arena.
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = (i % 2 == 0) ? rng.uniform01() * 1e-300 : rng.uniform01() * 1e300;
      }
      name = "extremes";
      break;
    default:
      out.assign(out.size(), 42.0);
      name = "constant";
      break;
  }
  std::sort(out.begin(), out.end());
  return name;
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

TEST(KernelDifferential, AllBackendsBitIdenticalToScalar) {
  const auto simd = simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD back-end available on this host";
  const kernels::Ops& scalar = *kernels::ops_for(Backend::Scalar);

  std::uint64_t executed = 0;
  for (std::uint64_t c = 0; c < kCases; ++c) {
    util::Xoshiro256 rng(0x5eed0000 + c);
    std::vector<double> arena;
    const std::string arena_name = fill_arena(c, rng, arena);
    bool sorted = false;
    const std::vector<double> xs = make_queries(arena, c, rng, sorted);
    // Zero shift on every third case keeps the pinned queries exactly tied
    // to arena samples (nonzero shifts would perturb them off the ties).
    const double shift = (c % 3 == 0) ? 0.0 : (rng.uniform01() - 0.5) * 10.0;
    const std::string label =
        "case " + std::to_string(c) + " (" + arena_name + ", n=" +
        std::to_string(arena.size()) + ", t=" + std::to_string(xs.size()) +
        (sorted ? ", sorted)" : ", unsorted)");

    // Scalar reference answers.
    std::vector<std::uint32_t> ref(xs.size());
    if (sorted) {
      scalar.rank_sorted(arena, xs, shift, ref.data());
    } else {
      scalar.rank_unsorted(arena, xs, shift, ref.data());
    }
    const double threshold = xs[c % xs.size()];
    const std::uint64_t ref_exceed = scalar.count_exceed(xs, threshold);

    // Grid reference (sorted query batches double as ascending thresholds).
    std::vector<double> sizes(1 + rng() % 40);
    for (double& s : sizes) s = rng.uniform01() * 20.0;
    std::vector<std::uint32_t> ref_grid;
    if (sorted) {
      ref_grid.resize(xs.size() * sizes.size());
      scalar.rank_grid(arena, xs, sizes, ref_grid.data());
    }

    for (Backend b : simd) {
      const kernels::Ops& ops = *kernels::ops_for(b);
      std::vector<std::uint32_t> got(xs.size(), 0xffffffffu);
      if (sorted) {
        ops.rank_sorted(arena, xs, shift, got.data());
      } else {
        ops.rank_unsorted(arena, xs, shift, got.data());
      }
      ASSERT_EQ(got, ref) << label << " on " << kernels::backend_name(b);
      ASSERT_EQ(ops.count_exceed(xs, threshold), ref_exceed)
          << label << " count_exceed on " << kernels::backend_name(b);
      if (sorted) {
        std::vector<std::uint32_t> grid(ref_grid.size(), 0xffffffffu);
        ops.rank_grid(arena, xs, sizes, grid.data());
        ASSERT_EQ(grid, ref_grid) << label << " rank_grid on "
                                  << kernels::backend_name(b);
      }
    }
    ++executed;
  }
  EXPECT_GE(executed, 500u);
}

TEST(KernelDifferential, ReplayAndJointKernelsBitIdenticalToScalar) {
  const auto simd = simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD back-end available on this host";
  const kernels::Ops& scalar = *kernels::ops_for(Backend::Scalar);

  for (std::uint64_t c = 0; c < 200; ++c) {
    util::Xoshiro256 rng(0xab5eed + c);
    const std::size_t bins = 1 + rng() % 2000;
    std::vector<double> benign(bins), attack(bins);
    for (std::size_t i = 0; i < bins; ++i) {
      benign[i] = static_cast<double>(rng() % 30);
      attack[i] = (rng() % 3 == 0) ? static_cast<double>(rng() % 10) : 0.0;
    }
    const double threshold = static_cast<double>(rng() % 25);

    std::uint64_t ref_ba = 0, ref_ab = 0, ref_d = 0;
    scalar.replay_detect(benign, attack, threshold, ref_ba, ref_ab, ref_d);

    constexpr std::size_t kFeatures = 4;
    std::vector<std::vector<double>> series(kFeatures);
    std::vector<std::span<const double>> slices;
    std::vector<double> thresholds;
    for (std::size_t f = 0; f < kFeatures; ++f) {
      series[f].resize(bins);
      for (double& v : series[f]) v = static_cast<double>(rng() % 20);
      slices.push_back(series[f]);
      thresholds.push_back(static_cast<double>(rng() % 15));
    }
    std::vector<std::uint64_t> ref_marginal(kFeatures, 0);
    std::uint64_t ref_joint = 0;
    scalar.joint_exceed(slices.data(), thresholds.data(), kFeatures, bins,
                        ref_marginal.data(), ref_joint);

    for (Backend b : simd) {
      const kernels::Ops& ops = *kernels::ops_for(b);
      std::uint64_t ba = 99, ab = 99, d = 99;
      ops.replay_detect(benign, attack, threshold, ba, ab, d);
      ASSERT_EQ(ba, ref_ba) << "case " << c << " on " << kernels::backend_name(b);
      ASSERT_EQ(ab, ref_ab) << "case " << c << " on " << kernels::backend_name(b);
      ASSERT_EQ(d, ref_d) << "case " << c << " on " << kernels::backend_name(b);

      std::vector<std::uint64_t> marginal(kFeatures, 99);
      std::uint64_t joint = 99;
      ops.joint_exceed(slices.data(), thresholds.data(), kFeatures, bins,
                       marginal.data(), joint);
      ASSERT_EQ(marginal, ref_marginal) << "case " << c << " on "
                                        << kernels::backend_name(b);
      ASSERT_EQ(joint, ref_joint) << "case " << c << " on " << kernels::backend_name(b);
    }
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
