// Distribution tests for the v2 (32-bit, one-word-per-draw) sampling grain:
// exp_neg12 as a contract function, the exact inversion core, the
// one-word Poisson draw in both regimes, and the merged-draw CDF tables
// (PoissonSumCdf, BinomialCdf) against directly computed reference pmfs.
// These primitives ARE the v2 scenario draw contract (API_TOUR.md §16) —
// a behavioral change here silently regenerates every v2 artifact, so the
// suite pins semantics, not just plausibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "oracle/sampling.hpp"
#include "stats/sampling.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

using batch::kCdfRowLen;
using batch::kNormalCutoff32;

TEST(ExpNeg12, TracksStdExpToContractPrecision) {
  // The documented bound is 1e-8 relative (degree-7 Horner truncation at
  // the ln2/2 reduction edge measures ~7e-9 worst case over a dense
  // 1.2M-point sweep); sweep the full domain densely.
  for (int i = 0; i <= 12000; ++i) {
    const double m = i / 1000.0;
    if (m >= kNormalCutoff32) break;
    const double got = batch::exp_neg12(m);
    const double want = std::exp(-m);
    ASSERT_NEAR(got, want, 1e-8 * want) << "m=" << m;
  }
  EXPECT_EQ(batch::exp_neg12(0.0), 1.0);
}

TEST(ExpNeg12, IsAPureFunctionOfItsArgument) {
  // Contract: identical doubles in, identical doubles out, every call.
  // (The SIMD count kernels mirror the same fma chain; this is the scalar
  // anchor they are differentially tested against.)
  for (const double m : {0.0, 0.3, 1.0, 2.718281828, 7.5, 11.999}) {
    EXPECT_EQ(batch::exp_neg12(m), batch::exp_neg12(m));
  }
}

TEST(PoissonInvCore, MatchesADirectCdfInversion) {
  // k(u) must be the smallest k with CDF(k) >= u, computed independently
  // here with long-double accumulation.
  for (const double mean : {0.05, 0.7, 3.0, 9.5, 11.9}) {
    const double p0 = batch::exp_neg12(mean);
    util::Philox4x32 rng(util::derive_seed(1, "inv-core", 0), 0);
    for (int i = 0; i < 20000; ++i) {
      const double u = rng.uniform01();
      long double pk = std::exp(-static_cast<long double>(mean));
      long double cum = pk;
      std::uint64_t want = 0;
      while (u > static_cast<double>(cum) && want + 1 < 256) {
        ++want;
        pk *= mean / static_cast<long double>(want);
        cum += pk;
      }
      ASSERT_EQ(batch::poisson_inv_core(u, mean, p0), want)
          << "mean=" << mean << " u=" << u;
    }
  }
}

TEST(SamplePoissonWord32, MomentsMatchInBothRegimes) {
  // Below the cutoff the draw is exact inversion; above it the one-word
  // inverse-CDF normal with continuity correction. Both must land the
  // Poisson mean and variance within sampling error.
  for (const double mean : {0.5, 4.0, 11.0, 20.0, 300.0}) {
    const double limit = mean < kNormalCutoff32 ? batch::exp_neg12(mean) : 0.0;
    util::Philox4x32 rng(util::derive_seed(2, "word32", 0), 0);
    const int n = 200000;
    double sum = 0.0, sum2 = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto k =
          static_cast<double>(batch::sample_poisson_word32(rng(), mean, limit));
      sum += k;
      sum2 += k * k;
    }
    const double got_mean = sum / n;
    const double got_var = sum2 / n - got_mean * got_mean;
    EXPECT_NEAR(got_mean, mean, 5.0 * std::sqrt(mean / n) + 0.05) << "mean=" << mean;
    EXPECT_NEAR(got_var, mean, 0.05 * mean + 0.2) << "mean=" << mean;
  }
  EXPECT_EQ(batch::sample_poisson_word32(0x12345678u, 0.0, 1.0), 0u);
}

TEST(CdfRowScan, ThresholdSemanticsAreStrictlyGreater) {
  // k = #{j : w > t_j}: a word exactly equal to a threshold does NOT clear
  // it, and the 2^32-1 sentinel is never cleared by any word.
  std::array<std::uint32_t, kCdfRowLen> row;
  row.fill(0xffffffffu);
  row[0] = 1000;
  row[1] = 2000;
  row[2] = 3000;
  EXPECT_EQ(batch::cdf_row_scan(row.data(), 0), 0u);
  EXPECT_EQ(batch::cdf_row_scan(row.data(), 1000), 0u);
  EXPECT_EQ(batch::cdf_row_scan(row.data(), 1001), 1u);
  EXPECT_EQ(batch::cdf_row_scan(row.data(), 2000), 1u);
  EXPECT_EQ(batch::cdf_row_scan(row.data(), 3001), 3u);
  EXPECT_EQ(batch::cdf_row_scan(row.data(), 0xffffffffu), 3u);
}

/// Row with t_j = (j + 1) * 1000 for j < finite and the 2^32 - 1
/// sentinel past it.
std::array<std::uint32_t, kCdfRowLen> stepped_row(std::size_t finite) {
  std::array<std::uint32_t, kCdfRowLen> row;
  row.fill(0xffffffffu);
  for (std::size_t j = 0; j < finite; ++j) row[j] = static_cast<std::uint32_t>((j + 1) * 1000);
  return row;
}

TEST(CdfRowScan, WordsClearingEachPrefixEdgeMatchTheOracle) {
  // The branch-free prefix covers entries 0..15; a word that clears all of
  // them continues entry by entry. Words that clear 0, 15, 16, 17, 47 and
  // all 48 entries sit on either side of that hand-over and of the row end.
  const auto row = stepped_row(kCdfRowLen);
  for (const std::uint64_t want : {0u, 1u, 15u, 16u, 17u, 47u, 48u}) {
    const std::uint32_t w = want == 0 ? 0u : row[want - 1] + 1;
    ASSERT_EQ(oracle::cdf_row_scan(row.data(), w), want);
    EXPECT_EQ(batch::cdf_row_scan(row.data(), w), want) << "w=" << w;
    // One below: the word equals the threshold, which it does not clear.
    if (want != 0) {
      EXPECT_EQ(batch::cdf_row_scan(row.data(), w - 1), want - 1) << "w=" << w - 1;
    }
  }
}

TEST(CdfRowScan, SentinelTailIsNeverCleared) {
  // A row that reaches CDF 1 after `finite` entries: even the largest word
  // stops at the sentinel, on both sides of the prefix edge.
  for (const std::size_t finite : {0u, 1u, 15u, 16u, 17u, 47u}) {
    const auto row = stepped_row(finite);
    for (const std::uint32_t w : {0u, 1000u, 0xfffffffeu, 0xffffffffu}) {
      EXPECT_EQ(batch::cdf_row_scan(row.data(), w), oracle::cdf_row_scan(row.data(), w))
          << "finite=" << finite << " w=" << w;
    }
    EXPECT_EQ(batch::cdf_row_scan(row.data(), 0xffffffffu), finite);
  }
}

TEST(CdfRowScan, RandomNondecreasingRowsMatchTheOracle) {
  // Sorted random rows with runs of equal entries and sentinel tails of
  // random length; words drawn at random and on every threshold +-1.
  util::Philox4x32 rng(util::derive_seed(11, "cdf-row-scan", 0), 0);
  for (int c = 0; c < 400; ++c) {
    std::array<std::uint32_t, kCdfRowLen> row;
    const std::uint32_t span = c % 3 == 0 ? 0xffffffffu : 1u + rng() % 5000;
    for (auto& t : row) t = rng() % span;
    std::sort(row.begin(), row.end());
    std::fill(row.begin() + static_cast<std::ptrdiff_t>(rng() % (kCdfRowLen + 1)), row.end(),
              0xffffffffu);
    ASSERT_TRUE(std::is_sorted(row.begin(), row.end()));
    std::vector<std::uint32_t> words;
    for (int i = 0; i < 32; ++i) words.push_back(rng());
    for (const std::uint32_t t : row) {
      words.insert(words.end(), {t - 1, t, t + 1});
    }
    for (const std::uint32_t w : words) {
      ASSERT_EQ(batch::cdf_row_scan(row.data(), w), oracle::cdf_row_scan(row.data(), w))
          << "case " << c << " w=" << w;
    }
  }
}

TEST(PoissonSumCdf, TabulatedRowsInvertTheExactPoissonCdf) {
  // Row s must reproduce inverse-CDF sampling of Poisson(s * mean_step):
  // for every stat below the cap and a sweep of words, the scan count
  // equals an independent long-double CDF inversion of u = w / 2^32.
  const double mean_step = 0.37;
  const std::uint32_t cap = 30;  // caps below kNormalCutoff32 / mean_step
  const batch::PoissonSumCdf table(mean_step, cap);
  ASSERT_EQ(table.stat_cap(), cap);
  util::Philox4x32 rng(util::derive_seed(3, "poisson-sum", 0), 0);
  for (std::uint32_t stat = 0; stat < cap; ++stat) {
    const long double mean = static_cast<long double>(mean_step) * stat;
    for (int i = 0; i < 2000; ++i) {
      const std::uint32_t w = rng();
      const double u = static_cast<double>(w) * 0x1.0p-32;
      long double pk = std::exp(-mean);
      long double cum = pk;
      std::uint64_t want = 0;
      while (u > static_cast<double>(cum) && want + 1 < kCdfRowLen) {
        ++want;
        pk *= mean / static_cast<long double>(want);
        cum += pk;
      }
      ASSERT_EQ(table.sample(w, stat), want) << "stat=" << stat << " w=" << w;
    }
  }
}

TEST(PoissonSumCdf, PastTheCapUsesTheNormalRegime) {
  const double mean_step = 0.5;
  const batch::PoissonSumCdf table(mean_step, 8);
  // stat 100 -> mean 50: moments within sampling error of Poisson(50).
  util::Philox4x32 rng(util::derive_seed(3, "poisson-sum", 1), 0);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(table.sample(rng(), 100));
  EXPECT_NEAR(sum / n, 50.0, 0.3);
}

TEST(BinomialCdf, TabulatedRowsInvertTheExactBinomialCdf) {
  const double p = 0.23;
  const batch::BinomialCdf table(p);
  ASSERT_GT(table.n_cap(), 2u);
  EXPECT_EQ(table.p(), p);
  util::Philox4x32 rng(util::derive_seed(4, "binomial", 0), 0);
  for (std::uint64_t n = 0; n < table.n_cap(); ++n) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint32_t w = rng();
      const double u = static_cast<double>(w) * 0x1.0p-32;
      // Independent CDF inversion with long-double pmf recursion.
      long double pmf = std::pow(1.0L - static_cast<long double>(p),
                                 static_cast<long double>(n));
      long double cum = pmf;
      std::uint64_t want = 0;
      while (u > static_cast<double>(cum) && want < n) {
        pmf *= (static_cast<long double>(n - want) / (want + 1)) *
               (static_cast<long double>(p) / (1.0L - p));
        ++want;
        cum += pmf;
      }
      ASSERT_EQ(table.sample(w, n), want) << "n=" << n << " w=" << w;
    }
  }
  EXPECT_EQ(table.sample(0xffffffffu, 0), 0u);
}

TEST(BinomialCdf, NormalRegimeStaysInRangeWithRightMoments) {
  const double p = 0.4;
  const batch::BinomialCdf table(p);
  const std::uint64_t n = table.n_cap() + 200;
  util::Philox4x32 rng(util::derive_seed(4, "binomial", 1), 0);
  const int draws = 100000;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = table.sample(rng(), n);
    ASSERT_LE(k, n);
    sum += static_cast<double>(k);
  }
  EXPECT_NEAR(sum / draws, p * static_cast<double>(n), 0.5);
}

TEST(ParetoCountTable, ThirtyTwoBitGrainMatchesThePowFormula) {
  // u = w * 2^-32 with the u <= 0 guard at 2^-53 (word 0 maps to the cap):
  // the table must reproduce min(floor(1/u^(1/shape)), cap) for random
  // words and for words adjacent to every boundary, identically via count
  // and count_fast — for the contract's three shapes and caps and two
  // off-model ones.
  struct Case {
    double shape;
    std::uint32_t cap;
  };
  for (const Case c : {Case{2.6, 40}, Case{1.55, 600}, Case{2.1, 100}, Case{2.6, 80},
                       Case{0.8, 5}}) {
    const batch::ParetoCountTable table(c.shape, c.cap);
    const auto direct = [&](std::uint64_t w) {
      double u = static_cast<double>(w) * 0x1.0p-32;
      if (u <= 0.0) u = 0x1.0p-53;
      const double v = 1.0 / std::pow(u, 1.0 / c.shape);
      return static_cast<std::uint32_t>(std::min<double>(v, c.cap));
    };
    util::Philox4x32 rng(util::derive_seed(5, "pareto32", 0), c.cap);
    for (int i = 0; i < 20000; ++i) {
      const std::uint32_t w = rng();
      ASSERT_EQ(table.count(w), direct(w)) << w;
      ASSERT_EQ(table.count_fast(w), direct(w)) << w;
    }
    for (std::uint32_t k = 1; k < c.cap; ++k) {
      for (const std::uint64_t w :
           {table.boundary(k - 1), table.boundary(k - 1) + 1,
            table.boundary(k - 1) == 0 ? std::uint64_t{0} : table.boundary(k - 1) - 1}) {
        ASSERT_EQ(table.count(w), direct(w)) << w;
        ASSERT_EQ(table.count_fast(w), direct(w)) << w;
      }
    }
    EXPECT_EQ(table.count(0), c.cap);
  }
}

}  // namespace
}  // namespace monohids::stats
