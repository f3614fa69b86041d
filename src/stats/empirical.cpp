#include "stats/empirical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/kernels.hpp"
#include "util/error.hpp"

namespace monohids::stats {

namespace {

/// Largest value the histogram sweep counts; traffic-count features stay
/// far below it, and anything bigger is sorted instead.
constexpr double kCountingMax = 65535.0;

/// True when `v` is a small non-negative integer the histogram can count
/// (rejects fractions, negatives, out-of-range values and -0.0).
inline bool is_small_count(double v, std::uint32_t& out) noexcept {
  if (!(v >= 0.0) || v > kCountingMax) return false;
  const auto u = static_cast<std::uint32_t>(v);
  if (static_cast<double>(u) != v || std::signbit(v)) return false;
  out = u;
  return true;
}

constexpr std::size_t kMaxSamples = std::numeric_limits<std::uint32_t>::max();

}  // namespace

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples) {
  if (samples.empty()) return;
  MONOHIDS_EXPECT(samples.size() <= kMaxSamples, "too many samples for one distribution");
  // Below 64 samples sorting beats clearing a histogram.
  bool counts = samples.size() >= 64;
  std::uint32_t max_value = 0;
  for (double v : samples) {
    MONOHIDS_EXPECT(std::isfinite(v), "empirical samples must be finite");
    std::uint32_t u = 0;
    if (counts && is_small_count(v, u)) {
      max_value = std::max(max_value, u);
    } else {
      counts = false;
    }
  }
  auto runs = std::make_shared<Runs>();
  if (counts) {
    thread_local std::vector<std::uint32_t> hist;
    hist.assign(std::size_t{max_value} + 1, 0);
    for (double v : samples) ++hist[static_cast<std::uint32_t>(v)];
    const auto distinct = static_cast<std::size_t>(
        hist.size() - static_cast<std::size_t>(std::count(hist.begin(), hist.end(), 0u)));
    runs->values.reserve(distinct);
    runs->cum.reserve(distinct);
    std::uint32_t acc = 0;
    for (std::size_t value = 0; value < hist.size(); ++value) {
      if (hist[value] == 0) continue;
      acc += hist[value];
      runs->values.push_back(static_cast<double>(value));
      runs->cum.push_back(acc);
    }
  } else {
    std::sort(samples.begin(), samples.end());
    std::size_t distinct = 1;
    for (std::size_t i = 1; i < samples.size(); ++i) distinct += samples[i] != samples[i - 1];
    runs->values.reserve(distinct);
    runs->cum.reserve(distinct);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i == 0 || samples[i] != runs->values.back()) {
        // A zero run keeps +0.0 whichever zeros it holds.
        runs->values.push_back(samples[i] == 0.0 ? 0.0 : samples[i]);
        runs->cum.push_back(0);
      }
      runs->cum.back() = static_cast<std::uint32_t>(i + 1);
    }
  }
  runs_ = std::move(runs);
}

std::uint32_t EmpiricalDistribution::rank(double x) const noexcept {
  const auto& values = runs_->values;
  const auto k = static_cast<std::size_t>(
      std::upper_bound(values.begin(), values.end(), x) - values.begin());
  return k == 0 ? 0 : runs_->cum[k - 1];
}

double EmpiricalDistribution::sample_at(std::size_t i) const noexcept {
  const auto& cum = runs_->cum;
  const auto k = static_cast<std::size_t>(
      std::upper_bound(cum.begin(), cum.end(), i) - cum.begin());
  return runs_->values[k];
}

double EmpiricalDistribution::min() const {
  MONOHIDS_EXPECT(!empty(), "min of empty distribution");
  return runs_->values.front();
}

double EmpiricalDistribution::max() const {
  MONOHIDS_EXPECT(!empty(), "max of empty distribution");
  return runs_->values.back();
}

double EmpiricalDistribution::mean() const {
  MONOHIDS_EXPECT(!empty(), "mean of empty distribution");
  double acc = 0.0;
  std::uint32_t previous = 0;
  for (std::size_t k = 0; k < runs_->values.size(); ++k) {
    const double v = runs_->values[k];
    for (std::uint32_t c = runs_->cum[k] - previous; c != 0; --c) acc += v;
    previous = runs_->cum[k];
  }
  return acc / static_cast<double>(size());
}

double EmpiricalDistribution::variance() const {
  MONOHIDS_EXPECT(!empty(), "variance of empty distribution");
  const double m = mean();
  double acc = 0.0;
  std::uint32_t previous = 0;
  for (std::size_t k = 0; k < runs_->values.size(); ++k) {
    const double d = runs_->values[k] - m;
    for (std::uint32_t c = runs_->cum[k] - previous; c != 0; --c) acc += d * d;
    previous = runs_->cum[k];
  }
  return acc / static_cast<double>(size());
}

double EmpiricalDistribution::stddev() const { return std::sqrt(variance()); }

double EmpiricalDistribution::quantile(double q) const {
  MONOHIDS_EXPECT(!empty(), "quantile of an empty sample");
  MONOHIDS_EXPECT(q >= 0.0 && q <= 1.0, "quantile probability must be in [0,1]");
  if (q == 0.0) return runs_->values.front();
  const std::size_t n = size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return sample_at(std::min(rank, n) - 1);
}

double EmpiricalDistribution::quantile_interpolated(double q) const {
  MONOHIDS_EXPECT(!empty(), "quantile of an empty sample");
  MONOHIDS_EXPECT(q >= 0.0 && q <= 1.0, "quantile probability must be in [0,1]");
  const std::size_t n = size();
  if (n == 1) return runs_->values.front();
  const double h = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, n - 1);
  const double frac = h - static_cast<double>(lo);
  const double at_lo = sample_at(lo);
  return at_lo + frac * (sample_at(hi) - at_lo);
}

double EmpiricalDistribution::cdf(double x) const {
  MONOHIDS_EXPECT(!empty(), "cdf of empty distribution");
  return static_cast<double>(rank(x)) / static_cast<double>(size());
}

double EmpiricalDistribution::exceedance(double x) const { return 1.0 - cdf(x); }

void EmpiricalDistribution::rank_batch(std::span<const double> xs,
                                       std::span<std::uint32_t> out) const {
  MONOHIDS_EXPECT(xs.size() == out.size(), "rank_batch output size mismatch");
  if (empty()) {
    std::fill(out.begin(), out.end(), 0u);
    return;
  }
  if (!std::is_sorted(xs.begin(), xs.end())) {
    for (std::size_t j = 0; j < xs.size(); ++j) out[j] = rank(xs[j]);
    return;
  }
  // #values <= x from one merge-scan, then each run count to its sample rank.
  kernels::rank_sorted(runs_->values, xs, out.data());
  const auto& cum = runs_->cum;
  for (std::uint32_t& r : out) r = r == 0 ? 0 : cum[r - 1];
}

double EmpiricalDistribution::shifted_cdf(double shift, double t) const {
  return cdf(t - shift);
}

double EmpiricalDistribution::max_hidden_shift(double t, double target_mass) const {
  MONOHIDS_EXPECT(!empty(), "max_hidden_shift of empty distribution");
  MONOHIDS_EXPECT(target_mass > 0.0 && target_mass <= 1.0,
                  "evasion probability must be in (0,1]");
  // P(X + b <= t) = cdf(t - b) >= target_mass
  //   <=> t - b >= quantile(target_mass)  (nearest-rank inverse CDF)
  //   <=> b <= t - quantile(target_mass).
  const double q = quantile(target_mass);
  return std::max(0.0, t - q);
}

EmpiricalDistribution EmpiricalDistribution::merge(
    std::span<const EmpiricalDistribution> parts) {
  const EmpiricalDistribution* last = nullptr;
  std::size_t nonempty = 0;
  std::size_t run_count = 0;
  std::size_t total = 0;
  for (const auto& p : parts) {
    if (p.empty()) continue;
    last = &p;
    ++nonempty;
    run_count += p.runs_->values.size();
    total += p.size();
  }
  if (nonempty <= 1) return last == nullptr ? EmpiricalDistribution{} : *last;
  MONOHIDS_EXPECT(total <= kMaxSamples, "too many samples for one distribution");

  struct Run {
    double value;
    std::uint32_t count;
  };
  thread_local std::vector<Run> all;
  all.clear();
  all.reserve(run_count);
  for (const auto& p : parts) {
    if (p.empty()) continue;
    std::uint32_t previous = 0;
    for (std::size_t k = 0; k < p.runs_->values.size(); ++k) {
      all.push_back({p.runs_->values[k], p.runs_->cum[k] - previous});
      previous = p.runs_->cum[k];
    }
  }
  std::sort(all.begin(), all.end(), [](const Run& a, const Run& b) { return a.value < b.value; });
  std::size_t distinct = 1;
  for (std::size_t i = 1; i < all.size(); ++i) distinct += all[i].value != all[i - 1].value;

  auto runs = std::make_shared<Runs>();
  runs->values.reserve(distinct);
  runs->cum.reserve(distinct);
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    acc += all[i].count;
    if (i == 0 || all[i].value != runs->values.back()) {
      runs->values.push_back(all[i].value);
      runs->cum.push_back(acc);
    } else {
      runs->cum.back() = acc;
    }
  }
  EmpiricalDistribution merged;
  merged.runs_ = std::move(runs);
  return merged;
}

}  // namespace monohids::stats
