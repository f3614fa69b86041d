#include "stats/empirical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/kernels.hpp"
#include "util/error.hpp"

namespace monohids::stats {

namespace {

constexpr std::size_t kMaxSamples = std::numeric_limits<std::uint32_t>::max();

/// The largest value the runs wire format holds.
constexpr std::uint64_t kMaxRunValue = std::numeric_limits<std::uint32_t>::max();

/// A merge whose histogram (largest value + 1 slots) would hold this many
/// slots per input run or more sorts its runs instead, like the
/// constructor's 64-sample rule: clearing, counting and sweeping a slot
/// costs 1-2 ns and sorting a run 20-30 ns (measured on pools of random
/// runs), so the two break even near 12 slots per run and a sparse
/// histogram — two 3-run parts that reach 60000, say — loses to the sort.
/// Pooled host-weeks of traffic counts need about 2 slots per run.
constexpr std::size_t kMergeSlotsPerRun = 8;

/// The per-thread histogram the constructor and merge count into.
std::vector<std::uint32_t>& histogram_scratch() {
  thread_local std::vector<std::uint32_t> hist;
  return hist;
}

/// The per-thread buffer small_counts writes the constructor's samples
/// into (2.7 KB for a 672-bin host-week).
std::vector<std::uint32_t>& counts_scratch() {
  thread_local std::vector<std::uint32_t> counts;
  return counts;
}

/// The runs of a histogram of small counts: one run per non-zero slot, in
/// slot order; `distinct` is the number of non-zero slots, which the
/// caller counted while filling. The last slot holds the largest value, so
/// it is non-zero, and the caller has checked that the counts sum below
/// 2^32. Every slot is written at the next free run and the cursor
/// advances only past a non-zero one, so the sweep has no data-dependent
/// branch (sparse pooled histograms would mispredict on most slots); since
/// the last slot is non-zero, no write lands past the runs.
void runs_of_histogram(std::span<const std::uint32_t> hist, std::size_t distinct,
                       std::vector<double>& values, std::vector<std::uint32_t>& cum) {
  values.resize(distinct);
  cum.resize(distinct);
  std::size_t next = 0;
  std::uint32_t acc = 0;
  for (std::size_t value = 0; value < hist.size(); ++value) {
    acc += hist[value];
    values[next] = static_cast<double>(value);
    cum[next] = acc;
    next += hist[value] != 0 ? 1 : 0;
  }
}

/// Adds every part's run counts (cum[k] - cum[k-1]) into `hist`, which
/// has a slot for each part's largest value, and counts into `distinct`
/// the slots that turn non-zero (every run count is at least 1). Returns
/// false, with `hist` half filled, at the first value that is not a small
/// count.
bool count_runs(std::span<const EmpiricalDistribution> parts, std::vector<std::uint32_t>& hist,
                std::size_t& distinct) {
  for (const auto& p : parts) {
    const auto values = p.values();
    const auto cum = p.cumulative_counts();
    std::uint32_t previous = 0;
    for (std::size_t k = 0; k < values.size(); ++k) {
      std::uint32_t value = 0;
      if (!kernels::detail::is_small_count(values[k], value)) return false;
      distinct += hist[value] == 0 ? 1 : 0;
      hist[value] += cum[k] - previous;
      previous = cum[k];
    }
  }
  return true;
}

/// The pooled runs of `parts` for any finite values: their (value, count)
/// runs concatenated, sorted by value and coalesced.
void sort_runs(std::span<const EmpiricalDistribution> parts, std::size_t run_count,
               std::vector<double>& values, std::vector<std::uint32_t>& cum) {
  struct Run {
    double value;
    std::uint32_t count;
  };
  thread_local std::vector<Run> all;
  all.clear();
  all.reserve(run_count);
  for (const auto& p : parts) {
    const auto part_values = p.values();
    const auto part_cum = p.cumulative_counts();
    std::uint32_t previous = 0;
    for (std::size_t k = 0; k < part_values.size(); ++k) {
      all.push_back({part_values[k], part_cum[k] - previous});
      previous = part_cum[k];
    }
  }
  std::sort(all.begin(), all.end(), [](const Run& a, const Run& b) { return a.value < b.value; });
  std::size_t distinct = 1;
  for (std::size_t i = 1; i < all.size(); ++i) distinct += all[i].value != all[i - 1].value;

  values.reserve(distinct);
  cum.reserve(distinct);
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    acc += all[i].count;
    if (i == 0 || all[i].value != values.back()) {
      values.push_back(all[i].value);
      cum.push_back(acc);
    } else {
      cum.back() = acc;
    }
  }
}

/// Appends `v` as a canonical (shortest) LEB128 varint.
void put_varint(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Reads the canonical LEB128 varint at `pos`, at most 2^32 - 1, and
/// advances `pos` past it. A varint that ends in a zero byte after its
/// first is overlong; the fifth byte may carry only the top four bits.
std::uint32_t get_varint(std::span<const std::uint8_t> bytes, std::size_t& pos) {
  std::uint32_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    MONOHIDS_ENSURE(pos < bytes.size(), "runs: truncated varint");
    const std::uint8_t b = bytes[pos++];
    MONOHIDS_ENSURE(shift < 28 || b <= 0x0F, "runs: varint above 2^32 - 1");
    v |= static_cast<std::uint32_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      MONOHIDS_ENSURE(b != 0 || shift == 0, "runs: overlong varint");
      return v;
    }
  }
}

}  // namespace

EmpiricalDistribution::EmpiricalDistribution(std::span<const double> samples) {
  if (samples.empty()) return;
  MONOHIDS_EXPECT(samples.size() <= kMaxSamples, "too many samples for one distribution");
  auto runs = std::make_shared<Runs>();
  // Below 64 samples sorting beats clearing a histogram.
  std::uint32_t max_value = kernels::kNotSmallCounts;
  std::vector<std::uint32_t>& counts = counts_scratch();
  if (samples.size() >= 64) {
    counts.resize(samples.size());
    max_value = kernels::active().small_counts(samples.data(), counts.data(), samples.size());
  }
  if (max_value != kernels::kNotSmallCounts) {
    std::vector<std::uint32_t>& hist = histogram_scratch();
    hist.assign(std::size_t{max_value} + 1, 0);
    std::size_t distinct = 0;
    for (std::uint32_t u : counts) distinct += hist[u]++ == 0 ? 1 : 0;
    runs_of_histogram(hist, distinct, runs->values, runs->cum);
  } else {
    for (double v : samples) MONOHIDS_EXPECT(std::isfinite(v), "empirical samples must be finite");
    std::vector<double> sorted(samples.begin(), samples.end());
    std::sort(sorted.begin(), sorted.end());
    std::size_t distinct = 1;
    for (std::size_t i = 1; i < sorted.size(); ++i) distinct += sorted[i] != sorted[i - 1];
    runs->values.reserve(distinct);
    runs->cum.reserve(distinct);
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i == 0 || sorted[i] != runs->values.back()) {
        // A zero run keeps +0.0 whichever zeros it holds.
        runs->values.push_back(sorted[i] == 0.0 ? 0.0 : sorted[i]);
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
  // Runs ascend, so each part's ends bound its values; whether every value
  // is a small count is settled run by run while counting.
  bool counts = true;
  std::uint32_t max_value = 0;
  for (const auto& p : parts) {
    if (p.empty()) continue;
    last = &p;
    ++nonempty;
    run_count += p.runs_->values.size();
    total += p.size();
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    counts = counts && kernels::detail::is_small_count(p.runs_->values.front(), lo) &&
             kernels::detail::is_small_count(p.runs_->values.back(), hi);
    max_value = std::max(max_value, hi);
  }
  if (nonempty <= 1) return last == nullptr ? EmpiricalDistribution{} : *last;
  MONOHIDS_EXPECT(total <= kMaxSamples, "too many samples for one distribution");

  auto runs = std::make_shared<Runs>();
  bool counted = false;
  if (counts && std::size_t{max_value} < kMergeSlotsPerRun * run_count) {
    std::vector<std::uint32_t>& hist = histogram_scratch();
    hist.assign(std::size_t{max_value} + 1, 0);
    std::size_t distinct = 0;
    counted = count_runs(parts, hist, distinct);
    if (counted) runs_of_histogram(hist, distinct, runs->values, runs->cum);
  }
  if (!counted) sort_runs(parts, run_count, runs->values, runs->cum);
  EmpiricalDistribution merged;
  merged.runs_ = std::move(runs);
  return merged;
}

void EmpiricalDistribution::encode_runs(std::vector<std::uint8_t>& out) const {
  const auto values = this->values();
  const auto cum = cumulative_counts();
  for (double v : values) {
    MONOHIDS_EXPECT(v >= 0.0 && v <= static_cast<double>(kMaxRunValue) && std::floor(v) == v,
                    "the runs format holds whole values in [0, 2^32 - 1]");
  }
  put_varint(out, static_cast<std::uint32_t>(values.size()));
  std::uint32_t previous_value = 0;
  std::uint32_t previous_cum = 0;
  for (std::size_t k = 0; k < values.size(); ++k) {
    const auto value = static_cast<std::uint32_t>(values[k]);
    put_varint(out, value - previous_value);
    put_varint(out, cum[k] - previous_cum);
    previous_value = value;
    previous_cum = cum[k];
  }
}

EmpiricalDistribution EmpiricalDistribution::decode_runs(std::span<const std::uint8_t> bytes) {
  std::size_t pos = 0;
  const std::uint32_t run_count = get_varint(bytes, pos);
  // Every run takes at least two bytes, a gap and a count.
  MONOHIDS_ENSURE(run_count <= (bytes.size() - pos) / 2, "runs: run count exceeds the bytes");
  EmpiricalDistribution dist;
  if (run_count != 0) {
    auto runs = std::make_shared<Runs>();
    runs->values.reserve(run_count);
    runs->cum.reserve(run_count);
    std::uint64_t value = 0;
    std::uint64_t total = 0;
    for (std::uint32_t k = 0; k < run_count; ++k) {
      const std::uint32_t gap = get_varint(bytes, pos);
      const std::uint32_t count = get_varint(bytes, pos);
      MONOHIDS_ENSURE(gap != 0 || k == 0, "runs: zero gap between runs");
      MONOHIDS_ENSURE(count != 0, "runs: zero count");
      value += gap;
      total += count;
      MONOHIDS_ENSURE(value <= kMaxRunValue, "runs: value past 2^32 - 1");
      MONOHIDS_ENSURE(total <= kMaxSamples, "runs: total past 2^32 - 1");
      runs->values.push_back(static_cast<double>(value));
      runs->cum.push_back(static_cast<std::uint32_t>(total));
    }
    dist.runs_ = std::move(runs);
  }
  MONOHIDS_ENSURE(pos == bytes.size(), "runs: trailing bytes");
  return dist;
}

}  // namespace monohids::stats
