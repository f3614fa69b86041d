#include "stats/empirical.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <queue>

#include "stats/kernels.hpp"
#include "stats/quantile.hpp"
#include "util/error.hpp"

namespace monohids::stats {

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples) {
  for (double v : samples) {
    MONOHIDS_EXPECT(std::isfinite(v), "empirical samples must be finite");
  }
  // Traffic-count features are small non-negative integers, where the
  // kernels' counting sweep sorts in O(n + K); anything else falls back to
  // comparison sort. Both produce the same ascending multiset bit-for-bit.
  if (!kernels::sort_counts(samples)) {
    std::sort(samples.begin(), samples.end());
  }
  auto arena = std::make_shared<const std::vector<double>>(std::move(samples));
  sorted_ = std::span<const double>(*arena);
  storage_ = std::move(arena);
  maybe_build_rank_table();
}

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> sorted, sorted_tag) {
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  auto arena = std::make_shared<const std::vector<double>>(std::move(sorted));
  sorted_ = std::span<const double>(*arena);
  storage_ = std::move(arena);
  maybe_build_rank_table();
}

EmpiricalDistribution EmpiricalDistribution::from_sorted(std::vector<double> sorted) {
  return EmpiricalDistribution(std::move(sorted), sorted_tag{});
}

EmpiricalDistribution EmpiricalDistribution::view_of_sorted(std::span<const double> sorted,
                                                            bool with_rank_table) {
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  EmpiricalDistribution view;
  view.sorted_ = sorted;
  if (with_rank_table) view.maybe_build_rank_table();
  return view;
}

void EmpiricalDistribution::maybe_build_rank_table() {
  std::vector<std::uint32_t> cum;
  if (kernels::build_rank_table(sorted_, cum)) {
    rank_table_ = std::make_shared<const std::vector<std::uint32_t>>(std::move(cum));
  }
}

double EmpiricalDistribution::min() const {
  MONOHIDS_EXPECT(!empty(), "min of empty distribution");
  return sorted_.front();
}

double EmpiricalDistribution::max() const {
  MONOHIDS_EXPECT(!empty(), "max of empty distribution");
  return sorted_.back();
}

double EmpiricalDistribution::mean() const {
  MONOHIDS_EXPECT(!empty(), "mean of empty distribution");
  return std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::variance() const {
  MONOHIDS_EXPECT(!empty(), "variance of empty distribution");
  const double m = mean();
  double acc = 0.0;
  for (double v : sorted_) acc += (v - m) * (v - m);
  return acc / static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::stddev() const { return std::sqrt(variance()); }

double EmpiricalDistribution::quantile(double q) const {
  return quantile_nearest_rank_sorted(sorted_, q);
}

double EmpiricalDistribution::quantile_interpolated(double q) const {
  return quantile_interpolated_sorted(sorted_, q);
}

double EmpiricalDistribution::cdf(double x) const {
  MONOHIDS_EXPECT(!empty(), "cdf of empty distribution");
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::exceedance(double x) const { return 1.0 - cdf(x); }

void EmpiricalDistribution::rank_batch(std::span<const double> xs,
                                       std::span<std::uint32_t> out) const {
  MONOHIDS_EXPECT(xs.size() == out.size(), "rank_batch output size mismatch");
  if (xs.empty()) return;
  if (rank_table_ != nullptr) {
    const auto table = std::span<const std::uint32_t>(*rank_table_);
    const auto n = static_cast<std::uint32_t>(sorted_.size());
    for (std::size_t j = 0; j < xs.size(); ++j) {
      out[j] = kernels::rank_from_table(table, n, xs[j]);
    }
    return;
  }
  if (std::is_sorted(xs.begin(), xs.end())) {
    kernels::rank_sorted(sorted_, xs, 0.0, out.data());
  } else {
    kernels::rank_unsorted(sorted_, xs, 0.0, out.data());
  }
}

void EmpiricalDistribution::exceedance_batch(std::span<const double> xs,
                                             std::span<double> out) const {
  MONOHIDS_EXPECT(!empty(), "cdf of empty distribution");
  MONOHIDS_EXPECT(xs.size() == out.size(), "exceedance_batch output size mismatch");
  thread_local std::vector<std::uint32_t> ranks;
  ranks.resize(xs.size());
  rank_batch(xs, ranks);
  const auto n = static_cast<double>(sorted_.size());
  for (std::size_t j = 0; j < xs.size(); ++j) {
    out[j] = 1.0 - static_cast<double>(ranks[j]) / n;
  }
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
  std::vector<std::span<const double>> spans;
  spans.reserve(parts.size());
  for (const auto& p : parts) spans.push_back(p.samples());
  std::vector<double> all;
  merge_sorted_spans(spans, all);
  return from_sorted(std::move(all));
}

void merge_sorted_spans(std::span<const std::span<const double>> parts,
                        std::vector<double>& out) {
  // Small-integer-valued pools (traffic counts) merge with one counting
  // sweep — O(total + K) instead of O(total log k) heap operations — with
  // bit-identical output; everything else takes the heap path below.
  if (kernels::counting_merge(parts, out)) return;

  out.clear();
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);

  if (parts.size() == 1) {
    out.insert(out.end(), parts[0].begin(), parts[0].end());
    return;
  }
  if (parts.size() == 2) {
    std::merge(parts[0].begin(), parts[0].end(), parts[1].begin(), parts[1].end(),
               std::back_inserter(out));
    return;
  }

  // Min-heap of (next value, part index); cursors track consumption.
  struct Head {
    double value;
    std::size_t part;
  };
  const auto greater = [](const Head& a, const Head& b) { return a.value > b.value; };
  std::vector<Head> heap;
  std::vector<std::size_t> cursor(parts.size(), 0);
  heap.reserve(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (!parts[p].empty()) heap.push_back({parts[p][0], p});
  }
  std::make_heap(heap.begin(), heap.end(), greater);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const Head head = heap.back();
    heap.pop_back();
    out.push_back(head.value);
    const std::size_t next = ++cursor[head.part];
    if (next < parts[head.part].size()) {
      heap.push_back({parts[head.part][next], head.part});
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
}

}  // namespace monohids::stats
