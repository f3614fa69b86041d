#include "stats/gk_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "stats/kernels.hpp"
#include "util/error.hpp"

namespace monohids::stats {

namespace {

constexpr std::uint32_t kSerdeMagic = 0x4753'4b31;  // "GSK1"

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  MONOHIDS_ENSURE(in.good(), "GK sketch image truncated");
  return value;
}

}  // namespace

GkSketch::GkSketch(double epsilon) : epsilon_(epsilon) {
  MONOHIDS_EXPECT(epsilon > 0.0 && epsilon < 0.5, "GK epsilon must be in (0, 0.5)");
}

void GkSketch::add(double value) {
  MONOHIDS_EXPECT(std::isfinite(value), "GK values must be finite");
  ++n_;

  // Find insertion point (first tuple with value >= new value).
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), value,
                             [](const Tuple& t, double v) { return t.value < v; });

  std::uint64_t delta = 0;
  if (it != tuples_.begin() && it != tuples_.end()) {
    // Interior insertion: uncertainty is the current band width.
    delta = static_cast<std::uint64_t>(
        std::floor(2.0 * epsilon_ * static_cast<double>(n_)));
    if (delta > 0) --delta;
  }
  tuples_.insert(it, Tuple{value, 1, delta});

  // Compress periodically; every 1/(2ε) insertions keeps amortized O(1).
  const auto period = static_cast<std::uint64_t>(std::ceil(1.0 / (2.0 * epsilon_)));
  if (n_ % period == 0) compress();
}

GkSketch GkSketch::from_sorted(std::span<const double> sorted, double epsilon) {
  GkSketch sketch(epsilon);
  if (sorted.empty()) return sketch;
  // Run-length tuples over the sorted stream: every tuple's rank is exact
  // (delta = 0), so the pre-compression summary is a lossless rank map and
  // one compress() lands it inside the ε band. Tie runs longer than the
  // band are split across several tuples of the same value — the query
  // guarantee needs g + delta <= 2εn for every tuple, and a split run still
  // lets the scan stop *inside* the run and answer with the run's value.
  const auto n = static_cast<std::uint64_t>(sorted.size());
  const auto band = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::floor(2.0 * epsilon * static_cast<double>(n))));
  const auto emit_run = [&](double value, std::uint64_t run) {
    while (run > band) {
      sketch.tuples_.push_back(Tuple{value, band, 0});
      run -= band;
    }
    sketch.tuples_.push_back(Tuple{value, run, 0});
  };
  sketch.tuples_.reserve(64);
  double current = sorted.front();
  MONOHIDS_EXPECT(std::isfinite(current), "GK values must be finite");
  std::uint64_t run = 0;
  for (const double v : sorted) {
    MONOHIDS_EXPECT(std::isfinite(v), "GK values must be finite");
    MONOHIDS_EXPECT(v >= current, "from_sorted requires ascending input");
    if (v == current) {
      ++run;
      continue;
    }
    emit_run(current, run);
    current = v;
    run = 1;
  }
  emit_run(current, run);
  sketch.n_ = n;
  sketch.compress();
  return sketch;
}

void GkSketch::compress() {
  if (tuples_.size() < 3) return;
  const auto threshold =
      static_cast<std::uint64_t>(std::floor(2.0 * epsilon_ * static_cast<double>(n_)));
  // Merge right-to-left, never touching the extreme tuples (they pin min/max).
  std::vector<Tuple> out;
  out.reserve(tuples_.size());
  out.push_back(tuples_.back());
  for (std::size_t idx = tuples_.size() - 1; idx-- > 1;) {
    Tuple& successor = out.back();
    const Tuple& current = tuples_[idx];
    if (current.g + successor.g + successor.delta < threshold) {
      successor.g += current.g;  // absorb current into its successor
    } else {
      out.push_back(current);
    }
  }
  out.push_back(tuples_.front());
  std::reverse(out.begin(), out.end());
  tuples_ = std::move(out);
}

double GkSketch::quantile(double q) const {
  MONOHIDS_EXPECT(n_ > 0, "GK quantile requires observations");
  MONOHIDS_EXPECT(q >= 0.0 && q <= 1.0, "quantile probability must be in [0,1]");
  const double target_rank = std::max(1.0, std::ceil(q * static_cast<double>(n_)));
  const double tolerance = epsilon_ * static_cast<double>(n_);
  // Canonical GK query: return the last tuple whose maximum possible rank
  // stays within target + tolerance.
  std::uint64_t min_rank = 0;
  double best = tuples_.front().value;
  for (const Tuple& t : tuples_) {
    min_rank += t.g;
    if (static_cast<double>(min_rank + t.delta) > target_rank + tolerance) break;
    best = t.value;
  }
  return best;
}

void GkSketch::quantile_batch(std::span<const double> qs, std::span<double> out) const {
  MONOHIDS_EXPECT(qs.size() == out.size(), "quantile_batch size mismatch");
  if (qs.empty()) return;
  MONOHIDS_EXPECT(n_ > 0, "GK quantile requires observations");

  // The per-call scan stops at the first tuple whose max possible rank
  // exceeds target + tolerance. Its prefix maximum is a monotone envelope
  // with the same first crossing, so the whole ascending query batch is one
  // rank_sorted merge-scan (#{envelope <= target + tol} = crossing index).
  std::vector<double> envelope(tuples_.size());
  std::uint64_t min_rank = 0;
  double running_max = 0.0;
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    min_rank += tuples_[i].g;
    running_max =
        std::max(running_max, static_cast<double>(min_rank + tuples_[i].delta));
    envelope[i] = running_max;
  }

  const double tolerance = epsilon_ * static_cast<double>(n_);
  std::vector<double> limits(qs.size());
  double previous = 0.0;
  for (std::size_t j = 0; j < qs.size(); ++j) {
    const double q = qs[j];
    MONOHIDS_EXPECT(q >= 0.0 && q <= 1.0, "quantile probability must be in [0,1]");
    MONOHIDS_EXPECT(j == 0 || q >= previous, "quantile_batch requires ascending qs");
    previous = q;
    limits[j] = std::max(1.0, std::ceil(q * static_cast<double>(n_))) + tolerance;
  }

  std::vector<std::uint32_t> crossing(qs.size());
  kernels::rank_sorted(envelope, limits, 0.0, crossing.data());
  for (std::size_t j = 0; j < qs.size(); ++j) {
    const std::size_t idx = crossing[j] == 0 ? 0 : crossing[j] - 1;
    out[j] = tuples_[idx].value;
  }
}

void GkSketch::merge(const GkSketch& other) {
  MONOHIDS_EXPECT(epsilon_ == other.epsilon_, "GK merge requires matching epsilon");
  if (other.n_ == 0) return;
  if (n_ == 0) {
    tuples_ = other.tuples_;
    n_ = other.n_;
    return;
  }

  // Mergeable-summaries interleave (Agarwal et al., PODS'12, applied to GK
  // rank envelopes): a tuple keeps its own rank span and inherits the
  // uncertainty of the other summary around its value —
  //   rmin' = rmin(t) + rmin(last other tuple consumed before t),
  //   rmax' = rmax(t) + rmax(next other tuple) - 1   (or + n_other at the end).
  // Summed uncertainties stay within 2ε·(n_a + n_b), so the merged sketch
  // keeps the ε-rank guarantee for any merge tree; compress() then shrinks
  // the tuple list back to the ε band.
  const std::vector<Tuple>& a = tuples_;
  const std::vector<Tuple>& b = other.tuples_;
  std::vector<Tuple> merged;
  merged.reserve(a.size() + b.size());

  std::size_t i = 0, j = 0;
  std::uint64_t rmin_a = 0, rmin_b = 0;   // rmin of the last consumed tuple per side
  std::uint64_t emitted_rmin = 0;         // rmin of the last emitted merged tuple
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j == b.size() || (i < a.size() && a[i].value <= b[j].value);
    std::uint64_t rmin_m = 0, rmax_m = 0;
    double value = 0.0;
    if (take_a) {
      value = a[i].value;
      rmin_a += a[i].g;
      rmin_m = rmin_a + rmin_b;
      rmax_m = j < b.size() ? rmin_a + a[i].delta + (rmin_b + b[j].g + b[j].delta) - 1
                            : rmin_a + a[i].delta + other.n_;
      ++i;
    } else {
      value = b[j].value;
      rmin_b += b[j].g;
      rmin_m = rmin_a + rmin_b;
      rmax_m = i < a.size() ? rmin_b + b[j].delta + (rmin_a + a[i].g + a[i].delta) - 1
                            : rmin_b + b[j].delta + n_;
      ++j;
    }
    merged.push_back(Tuple{value, rmin_m - emitted_rmin, rmax_m - rmin_m});
    emitted_rmin = rmin_m;
  }

  tuples_ = std::move(merged);
  n_ += other.n_;
  compress();
}

void GkSketch::serialize(std::ostream& out) const {
  write_pod(out, kSerdeMagic);
  write_pod(out, epsilon_);
  write_pod(out, n_);
  write_pod(out, static_cast<std::uint64_t>(tuples_.size()));
  for (const Tuple& t : tuples_) {
    write_pod(out, t.value);
    write_pod(out, t.g);
    write_pod(out, t.delta);
  }
  MONOHIDS_ENSURE(out.good(), "failed writing GK sketch image");
}

GkSketch GkSketch::deserialize(std::istream& in) {
  MONOHIDS_ENSURE(read_pod<std::uint32_t>(in) == kSerdeMagic,
                  "not a GK sketch image (bad magic)");
  const double epsilon = read_pod<double>(in);
  MONOHIDS_ENSURE(std::isfinite(epsilon) && epsilon > 0.0 && epsilon < 0.5,
                  "GK sketch image: epsilon out of range");
  GkSketch sketch(epsilon);
  const auto n = read_pod<std::uint64_t>(in);
  const auto tuple_count = read_pod<std::uint64_t>(in);
  MONOHIDS_ENSURE(tuple_count <= n, "GK sketch image: more tuples than observations");
  MONOHIDS_ENSURE((n == 0) == (tuple_count == 0),
                  "GK sketch image: observation/tuple count mismatch");

  // Every tuple of a sketch built by add(), from_sorted() or merge() keeps
  // g + delta within the ε band; quantile() relies on it for its rank bound.
  const auto band = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::floor(2.0 * epsilon * static_cast<double>(n))));

  // Bounded incremental reserve: tuple_count is untrusted, so grow as real
  // bytes arrive instead of trusting the header with one huge allocation.
  std::uint64_t total_g = 0;
  double previous = -std::numeric_limits<double>::infinity();
  for (std::uint64_t k = 0; k < tuple_count; ++k) {
    Tuple t{};
    t.value = read_pod<double>(in);
    t.g = read_pod<std::uint64_t>(in);
    t.delta = read_pod<std::uint64_t>(in);
    MONOHIDS_ENSURE(std::isfinite(t.value), "GK sketch image: non-finite value");
    MONOHIDS_ENSURE(t.value >= previous, "GK sketch image: values not ascending");
    MONOHIDS_ENSURE(t.g >= 1 && t.g <= n - total_g,
                    "GK sketch image: rank gaps exceed observation count");
    MONOHIDS_ENSURE(t.g <= band && t.delta <= band - t.g,
                    "GK sketch image: tuple rank span exceeds the epsilon band");
    previous = t.value;
    total_g += t.g;
    sketch.tuples_.push_back(t);
  }
  MONOHIDS_ENSURE(total_g == n, "GK sketch image: rank gaps do not sum to n");
  sketch.n_ = n;
  return sketch;
}

}  // namespace monohids::stats
