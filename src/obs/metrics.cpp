#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

namespace monohids::obs {

double HistogramSample::approx_quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double next = cumulative + static_cast<double>(counts[b]);
    if (next >= target && counts[b] > 0) {
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double hi = b < bounds.size() ? bounds[b] : lo * 2.0;  // open top bucket
      const double frac = (target - cumulative) / static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const noexcept {
  for (const CounterSample& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::int64_t MetricsSnapshot::gauge_value(std::string_view name) const noexcept {
  for (const GaugeSample& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const HistogramSample* MetricsSnapshot::histogram(std::string_view name) const noexcept {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

BucketBounds latency_buckets_ms() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000};
}

BucketBounds pow2_buckets(std::size_t count) {
  BucketBounds bounds;
  bounds.reserve(count);
  double v = 1.0;
  for (std::size_t i = 0; i < count; ++i, v *= 2.0) bounds.push_back(v);
  return bounds;
}

#if MONOHIDS_OBS_ENABLED

namespace detail {

std::size_t shard_index() noexcept {
  // Dense per-thread ordinals (not std::thread::id hashes) so a handful of
  // pool workers spread over distinct shards instead of colliding.
  static std::atomic<std::size_t> next_ordinal{0};
  thread_local const std::size_t ordinal =
      next_ordinal.fetch_add(1, std::memory_order_relaxed);
  return ordinal & (kShards - 1);
}

void HistogramImpl::observe(double value) noexcept {
  // Branch-poor linear scan: bounds are few (O(16)) and hot in cache; a
  // binary search's mispredicts would cost more than the walk.
  std::size_t bucket = 0;
  while (bucket < bounds.size() && value > bounds[bucket]) ++bucket;
  counts[bucket * kShards + shard_index()].value.fetch_add(1, std::memory_order_relaxed);
  sum.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace detail

struct MetricsRegistry::Impl {
  // node-based maps: metric storage must never move (handles hold pointers).
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<detail::CounterImpl>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<detail::GaugeImpl>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<detail::HistogramImpl>, std::less<>> histograms;

  void ensure_unique(const std::string& name, const char* kind) const {
    // Callers hold `mutex`.
    const bool taken = (kind[0] != 'c' && counters.count(name) != 0) ||
                       (kind[0] != 'g' && gauges.count(name) != 0) ||
                       (kind[0] != 'h' && histograms.count(name) != 0);
    if (taken) {
      throw std::logic_error("obs metric '" + name +
                             "' already registered as a different kind than " + kind);
    }
  }
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  // Leaked like ThreadPool::shared(): handles may be flushed from static
  // destructors, so the storage must survive them.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    impl_->ensure_unique(name, "counter");
    auto impl = std::make_unique<detail::CounterImpl>();
    impl->name = name;
    it = impl_->counters.emplace(name, std::move(impl)).first;
  }
  return Counter(it->second.get());
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->gauges.find(name);
  if (it == impl_->gauges.end()) {
    impl_->ensure_unique(name, "gauge");
    auto impl = std::make_unique<detail::GaugeImpl>();
    impl->name = name;
    it = impl_->gauges.emplace(name, std::move(impl)).first;
  }
  return Gauge(it->second.get());
}

Histogram MetricsRegistry::histogram(const std::string& name, const BucketBounds& bounds) {
  if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::logic_error("obs histogram '" + name + "' needs ascending bucket bounds");
  }
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    impl_->ensure_unique(name, "histogram");
    auto impl = std::make_unique<detail::HistogramImpl>();
    impl->name = name;
    impl->bounds = bounds;
    impl->counts = std::vector<detail::ShardCell>((bounds.size() + 1) * detail::kShards);
    it = impl_->histograms.emplace(name, std::move(impl)).first;
  }
  return Histogram(it->second.get());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  snap.counters.reserve(impl_->counters.size());
  for (const auto& [name, impl] : impl_->counters) {
    snap.counters.push_back(CounterSample{name, impl->total()});
  }
  snap.gauges.reserve(impl_->gauges.size() * 2);
  for (const auto& [name, impl] : impl_->gauges) {
    snap.gauges.push_back(GaugeSample{name, impl->value.load(std::memory_order_relaxed)});
    snap.gauges.push_back(
        GaugeSample{name + ".max", impl->max_seen.load(std::memory_order_relaxed)});
  }
  snap.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, impl] : impl_->histograms) {
    HistogramSample h;
    h.name = name;
    h.bounds = impl->bounds;
    h.counts.assign(impl->bounds.size() + 1, 0);
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      for (std::size_t s = 0; s < detail::kShards; ++s) {
        h.counts[b] +=
            impl->counts[b * detail::kShards + s].value.load(std::memory_order_relaxed);
      }
      h.count += h.counts[b];
    }
    h.sum = impl->sum.load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(h));
  }
  // std::map iteration is already name-sorted; gauges gained ".max" rows in
  // order, so exports are deterministic without a re-sort.
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, impl] : impl_->counters) {
    for (auto& cell : impl->cells) cell.value.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, impl] : impl_->gauges) {
    impl->value.store(0, std::memory_order_relaxed);
    impl->max_seen.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, impl] : impl_->histograms) {
    for (auto& cell : impl->counts) cell.value.store(0, std::memory_order_relaxed);
    impl->sum.store(0.0, std::memory_order_relaxed);
  }
}

#else  // !MONOHIDS_OBS_ENABLED

struct MetricsRegistry::Impl {};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter MetricsRegistry::counter(const std::string&) { return Counter{}; }
Gauge MetricsRegistry::gauge(const std::string&) { return Gauge{}; }
Histogram MetricsRegistry::histogram(const std::string&, const BucketBounds&) {
  return Histogram{};
}
MetricsSnapshot MetricsRegistry::snapshot() const { return MetricsSnapshot{}; }
void MetricsRegistry::reset() {}

#endif  // MONOHIDS_OBS_ENABLED

}  // namespace monohids::obs
