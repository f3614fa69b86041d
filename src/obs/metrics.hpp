// Process-wide metrics registry: counters, gauges, fixed-bucket histograms.
//
// The ROADMAP's production target ("millions of users, fast as the hardware
// allows") needs runtime visibility — flow-table occupancy, cache hit rates,
// thread-pool saturation, per-stage latency — without taxing the hot paths
// that earned the last three PRs their speedups. The design places cost
// where it can be afforded:
//
//   - Handles, not lookups. Call sites hold a Counter/Gauge/Histogram handle
//     (one pointer) obtained once from the registry; the mutation fast path
//     is a single relaxed std::atomic RMW with no name hashing and no locks.
//   - Thread-sharded cells. Each counter owns a small set of cache-line-
//     padded shards; a writing thread picks a stable shard by thread index,
//     so parallel scenario builds and pool workers do not bounce one cache
//     line. A scrape sums the shards (values are eventually consistent:
//     a scrape concurrent with writers sees each increment at most once,
//     never torn).
//   - Batch-granular instrumentation upstream. The per-packet layers
//     (FlowTable, IngestSession) accumulate plain local counters and publish
//     to the registry at batch/flush boundaries, so the per-packet path has
//     no atomics at all — the registry's cost model only has to absorb
//     per-batch and per-task events.
//   - Compile-time off switch. With -DMONOHIDS_OBS=OFF every handle method
//     is an empty inline function and the registry returns inert handles:
//     the instrumentation compiles to nothing (true zero cost), while call
//     sites keep one unconditional shape — no #ifdef at points of use.
//
// Registration is idempotent (same name returns the same metric) and cheap
// but mutex-guarded — do it at construction time, not per event. Metric
// names use dotted lowercase ("flowtable.flows_created"); the exporters
// (obs/export.hpp) map them to JSON keys and Prometheus sample names.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

// MONOHIDS_OBS_ENABLED is injected by CMake (option MONOHIDS_OBS, default
// ON). Standalone consumers of this header (e.g. IDE parses) default to on.
#ifndef MONOHIDS_OBS_ENABLED
#define MONOHIDS_OBS_ENABLED 1
#endif

namespace monohids::obs {

/// True when the library was built with the observability layer compiled in.
inline constexpr bool kEnabled = MONOHIDS_OBS_ENABLED != 0;

/// Upper bound (inclusive) of one histogram bucket; the registry appends an
/// implicit +inf bucket, so `bounds` never needs to cover the full range.
using BucketBounds = std::vector<double>;

// ---------------------------------------------------------------------------
// Snapshot types (defined unconditionally: exporters, benches and tests
// compile in both build flavors; with obs off every snapshot is empty).

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  BucketBounds bounds;                ///< finite upper bounds, ascending
  std::vector<std::uint64_t> counts;  ///< per-bucket counts; size = bounds+1
  std::uint64_t count = 0;            ///< total observations
  double sum = 0.0;                   ///< sum of observed values

  /// Bucket-interpolated quantile estimate (q in [0,1]); 0 when empty.
  [[nodiscard]] double approx_quantile(double q) const;
};

/// One coherent-enough view of every registered metric. Samples are sorted
/// by name so exports are deterministic.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counter value by exact name (0 when absent) — test/bench convenience.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;
  [[nodiscard]] std::int64_t gauge_value(std::string_view name) const noexcept;
  [[nodiscard]] const HistogramSample* histogram(std::string_view name) const noexcept;
};

#if MONOHIDS_OBS_ENABLED

namespace detail {

/// Shard count for counter/histogram cells. Power of two; a writing thread
/// maps to `thread_ordinal % kShards`. 16 shards * 64 B = 1 KiB per counter.
inline constexpr std::size_t kShards = 16;

struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};

/// Stable per-thread shard index in [0, kShards).
[[nodiscard]] std::size_t shard_index() noexcept;

struct CounterImpl {
  std::string name;
  ShardCell cells[kShards];

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const ShardCell& c : cells) sum += c.value.load(std::memory_order_relaxed);
    return sum;
  }
};

struct GaugeImpl {
  std::string name;
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> max_seen{0};
};

struct HistogramImpl {
  std::string name;
  BucketBounds bounds;  ///< ascending finite upper bounds; +inf implicit
  // Sharded (bucket x shard) counts: bucket-major, each bucket row padded by
  // shard cells so two threads observing into the same bucket stay on
  // different cache lines. sum is a C++20 atomic<double> fetch_add.
  std::vector<ShardCell> counts;  ///< size = (bounds.size()+1) * kShards
  std::atomic<double> sum{0.0};

  void observe(double value) noexcept;
};

}  // namespace detail

/// Monotonic counter handle. Default-constructed handles are inert no-ops,
/// so instrumented classes can be built before (or without) registration.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n) noexcept {
    if (impl_ != nullptr) {
      impl_->cells[detail::shard_index()].value.fetch_add(n, std::memory_order_relaxed);
    }
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] bool is_null() const noexcept { return impl_ == nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterImpl* impl) noexcept : impl_(impl) {}
  detail::CounterImpl* impl_ = nullptr;
};

/// Up/down gauge handle (single atomic: gauges are low-frequency). set()
/// also tracks a high-water mark, exported as "<name>.max".
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) noexcept {
    if (impl_ == nullptr) return;
    impl_->value.store(v, std::memory_order_relaxed);
    std::int64_t seen = impl_->max_seen.load(std::memory_order_relaxed);
    while (v > seen &&
           !impl_->max_seen.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  void add(std::int64_t delta) noexcept {
    if (impl_ == nullptr) return;
    const std::int64_t now =
        impl_->value.fetch_add(delta, std::memory_order_relaxed) + delta;
    std::int64_t seen = impl_->max_seen.load(std::memory_order_relaxed);
    while (now > seen &&
           !impl_->max_seen.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  void sub(std::int64_t delta) noexcept { add(-delta); }
  [[nodiscard]] bool is_null() const noexcept { return impl_ == nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeImpl* impl) noexcept : impl_(impl) {}
  detail::GaugeImpl* impl_ = nullptr;
};

/// Fixed-bucket histogram handle. observe() is a short linear scan over the
/// bounds (they are few and cache-resident) plus one sharded fetch_add.
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) noexcept {
    if (impl_ != nullptr) impl_->observe(value);
  }
  [[nodiscard]] bool is_null() const noexcept { return impl_ == nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramImpl* impl) noexcept : impl_(impl) {}
  detail::HistogramImpl* impl_ = nullptr;
};

#else  // !MONOHIDS_OBS_ENABLED — inert handles; every method is a no-op the
       // optimizer deletes, so instrumented call sites compile to nothing.

class Counter {
 public:
  void add(std::uint64_t) noexcept {}
  void inc() noexcept {}
  [[nodiscard]] bool is_null() const noexcept { return true; }
};

class Gauge {
 public:
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
  void sub(std::int64_t) noexcept {}
  [[nodiscard]] bool is_null() const noexcept { return true; }
};

class Histogram {
 public:
  void observe(double) noexcept {}
  [[nodiscard]] bool is_null() const noexcept { return true; }
};

#endif  // MONOHIDS_OBS_ENABLED

/// Latency bucket preset (upper bounds in milliseconds).
[[nodiscard]] BucketBounds latency_buckets_ms();
/// Geometric size buckets 1, 2, 4, ... 2^(count-1).
[[nodiscard]] BucketBounds pow2_buckets(std::size_t count);

/// The process-wide registry. Handles stay valid for the process lifetime
/// (metric storage is never freed, mirroring ThreadPool::shared()'s leak-on-
/// exit policy so flushes from static destructors stay safe). reset() zeroes
/// values but keeps registrations and handles alive — tests use it to
/// isolate measurements.
class MetricsRegistry {
 public:
  /// The singleton every layer publishes into.
  static MetricsRegistry& global();

  /// Registers (or finds) a counter. Same name -> same underlying metric.
  /// A name may be registered as only one kind; a kind mismatch throws.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  /// `bounds` must be ascending and non-empty; on re-registration the
  /// original bounds win (callers agree by convention).
  Histogram histogram(const std::string& name, const BucketBounds& bounds);

  /// Aggregates every shard into a sorted snapshot. Safe to call while
  /// writers mutate (values are eventually consistent, never torn).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every counter/gauge/histogram cell; registrations and
  /// outstanding handles remain valid.
  void reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Public constructor so tests can run an isolated instance; production
  // code uses global().
  MetricsRegistry();
  ~MetricsRegistry();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace monohids::obs
