#include "sim/analysis_cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace monohids::sim {

namespace {

/// Cache metrics: one counter bump per lookup and a span + histogram
/// observation per computed artifact. Lookups are per-(feature, week) —
/// dozens to thousands per experiment suite — nowhere near a hot loop.
struct CacheMetrics {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter bypasses;
  obs::Histogram build_ms;
};

CacheMetrics& cache_metrics() {
  auto& registry = obs::MetricsRegistry::global();
  static CacheMetrics m{
      registry.counter("cache.hits_total"),
      registry.counter("cache.misses_total"),
      registry.counter("cache.bypasses_total"),
      registry.histogram("cache.build_ms", obs::latency_buckets_ms()),
  };
  return m;
}

}  // namespace

AnalysisCache::AnalysisCache(std::span<const features::FeatureMatrix> users)
    : users_(users) {
  MONOHIDS_EXPECT(!users.empty(), "analysis cache over an empty population");
}

template <typename Key, typename Value, typename Compute>
std::shared_ptr<const Value> AnalysisCache::get_or_compute(MemoMap<Key, Value>& map,
                                                           const Key& key,
                                                           Compute&& compute) {
  if (bypass_) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.misses;
    }
    cache_metrics().bypasses.inc();
    return compute();
  }

  std::promise<std::shared_ptr<const Value>> promise;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = map.entries.find(key);
    if (it != map.entries.end()) {
      ++counters_.hits;
      auto future = it->second;
      lock.unlock();
      cache_metrics().hits.inc();
      return future.get();  // blocks only while the first caller computes
    }
    ++counters_.misses;
    map.entries.emplace(key, promise.get_future().share());
  }
  cache_metrics().misses.inc();
  // Compute outside the lock: the fan-out over the thread pool must not
  // serialize behind unrelated keys, and same-key callers wait on the
  // shared future instead.
  try {
    const obs::ScopedTimer span("cache.build", cache_metrics().build_ms);
    auto value = compute();
    promise.set_value(value);
    return value;
  } catch (...) {
    promise.set_exception(std::current_exception());
    const std::lock_guard<std::mutex> lock(mutex_);
    map.entries.erase(key);  // let a later call retry; waiters see the exception
    throw;
  }
}

std::shared_ptr<const AnalysisCache::DistributionSet> AnalysisCache::week(
    features::FeatureKind feature, std::uint32_t week, unsigned threads) {
  const DistKey key{features::index_of(feature), week};
  return get_or_compute(distributions_, key, [&]() {
    return std::make_shared<const DistributionSet>(
        hids::week_distributions(users_, feature, week, threads));
  });
}

std::shared_ptr<const hids::ThresholdAssignment> AnalysisCache::thresholds(
    features::FeatureKind feature, std::uint32_t train_week, const hids::Grouper& grouper,
    const hids::ThresholdHeuristic& heuristic, const hids::AttackModel* attack,
    unsigned threads) {
  AssignKey key{features::index_of(feature), train_week, grouper.cache_key(),
                heuristic.cache_key(),
                attack != nullptr ? attack->sizes : std::vector<double>{}};
  return get_or_compute(assignments_, key, [&]() {
    const auto train = week(feature, train_week, threads);
    const auto* utility = dynamic_cast<const hids::UtilityHeuristic*>(&heuristic);
    if (utility != nullptr && attack != nullptr && !attack->sizes.empty()) {
      const auto curves = pooled_curves(feature, train_week, grouper, *attack, threads);
      return std::make_shared<const hids::ThresholdAssignment>(
          hids::select_thresholds(*train, *curves, *utility));
    }
    return std::make_shared<const hids::ThresholdAssignment>(
        hids::assign_thresholds(*train, grouper, heuristic, attack, threads));
  });
}

std::shared_ptr<const hids::PooledCurves> AnalysisCache::pooled_curves(
    features::FeatureKind feature, std::uint32_t train_week, const hids::Grouper& grouper,
    const hids::AttackModel& attack, unsigned threads) {
  CurveKey key{features::index_of(feature), train_week, grouper.cache_key(), attack.sizes};
  return get_or_compute(curves_, key, [&]() {
    const auto train = week(feature, train_week, threads);
    return std::make_shared<const hids::PooledCurves>(
        hids::pooled_curves(*train, grouper, attack, threads));
  });
}

std::shared_ptr<const hids::AttackModel> AnalysisCache::attack_model(
    features::FeatureKind feature, std::uint32_t train_week, std::uint32_t steps,
    unsigned threads) {
  const AttackKey key{features::index_of(feature), train_week, steps};
  return get_or_compute(attacks_, key, [&]() {
    const auto train = week(feature, train_week, threads);
    const double max_size = hids::max_observed_value(*train);
    // Log spacing: stealthy sizes get proportionally more grid weight than
    // the trivially-detected giants near the global maximum (see
    // sim::make_attack_model).
    return std::make_shared<const hids::AttackModel>(
        hids::log_attack_sweep(1.0, std::max(2.0, max_size), steps));
  });
}

AnalysisCache::Counters AnalysisCache::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void AnalysisCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  distributions_.entries.clear();
  assignments_.entries.clear();
  curves_.entries.clear();
  attacks_.entries.clear();
}

}  // namespace monohids::sim
