// Memoized analysis substrate shared by the whole experiment suite.
//
// Every figure/table starts from the same per-user, per-week empirical
// distributions and (grouper x heuristic) threshold assignments, yet the
// uncached pipeline rebuilds them on each call. AnalysisCache computes each
// artifact once — keyed on (feature, week) for distributions, on (feature,
// train week, grouper, attack sweep) for every group's utility hull and on
// (feature, train week, grouper, heuristic, attack sweep) for threshold
// assignments — and hands out shared, immutable results zero-copy
// (EmpiricalDistribution copies are pointer+span copies). Results are
// bit-identical to the uncached path for any thread count.
//
// Utility heuristics at every weight share the memoized hulls
// (hids::pooled_curves): the hull of each pooled group's curve and of each
// one-member group's own curve, which keeps every point a
// utility-weight selection can pick (hids::utility_hull). Re-weighting a
// policy only re-selects on the hulls instead of re-merging pooled groups
// and re-sweeping every host. The F-measure is not linear in the weight,
// so it never selects on a hull: its assignment runs
// hids::assign_thresholds on the full curves.
//
// Lifetime: the cache references (does not copy) the feature matrices it
// was built over; it is valid while those matrices are alive and
// unmodified. Scenario::analysis() owns the canonical instance.
//
// Thread safety: get-or-compute is guarded per key with shared futures, so
// concurrent callers of the same key compute once and everyone else waits;
// distinct keys compute concurrently. Callers must not be thread-pool
// workers (the compute itself fans out over the pool).
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "hids/attack_model.hpp"
#include "hids/evaluator.hpp"
#include "hids/threshold_policy.hpp"

namespace monohids::sim {

class AnalysisCache final : public hids::DistributionCache {
 public:
  /// Builds an empty cache over `users` (referenced, not copied).
  explicit AnalysisCache(std::span<const features::FeatureMatrix> users);

  /// Memoized hids::week_distributions(users, feature, week).
  [[nodiscard]] std::shared_ptr<const DistributionSet> week(
      features::FeatureKind feature, std::uint32_t week, unsigned threads = 0) override;

  /// Memoized hids::assign_thresholds over the cached training
  /// distributions. Keyed on cache_key() of the grouper/heuristic plus the
  /// exact attack sweep, so parameterized policies never collide. A
  /// UtilityHeuristic with a non-empty attack sweep selects on the memoized
  /// pooled_curves() hulls (hids::select_thresholds) — same thresholds.
  [[nodiscard]] std::shared_ptr<const hids::ThresholdAssignment> thresholds(
      features::FeatureKind feature, std::uint32_t train_week,
      const hids::Grouper& grouper, const hids::ThresholdHeuristic& heuristic,
      const hids::AttackModel* attack, unsigned threads = 0) override;

  /// Memoized hids::pooled_curves (every group's utility hull) over the
  /// cached training distributions, keyed like thresholds() without the
  /// heuristic.
  [[nodiscard]] std::shared_ptr<const hids::PooledCurves> pooled_curves(
      features::FeatureKind feature, std::uint32_t train_week, const hids::Grouper& grouper,
      const hids::AttackModel& attack, unsigned threads = 0);

  /// Memoized sim::make_attack_model: log sweep bounded by the maximum
  /// observed training value of `feature` in `train_week`.
  [[nodiscard]] std::shared_ptr<const hids::AttackModel> attack_model(
      features::FeatureKind feature, std::uint32_t train_week, std::uint32_t steps = 64,
      unsigned threads = 0);

  /// True when this cache was built over exactly `users` (same storage) —
  /// Scenario::analysis() uses this to invalidate on copy.
  [[nodiscard]] bool covers(std::span<const features::FeatureMatrix> users) const noexcept {
    return users_.data() == users.data() && users_.size() == users.size();
  }

  [[nodiscard]] std::uint32_t user_count() const noexcept {
    return static_cast<std::uint32_t>(users_.size());
  }

  /// Hit/miss counters (for benches and tests). A "miss" is a computation;
  /// a "hit" is a lookup served from memory.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] Counters counters() const;

  /// When bypassing, every call recomputes and nothing is stored — the
  /// pre-cache pipeline, used by benches to measure the uncached baseline
  /// and by tests to prove bit-identity.
  void set_bypass(bool bypass) noexcept { bypass_ = bypass; }

  /// Drops every memoized artifact (outstanding shared_ptrs stay valid).
  void clear();

 private:
  template <typename Key, typename Value>
  struct MemoMap {
    std::map<Key, std::shared_future<std::shared_ptr<const Value>>> entries;
  };

  template <typename Key, typename Value, typename Compute>
  std::shared_ptr<const Value> get_or_compute(MemoMap<Key, Value>& map, const Key& key,
                                              Compute&& compute);

  using DistKey = std::pair<std::size_t, std::uint32_t>;  // (feature index, week)
  using AssignKey = std::tuple<std::size_t, std::uint32_t, std::string, std::string,
                               std::vector<double>>;
  using CurveKey = std::tuple<std::size_t, std::uint32_t, std::string, std::vector<double>>;
  using AttackKey = std::tuple<std::size_t, std::uint32_t, std::uint32_t>;

  std::span<const features::FeatureMatrix> users_;
  mutable std::mutex mutex_;
  MemoMap<DistKey, DistributionSet> distributions_;
  MemoMap<AssignKey, hids::ThresholdAssignment> assignments_;
  MemoMap<CurveKey, hids::PooledCurves> curves_;
  MemoMap<AttackKey, hids::AttackModel> attacks_;
  Counters counters_;
  bool bypass_ = false;
};

}  // namespace monohids::sim
