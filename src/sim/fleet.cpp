#include "sim/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rss.hpp"
#include "util/thread_pool.hpp"

namespace monohids::sim {

namespace {

struct FleetMetrics {
  obs::Histogram wave_latency;
  obs::Counter users_total;
  obs::Counter waves_total;
  obs::Gauge peak_rss;

  static FleetMetrics make() {
    auto& registry = obs::MetricsRegistry::global();
    return FleetMetrics{
        registry.histogram("fleet.wave_latency_ms", obs::latency_buckets_ms()),
        registry.counter("fleet.users_total"),
        registry.counter("fleet.waves_total"),
        registry.gauge("fleet.peak_rss_kib"),
    };
  }
};

}  // namespace

void grid_row(const stats::EmpiricalDistribution& week, std::span<float> row) {
  MONOHIDS_EXPECT(row.size() >= 2, "quantile grid needs at least 2 points");
  const double last = static_cast<double>(row.size() - 1);
  for (std::size_t k = 0; k < row.size(); ++k) {
    row[k] = static_cast<float>(week.quantile(static_cast<double>(k) / last));
  }
}

std::size_t FleetScenario::slot(features::FeatureKind feature, std::uint32_t week) const {
  MONOHIDS_EXPECT(week < week_count(), "week beyond the fleet horizon");
  return features::index_of(feature) * week_count() + week;
}

std::span<const float> FleetScenario::rows(features::FeatureKind feature,
                                           std::uint32_t week) const {
  return store_[slot(feature, week)];
}

std::span<const float> FleetScenario::row(features::FeatureKind feature,
                                          std::uint32_t week, std::uint32_t user) const {
  MONOHIDS_EXPECT(user < user_count(), "user id out of range");
  return rows(feature, week).subspan(std::size_t{user} * config_.grid_points,
                                     config_.grid_points);
}

std::size_t FleetScenario::store_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& block : store_) total += block.capacity() * sizeof(float);
  return total;
}

FleetAnalysisCache& FleetScenario::analysis() const {
  if (analysis_cache_ == nullptr) {
    analysis_cache_ = std::make_shared<FleetAnalysisCache>(*this);
  }
  return *analysis_cache_;
}

FleetScenario build_fleet_scenario(const FleetConfig& config) {
  MONOHIDS_EXPECT(config.grid_points >= 2, "quantile grid needs at least 2 points");
  const auto grid_width = config.base.generator.grid.width();
  MONOHIDS_ENSURE(grid_width > 0 && util::kMicrosPerWeek % grid_width == 0,
                  "fleet mode requires a week-aligned bin grid");

  FleetScenario fleet;
  fleet.config_ = config;
  fleet.bins_per_week_ = static_cast<std::uint32_t>(util::kMicrosPerWeek / grid_width);

  const std::uint32_t users = config.base.population.user_count;
  const std::uint32_t weeks = config.base.generator.weeks;
  const std::uint32_t m = config.grid_points;
  const std::size_t cells = std::size_t{features::kFeatureCount} * weeks;

  fleet.store_.resize(cells);
  for (auto& block : fleet.store_) block.resize(std::size_t{users} * m);

  const trace::PopulationBuilder builder(config.base.population);
  const trace::TraceGenerator generator(config.base.generator);

  FleetMetrics metrics = FleetMetrics::make();

  // Reduce one rendered user into their row slots.
  const auto reduce_user = [&](std::uint32_t id, const features::FeatureMatrix& matrix) {
    for (features::FeatureKind feature : features::kAllFeatures) {
      for (std::uint32_t week = 0; week < weeks; ++week) {
        const auto slice = matrix.of(feature).week_slice(week);
        MONOHIDS_EXPECT(!slice.empty(), "week beyond the generated horizon");
        const std::size_t cell = std::size_t{features::index_of(feature)} * weeks + week;
        grid_row(stats::EmpiricalDistribution(slice),
                 std::span<float>(fleet.store_[cell]).subspan(std::size_t{id} * m, m));
      }
    }
  };

  // Render geometry: a wave of users' matrices stays resident at once
  // (bounded by a flat byte budget), and the wave renders as flattened
  // (user, week-tile) parallel_for items — the counter-mode contract makes
  // every tile an independent work unit, so small waves and stragglers
  // still keep every worker busy. One week per tile is the natural grain
  // since the reduction consumes week slices.
  const std::uint64_t total_bins =
      generator.config().grid.bin_count(generator.config().horizon());
  const std::uint64_t tile_bins = fleet.bins_per_week_;
  const std::uint64_t tiles_per_user = (total_bins + tile_bins - 1) / tile_bins;
  constexpr std::size_t kWaveMatrixBudget = std::size_t{64} << 20;  // bytes
  const std::size_t user_matrix_bytes =
      std::size_t{features::kFeatureCount} * total_bins * sizeof(double);
  const std::uint32_t wave_size = static_cast<std::uint32_t>(std::clamp<std::size_t>(
      kWaveMatrixBudget / std::max<std::size_t>(user_matrix_bytes, 1), 1, 4096));

  for (std::uint32_t first = 0; first < users; first += wave_size) {
    const auto started = std::chrono::steady_clock::now();
    const std::uint32_t count = std::min(wave_size, users - first);
    std::vector<trace::UserProfile> profiles(count);
    std::vector<features::FeatureMatrix> matrices(count);
    util::parallel_for(
        count,
        [&](std::size_t i) {
          profiles[i] = builder.build(static_cast<std::uint32_t>(first + i));
          for (auto& series : matrices[i].series) {
            series = features::BinnedSeries(generator.config().grid,
                                            generator.config().horizon());
          }
        },
        config.threads);
    util::parallel_for(
        std::size_t{count} * tiles_per_user,
        [&](std::size_t item) {
          const std::size_t u = item / tiles_per_user;
          const std::uint64_t begin = (item % tiles_per_user) * tile_bins;
          const std::uint64_t end = std::min(total_bins, begin + tile_bins);
          generator.render_features_v2_tile(profiles[u], begin, end, matrices[u]);
        },
        config.threads);
    util::parallel_for(
        count,
        [&](std::size_t i) {
          reduce_user(static_cast<std::uint32_t>(first + i), matrices[i]);
          matrices[i] = {};  // release the wave slot as soon as it is reduced
        },
        config.threads);

    if constexpr (obs::kEnabled) {
      const auto elapsed = std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started);
      metrics.wave_latency.observe(elapsed.count());
      metrics.users_total.add(count);
      metrics.waves_total.inc();
      metrics.peak_rss.set(static_cast<std::int64_t>(util::peak_rss_kib()));
    }
  }
  return fleet;
}

FleetAnalysisCache::FleetAnalysisCache(const FleetScenario& fleet,
                                       std::size_t max_resident_weeks)
    : fleet_(fleet), max_resident_(std::max<std::size_t>(1, max_resident_weeks)) {}

std::shared_ptr<const hids::DistributionCache::DistributionSet> FleetAnalysisCache::week(
    features::FeatureKind feature, std::uint32_t week, unsigned threads) {
  const std::size_t key =
      std::size_t{features::index_of(feature)} * fleet_.week_count() + week;

  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = resident_.begin(); it != resident_.end(); ++it) {
    if (it->first == key) {
      auto set = it->second;  // refresh LRU position (most recent last)
      resident_.erase(it);
      resident_.emplace_back(key, set);
      return set;
    }
  }

  // Build every user's distribution from their float row.
  const std::span<const float> rows = fleet_.rows(feature, week);
  const std::uint32_t m = fleet_.grid_points();
  auto set = std::make_shared<DistributionSet>(fleet_.user_count());
  util::parallel_for(
      set->size(),
      [&](std::size_t u) {
        const auto row = rows.subspan(u * m, m);
        (*set)[u] = stats::EmpiricalDistribution(std::vector<double>(row.begin(), row.end()));
      },
      threads);

  resident_.emplace_back(key, set);
  if (resident_.size() > max_resident_) resident_.erase(resident_.begin());
  return set;
}

std::shared_ptr<const hids::ThresholdAssignment> FleetAnalysisCache::thresholds(
    features::FeatureKind feature, std::uint32_t train_week,
    const hids::Grouper& grouper, const hids::ThresholdHeuristic& heuristic,
    const hids::AttackModel* attack, unsigned threads) {
  const auto train = week(feature, train_week, threads);
  return std::make_shared<const hids::ThresholdAssignment>(
      hids::assign_thresholds(*train, grouper, heuristic, attack, threads));
}

std::shared_ptr<const hids::AttackModel> FleetAnalysisCache::attack_model(
    features::FeatureKind feature, std::uint32_t train_week, std::uint32_t steps,
    unsigned threads) {
  const auto train = week(feature, train_week, threads);
  const double max_size = hids::max_observed_value(*train);
  return std::make_shared<const hids::AttackModel>(
      hids::log_attack_sweep(1.0, std::max(2.0, max_size), steps));
}

hids::PolicyOutcome evaluate_fleet_policy(const FleetScenario& fleet,
                                          features::FeatureKind feature,
                                          hids::EvaluationRound round,
                                          const hids::Grouper& grouper,
                                          const hids::ThresholdHeuristic& heuristic,
                                          const hids::AttackModel& attack,
                                          unsigned threads) {
  FleetAnalysisCache& cache = fleet.analysis();
  const auto train = cache.week(feature, round.train_week, threads);
  const auto test = cache.week(feature, round.test_week, threads);
  hids::PolicyOutcome outcome =
      hids::evaluate_policy(*train, *test, grouper, heuristic, attack, threads);
  // The stock path counted alarms per compact-row sample (grid_points of
  // them); a console meters alarms per real test-week bin.
  for (auto& user : outcome.users) {
    user.weekly_false_alarms = static_cast<std::uint64_t>(
        std::llround(user.fp_rate * static_cast<double>(fleet.bins_per_week())));
  }
  return outcome;
}

}  // namespace monohids::sim
