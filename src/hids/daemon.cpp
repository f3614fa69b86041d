#include "hids/daemon.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace monohids::hids {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Console week capacity: every whole-or-partial week of the horizon, plus
/// one so a flush landing exactly at the horizon boundary still bins.
std::uint32_t console_weeks(util::Duration horizon) {
  return static_cast<std::uint32_t>((horizon + util::kMicrosPerWeek - 1) /
                                    util::kMicrosPerWeek) +
         1;
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      session_(config_.monitored, config_.pipeline),
      week_learner_(config_.percentile),
      batcher_(config_.user_id, config_.alert_batch_interval,
               [this](const AlertBatch& batch) { console_.ingest(batch); }),
      console_(config_.user_id + 1, console_weeks(config_.pipeline.horizon)) {
  const util::BinGrid grid = config_.pipeline.grid;
  MONOHIDS_EXPECT(grid.width() > 0 && grid.width() <= util::kMicrosPerWeek,
                  "daemon bin width must be positive and at most one week");
  bins_per_week_ = util::kMicrosPerWeek / grid.width();
  MONOHIDS_EXPECT(bins_per_week_ > 0, "daemon bin grid has no bins per week");
  horizon_bins_ = grid.bin_count(config_.pipeline.horizon);
  MONOHIDS_EXPECT(config_.queue_capacity > 0, "daemon queue capacity must be positive");

  active_thresholds_.fill(kInf);  // week 0 / warm-up: never alarm
  if (config_.mode == ThresholdMode::Rolling) {
    rolling_.reserve(features::kFeatureCount);
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      rolling_.emplace_back(config_.rolling);
    }
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  m_packets_ = reg.counter("daemon.packets_ingested");
  m_batches_ = reg.counter("daemon.batches");
  m_dropped_batches_ = reg.counter("daemon.batches_dropped");
  m_out_of_order_ = reg.counter("daemon.packets_out_of_order");
  m_bins_ = reg.counter("daemon.bins_completed");
  m_alerts_ = reg.counter("daemon.alerts");
  m_rollovers_ = reg.counter("daemon.rollovers");
  m_input_errors_ = reg.counter("daemon.input_errors");
  m_queue_depth_ = reg.gauge("daemon.queue_depth");
  m_batch_ms_ = reg.histogram("daemon.batch_ms", obs::latency_buckets_ms());

  if (!config_.deliver_inline) {
    paused_ = config_.start_paused;
    worker_ = std::thread([this] { worker_loop(); });
  }
}

Daemon::~Daemon() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stopping_ = true;
      paused_ = false;
    }
    queue_ready_.notify_all();
    queue_space_.notify_all();
    worker_.join();
  }
}

void Daemon::on_batch(std::span<const net::PacketRecord> batch) {
  MONOHIDS_EXPECT(!finished_, "daemon already finished");
  if (batch.empty()) return;

  if (config_.deliver_inline) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++stats_.batches_enqueued;
    }
    m_batches_.inc();
    ingest(batch);
    return;
  }

  std::vector<net::PacketRecord> copy(batch.begin(), batch.end());
  std::size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_space_.wait(lock,
                      [this] { return queue_.size() < config_.queue_capacity || stopping_; });
    if (stopping_) return;  // shutting down: late batch is dropped silently
    queue_.push_back(std::move(copy));
    depth = queue_.size();
  }
  queue_ready_.notify_one();
  m_batches_.inc();
  m_queue_depth_.set(static_cast<std::int64_t>(depth));
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.batches_enqueued;
    if (depth > stats_.queue_peak) stats_.queue_peak = depth;
  }
}

bool Daemon::offer(std::span<const net::PacketRecord> batch) {
  MONOHIDS_EXPECT(!finished_, "daemon already finished");
  if (batch.empty()) return true;
  if (config_.deliver_inline) {
    on_batch(batch);
    return true;
  }

  std::size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (queue_.size() >= config_.queue_capacity) {
      lock.unlock();
      m_dropped_batches_.inc();
      std::lock_guard<std::mutex> state(state_mu_);
      ++stats_.batches_dropped;
      stats_.packets_dropped += batch.size();
      return false;
    }
    queue_.emplace_back(batch.begin(), batch.end());
    depth = queue_.size();
  }
  queue_ready_.notify_one();
  m_batches_.inc();
  m_queue_depth_.set(static_cast<std::int64_t>(depth));
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.batches_enqueued;
    if (depth > stats_.queue_peak) stats_.queue_peak = depth;
  }
  return true;
}

trace::PcapReadResult Daemon::consume_pcap(std::istream& in, std::size_t max_batch) {
  trace::PcapReadResult result = trace::stream_pcap_recovering(in, *this, max_batch);
  if (!result.stream_error.empty()) {
    m_input_errors_.inc();
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.input_errors;
    stats_.last_input_error = result.stream_error;
  }
  return result;
}

void Daemon::resume() {
  if (config_.deliver_inline) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    paused_ = false;
  }
  queue_ready_.notify_all();
}

void Daemon::worker_loop() {
  for (;;) {
    std::vector<net::PacketRecord> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_ready_.wait(lock, [this] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      batch = std::move(queue_.front());
      queue_.pop_front();
      m_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
    queue_space_.notify_one();
    ingest(batch);
  }
}

void Daemon::ingest(std::span<const net::PacketRecord> batch) {
  const auto started = std::chrono::steady_clock::now();

  // Order filter: the feature pipeline requires time-ordered input; a live
  // capture can deliver the odd regressed timestamp (e.g. after a clock
  // step). Those packets are skipped and counted, never fatal. Only a batch
  // with a regression is copied, minus its regressions; a clean batch (the
  // usual case) goes to the session as it came.
  std::uint64_t out_of_order = 0;
  util::Timestamp last = last_ts_;
  std::size_t clean = 0;
  while (clean < batch.size() && batch[clean].timestamp >= last) {
    last = batch[clean++].timestamp;
  }
  if (clean == batch.size()) {
    if (clean != 0) session_.on_batch(batch);
  } else {
    filtered_.assign(batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(clean));
    for (const net::PacketRecord& packet : batch.subspan(clean)) {
      if (packet.timestamp < last) {
        ++out_of_order;
        continue;
      }
      last = packet.timestamp;
      filtered_.push_back(packet);
    }
    if (!filtered_.empty()) session_.on_batch(filtered_);
  }
  last_ts_ = last;
  const std::uint64_t ingested = batch.size() - out_of_order;
  m_packets_.add(ingested);
  if (out_of_order != 0) m_out_of_order_.add(out_of_order);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stats_.packets_ingested += ingested;
    stats_.packets_out_of_order += out_of_order;
  }

  const std::uint64_t completed = session_.seal_completed();
  scan_bins(session_.live_matrix(), completed);

  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count();
  m_batch_ms_.observe(elapsed_ms);
}

void Daemon::scan_bins(const features::FeatureMatrix& matrix, std::uint64_t limit) {
  if (limit <= scanned_bins_) return;

  std::array<std::span<const double>, features::kFeatureCount> series;
  for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
    series[i] = matrix.of(features::kAllFeatures[i]).values();
  }
  if (limit > series[0].size()) limit = series[0].size();

  for (std::uint64_t bin = scanned_bins_; bin < limit; ++bin) {
    const std::uint32_t week = static_cast<std::uint32_t>(bin / bins_per_week_);
    if (week > learner_week_) {
      // First bin of a new week: thresholds for `week` derive from the week
      // just finished, before this bin is alarm-checked — the incremental
      // form of the batch train-on-week-k / test-on-week-k+1 split.
      roll_week(learner_week_);
      learner_week_ = week;
    }

    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const double value = series[i][bin];
      double threshold_in_force;
      if (config_.mode == ThresholdMode::WeeklyRollover) {
        threshold_in_force = active_thresholds_[i];
        if (value > threshold_in_force) {
          emit_alert(features::kAllFeatures[i], bin, value, threshold_in_force);
        }
        week_learner_.observe(features::kAllFeatures[i], value);
      } else {
        threshold_in_force = rolling_[i].threshold();
        if (value > threshold_in_force) {
          emit_alert(features::kAllFeatures[i], bin, value, threshold_in_force);
        }
        rolling_[i].observe(value);
      }
    }
    if (config_.mode == ThresholdMode::Rolling) {
      std::lock_guard<std::mutex> lock(state_mu_);
      for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
        active_thresholds_[i] = rolling_[i].threshold();
      }
    }
  }

  const std::uint64_t newly = limit - scanned_bins_;
  scanned_bins_ = limit;
  m_bins_.add(newly);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stats_.bins_completed = scanned_bins_;
    current_week_ = static_cast<std::uint32_t>((scanned_bins_ - 1) / bins_per_week_);
  }
}

void Daemon::roll_week(std::uint32_t completed_week) {
  ThresholdUpdate update;
  update.week = completed_week + 1;
  if (config_.mode == ThresholdMode::WeeklyRollover) {
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const features::FeatureKind f = features::kAllFeatures[i];
      update.thresholds[i] =
          week_learner_.observations(f) > 0 ? week_learner_.threshold(f) : kInf;
    }
    // Fresh learner for the week now starting: the batch policy trains on
    // exactly one week, so the incremental learner must too.
    week_learner_ = OnlineThresholdLearner(config_.percentile);
  } else {
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      update.thresholds[i] = rolling_[i].threshold();
    }
  }

  m_rollovers_.inc();
  std::lock_guard<std::mutex> lock(state_mu_);
  if (config_.mode == ThresholdMode::WeeklyRollover) {
    active_thresholds_ = update.thresholds;
  }
  updates_.push_back(update);
  ++stats_.rollovers;
}

void Daemon::emit_alert(features::FeatureKind feature, std::uint64_t bin, double observed,
                        double threshold_in_force) {
  Alert alert;
  alert.user_id = config_.user_id;
  alert.feature = feature;
  alert.bin = bin;
  alert.bin_start = config_.pipeline.grid.bin_start(bin);
  alert.observed = observed;
  alert.threshold = threshold_in_force;

  m_alerts_.inc();
  std::lock_guard<std::mutex> lock(state_mu_);
  alerts_.push_back(alert);
  ++stats_.alerts_emitted;
  batcher_.submit(alert);  // may flush into console_; both live under state_mu_
}

DaemonResult Daemon::finish() {
  MONOHIDS_EXPECT(!finished_, "daemon already finished");

  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stopping_ = true;
      paused_ = false;  // a paused daemon still drains its queue on shutdown
    }
    queue_ready_.notify_all();
    queue_space_.notify_all();
    worker_.join();
  }
  finished_ = true;

  // Flush the flow table exactly like the batch pipeline, then scan every
  // bin the live watermark had not reached — including trailing all-zero
  // bins, so weekly learners see full week slices and rollover accounting
  // matches the batch train/test split bin for bin.
  features::PipelineResult pipeline = session_.finish();
  const std::uint64_t total_bins =
      pipeline.matrix.of(features::FeatureKind::TcpConnections).values().size();
  scan_bins(pipeline.matrix, total_bins);

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    batcher_.flush(config_.pipeline.grid.bin_start(total_bins));
  }
  m_queue_depth_.set(0);

  DaemonResult result(config_.user_id + 1, console_weeks(config_.pipeline.horizon));
  result.pipeline = std::move(pipeline);
  std::lock_guard<std::mutex> lock(state_mu_);
  result.alerts = std::move(alerts_);
  result.rollovers = std::move(updates_);
  result.console = std::move(console_);
  result.stats = stats_;
  return result;
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stats_;
}

double Daemon::threshold(features::FeatureKind feature) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return active_thresholds_[features::index_of(feature)];
}

std::uint32_t Daemon::current_week() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return current_week_;
}

}  // namespace monohids::hids
