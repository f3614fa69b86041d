// Live capture-to-alarm daemon: the production shape of the per-host HIDS.
//
// Everything else in the repo is batch (generate -> ingest -> evaluate);
// the Daemon is the long-running process the paper's enterprise actually
// deploys on an end host. It consumes a time-ordered packet stream
// incrementally (pcap import, live capture shim, or a replayed synthetic
// trace), drives features::IngestSession batches through the
// net::FlowTable, alarm-checks every *completed* feature bin against the
// thresholds in force, feeds the same bins into a threshold learner
// (hids::OnlineThresholdLearner, which keeps the week as exact (value,
// count) runs, or hids::RollingThresholdLearner), re-derives thresholds at
// week rollover exactly the way the batch policy pipeline trains week k
// and tests week k+1, and ships alerts through an AlertBatcher into a
// CentralConsole. Process telemetry goes to the obs registry (daemon.*
// metrics); obs::write_global_prometheus is the scrape surface.
//
// Concurrency model: one capture side (any thread) and one worker thread.
// The capture side never blocks on ingest — offer() enqueues a batch into a
// bounded queue and *drops* it (counted) when the queue is full, so a slow
// consumer degrades coverage, never capture. on_batch()/submit() is the
// lossless blocking form for file replay, where the producer may wait.
// `deliver_inline` runs ingest on the calling thread for deterministic
// single-threaded tests; the processed output is identical either way
// (one consumer, FIFO order).
//
// Determinism contract (pinned by tests/hids/test_daemon_replay.cpp): for
// the same packet stream, any batch partition, queue depth, and inline-vs-
// worker choice yield bit-identical feature matrices, thresholds, alarm
// sets, and flow stats — and all of them bit-identical to the batch
// pipeline (extract_features + PercentileHeuristic on week slices +
// HostHids::scan_range).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "features/pipeline.hpp"
#include "hids/alerts.hpp"
#include "hids/console.hpp"
#include "hids/online_learner.hpp"
#include "hids/rolling_learner.hpp"
#include "obs/metrics.hpp"
#include "trace/pcap.hpp"

namespace monohids::hids {

/// How the daemon maintains its detection thresholds.
enum class ThresholdMode : std::uint8_t {
  /// Train on each completed week, swap thresholds at the rollover (the
  /// paper's week-k -> week-k+1 methodology, run incrementally). Week 0 is
  /// warm-up: thresholds are +infinity, nothing alarms.
  WeeklyRollover,
  /// Sliding-window RollingThresholdLearner per feature: the threshold
  /// refreshes continuously and alarming bins can be excluded from
  /// learning (poisoning guard).
  Rolling,
};

struct DaemonConfig {
  net::Ipv4Address monitored;
  /// Host identity in emitted alerts and the console accounting.
  std::uint32_t user_id = 0;
  features::PipelineConfig pipeline;

  ThresholdMode mode = ThresholdMode::WeeklyRollover;
  /// Training percentile for WeeklyRollover (the IT-survey 99th).
  double percentile = 0.99;
  /// Rolling-mode learner parameters (window, percentile, alarm guard).
  RollingLearnerConfig rolling;

  /// Bounded ingest queue depth, in batches. offer() drops (and counts)
  /// when full; submit()/on_batch() blocks until space frees up.
  std::size_t queue_capacity = 64;
  /// How often queued alerts flush to the console (simulated time).
  util::Duration alert_batch_interval = util::kMicrosPerHour;
  /// Run ingest on the calling thread instead of a worker (deterministic
  /// tests, benchmarking the pure processing path). offer() never drops.
  bool deliver_inline = false;
  /// Start with the worker parked; no batch is consumed until resume().
  /// Lets tests fill the queue deterministically to exercise backpressure.
  bool start_paused = false;
};

/// One threshold re-derivation, recorded at each week rollover (and, in
/// Rolling mode, at each week boundary for observability).
struct ThresholdUpdate {
  std::uint32_t week = 0;  ///< week the thresholds take effect
  std::array<double, features::kFeatureCount> thresholds{};
};

/// Live operational counters. Monotone; a snapshot is internally consistent
/// (taken under the daemon's state lock).
struct DaemonStats {
  std::uint64_t batches_enqueued = 0;   ///< accepted into the queue (or inline)
  std::uint64_t batches_dropped = 0;    ///< offer() rejections: queue full
  std::uint64_t packets_dropped = 0;    ///< packets inside dropped batches
  std::uint64_t packets_ingested = 0;   ///< reached the flow table
  std::uint64_t packets_out_of_order = 0;  ///< skipped: timestamp regressed
  std::uint64_t bins_completed = 0;     ///< feature bins sealed and scanned
  std::uint64_t alerts_emitted = 0;
  std::uint64_t rollovers = 0;          ///< threshold re-derivations applied
  std::uint64_t input_errors = 0;       ///< recovered capture-stream faults
  std::size_t queue_peak = 0;           ///< high-water queue depth (batches)
  std::string last_input_error;         ///< diagnostic of the latest fault
};

/// Everything the daemon knows at shutdown.
struct DaemonResult {
  features::PipelineResult pipeline;      ///< final matrix + flow stats
  std::vector<Alert> alerts;              ///< every alert, in emission order
  std::vector<ThresholdUpdate> rollovers; ///< threshold history
  CentralConsole console;                 ///< alert accounting after batching
  DaemonStats stats;

  DaemonResult(std::uint32_t users, std::uint32_t weeks) : console(users, weeks) {}
};

class Daemon final : public features::PacketSink {
 public:
  explicit Daemon(DaemonConfig config);
  /// Joining destructor: stops the worker and discards unprocessed input if
  /// finish() was never called.
  ~Daemon() override;

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Lossless feed (blocks when the queue is full): the PacketSink face, so
  /// stream_pcap / generate_packets_streamed / BatchingAdapter plug in
  /// directly. Batches must be time-ordered within and across calls;
  /// regressions are skipped and counted, never fatal.
  void on_batch(std::span<const net::PacketRecord> batch) override;

  /// Lossy capture-side feed: never blocks. Returns false (and counts the
  /// drop) when the queue is full.
  bool offer(std::span<const net::PacketRecord> batch);

  /// Pumps an entire pcap capture through the daemon (blocking, lossless).
  /// Mid-stream faults are recovered: every packet parsed before the fault
  /// is ingested, the diagnostic lands in stats().last_input_error and the
  /// returned result's stream_error. Malformed global headers still throw.
  trace::PcapReadResult consume_pcap(std::istream& in,
                                     std::size_t max_batch = features::kDefaultIngestBatch);

  /// Releases a start_paused worker. Idempotent; no-op when inline.
  void resume();

  /// Graceful shutdown: drains the queue, flushes the flow table at
  /// max(horizon, last packet) exactly like the batch pipeline, scans the
  /// remaining bins (rollover accounting included), flushes the alert
  /// batcher, and returns the full run record. Call exactly once.
  [[nodiscard]] DaemonResult finish();

  /// Thread-safe live counters snapshot.
  [[nodiscard]] DaemonStats stats() const;

  /// Threshold currently in force for `feature` (+infinity during warm-up).
  /// Thread-safe (scrape surface).
  [[nodiscard]] double threshold(features::FeatureKind feature) const;

  /// Week of the last completed bin. Thread-safe.
  [[nodiscard]] std::uint32_t current_week() const;

  [[nodiscard]] const DaemonConfig& config() const noexcept { return config_; }
  /// Bins per week on this grid (week_slice partition arithmetic).
  [[nodiscard]] std::uint64_t bins_per_week() const noexcept { return bins_per_week_; }

 private:
  void worker_loop();
  /// Ingests one batch on the consumer side: order-filter, flow table,
  /// extractor, then scans newly completed bins.
  void ingest(std::span<const net::PacketRecord> batch);
  /// Alarm-checks and learns bins [scanned_bins_, limit) of `matrix`.
  void scan_bins(const features::FeatureMatrix& matrix, std::uint64_t limit);
  /// WeeklyRollover: derive next week's thresholds from the finished week.
  void roll_week(std::uint32_t completed_week);
  void emit_alert(features::FeatureKind feature, std::uint64_t bin, double observed,
                  double threshold_in_force);

  DaemonConfig config_;
  std::uint64_t bins_per_week_ = 0;
  std::uint64_t horizon_bins_ = 0;

  // ---- consumer-side state (worker thread, or caller when inline) ----
  features::IngestSession session_;
  OnlineThresholdLearner week_learner_;           // WeeklyRollover
  std::vector<RollingThresholdLearner> rolling_;  // Rolling (one per feature)
  AlertBatcher batcher_;
  /// Order filter watermark: the last accepted timestamp (0 before any, which
  /// no unsigned timestamp regresses below).
  util::Timestamp last_ts_ = 0;
  std::vector<net::PacketRecord> filtered_;  ///< reused order-filter scratch
  std::uint64_t scanned_bins_ = 0;
  std::uint32_t learner_week_ = 0;  ///< week the weekly learner is observing

  // ---- shared state (guarded by state_mu_) ----
  mutable std::mutex state_mu_;
  DaemonStats stats_;
  std::vector<Alert> alerts_;
  std::vector<ThresholdUpdate> updates_;
  CentralConsole console_;
  std::array<double, features::kFeatureCount> active_thresholds_{};
  std::uint32_t current_week_ = 0;

  // ---- queue ----
  mutable std::mutex queue_mu_;
  std::condition_variable queue_space_;  ///< submitters waiting for room
  std::condition_variable queue_ready_;  ///< worker waiting for input
  std::deque<std::vector<net::PacketRecord>> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  std::thread worker_;
  bool finished_ = false;

  // ---- obs handles ----
  obs::Counter m_packets_;
  obs::Counter m_batches_;
  obs::Counter m_dropped_batches_;
  obs::Counter m_out_of_order_;
  obs::Counter m_bins_;
  obs::Counter m_alerts_;
  obs::Counter m_rollovers_;
  obs::Counter m_input_errors_;
  obs::Gauge m_queue_depth_;
  obs::Histogram m_batch_ms_;
};

}  // namespace monohids::hids
