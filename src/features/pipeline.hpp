// End-to-end feature pipeline: packets -> flow table -> feature matrix.
//
// This is the "Bro processing" stage of the reproduction — the single entry
// point that turns one host's packet trace into the six binned feature
// series that every policy, detector and experiment consumes.
//
// Two ways in:
//   - extract_features(): one-shot over a fully materialized packet span.
//   - IngestSession: the streaming form. Producers (trace generator, trace
//     file readers, pcap import) push bounded, time-ordered batches through
//     the PacketSink interface, so peak memory is bounded by the batch size
//     instead of the trace length. The two forms are bit-identical: pushing
//     the same packets in any batch partition yields the same FeatureMatrix
//     and FlowTableStats as one extract_features() call.
#pragma once

#include <span>
#include <vector>

#include "features/extractor.hpp"
#include "net/flow_table.hpp"

namespace monohids::features {

struct PipelineConfig {
  util::BinGrid grid = util::BinGrid::minutes(15);
  util::Duration horizon = 5 * util::kMicrosPerWeek;  ///< paper: 5 weeks
  net::FlowTableConfig flow_config;
};

struct PipelineResult {
  FeatureMatrix matrix;
  net::FlowTableStats flow_stats;
};

/// Default producer batch bound: 64K packets (~1.5 MiB of PacketRecords).
inline constexpr std::size_t kDefaultIngestBatch = 64 * 1024;

/// Consumer side of the streaming ingest engine. Batches must be
/// time-ordered within and across calls; a batch may be any size (the
/// producers bound theirs, e.g. kDefaultIngestBatch packets).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_batch(std::span<const net::PacketRecord> batch) = 0;
};

/// Producer-side helper: accumulates pushed packets and forwards them to the
/// sink in batches of at most `max_batch`. Call finish() to flush the tail;
/// returns the total packet count. Used by the streaming trace readers.
class BatchingAdapter {
 public:
  BatchingAdapter(PacketSink& sink, std::size_t max_batch);

  void push(const net::PacketRecord& packet) {
    buffer_.push_back(packet);
    ++count_;
    if (buffer_.size() >= max_batch_) flush();
  }

  /// Flushes any buffered tail; safe to call once at end of input.
  std::uint64_t finish();

 private:
  void flush();

  PacketSink* sink_;
  std::size_t max_batch_;
  std::vector<net::PacketRecord> buffer_;
  std::uint64_t count_ = 0;
};

/// Streaming packet -> FeatureMatrix session for one monitored host.
///
/// Lifetime rules: push()/on_batch() any number of times with time-ordered
/// packets, then finish() exactly once — it closes remaining flows at
/// max(horizon, last packet) and returns the result. Pushing after finish()
/// (or finishing twice) throws PreconditionError. The per-packet hot loop is
/// allocation-free in steady state: the flow table keeps its slots, expiry
/// heap and event buffer; no per-packet vectors are created.
class IngestSession final : public PacketSink {
 public:
  explicit IngestSession(net::Ipv4Address monitored, const PipelineConfig& config = {});

  void on_batch(std::span<const net::PacketRecord> batch) override;
  void push(const net::PacketRecord& packet);

  /// Flushes remaining flows and finalizes the matrix. Call exactly once.
  [[nodiscard]] PipelineResult finish();

  /// Live flow-table stats (valid before and after finish()).
  [[nodiscard]] const net::FlowTableStats& stats() const noexcept { return table_.stats(); }
  [[nodiscard]] std::size_t active_flows() const noexcept { return table_.active_flows(); }

  /// Number of bins fully determined by the packets seen so far: every bin
  /// strictly below the bin of the last ingested packet, clamped to the
  /// horizon. All six series record at packet/flow-Start timestamps, which
  /// arrive in time order, so a bin below this boundary can never change
  /// again — it is safe to alarm on (the live daemon's watermark).
  [[nodiscard]] std::uint64_t completed_bins() const noexcept;

  /// Seals every completed bin (writes the pending distinct-destination
  /// count through the watermark) and returns completed_bins(). The sealed
  /// prefix of live_matrix() is bit-identical to the same prefix of the
  /// finish() matrix; sealing repeatedly as the stream advances is safe.
  std::uint64_t seal_completed();

  /// In-progress feature matrix: bins below the last seal_completed()
  /// boundary are final, later bins are still accumulating.
  [[nodiscard]] const FeatureMatrix& live_matrix() const noexcept {
    return extractor_.matrix();
  }

 private:
  net::Ipv4Address monitored_;
  util::BinGrid grid_;
  util::Duration horizon_;
  net::FlowTable table_;
  FeatureExtractor extractor_;
  util::Timestamp last_seen_ = 0;
  bool finished_ = false;
};

/// Runs `packets` (time-ordered, all involving `monitored`) through
/// connection tracking and feature extraction.
[[nodiscard]] PipelineResult extract_features(net::Ipv4Address monitored,
                                              std::span<const net::PacketRecord> packets,
                                              const PipelineConfig& config = {});

}  // namespace monohids::features
