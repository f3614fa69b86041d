// Seed connection tracker and batch pipeline: test oracles for net::FlowTable
// and features::IngestSession.
//
// ReferenceFlowTable is the seed std::unordered_map implementation, kept as
// the behavioral spec of net::FlowTable: a node-allocating hash map whose
// idle sweep rescans every live flow. It emits the same deterministic
// (expiry deadline, tuple)-ordered timeout events and tuple-ordered flush
// events as the open-addressing table, so the two are byte-comparable: the
// randomized differential tests assert identical FlowEvent streams and
// stats, and bench/micro_ingest uses it as the map-vs-open-addressing and
// batch-vs-streaming baseline. Linked only by tests and A/B benches.
#pragma once

#include <unordered_map>
#include <vector>

#include "features/pipeline.hpp"
#include "net/flow_table.hpp"

namespace monohids::oracle {

using net::FiveTuple;
using net::FlowEndReason;
using net::FlowEvent;
using net::FlowTableConfig;
using net::FlowTableStats;
using net::Ipv4Address;
using net::PacketRecord;

/// Map-based flow tracker with FlowTable's exact observable behavior.
class ReferenceFlowTable {
 public:
  ReferenceFlowTable(Ipv4Address monitored, FlowTableConfig config = {});

  void process(const PacketRecord& packet);
  void advance_to(util::Timestamp now);
  void flush(util::Timestamp now);
  [[nodiscard]] std::vector<FlowEvent> drain_events();

  [[nodiscard]] const FlowTableStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t active_flows() const noexcept { return flows_.size(); }
  [[nodiscard]] Ipv4Address monitored() const noexcept { return monitored_; }

 private:
  enum class TcpState : std::uint8_t { SynSent, Established, FinSeen };

  struct Flow {
    util::Timestamp first_seen = 0;
    util::Timestamp last_seen = 0;
    std::uint64_t packets = 0;
    bool initiated_by_monitored = false;
    TcpState tcp_state = TcpState::SynSent;  // TCP only
    bool fin_from_initiator = false;
    bool fin_from_responder = false;
  };

  void sweep(util::Timestamp now);
  void end_flow(const FiveTuple& key, const Flow& flow, util::Timestamp at,
                FlowEndReason reason);

  Ipv4Address monitored_;
  FlowTableConfig config_;
  std::unordered_map<FiveTuple, Flow> flows_;  // keyed by initiator-oriented tuple
  std::vector<FlowEvent> events_;
  FlowTableStats stats_;
  util::Timestamp last_sweep_ = 0;
  util::Timestamp clock_ = 0;
};

/// The seed batch pipeline: ReferenceFlowTable plus per-packet event
/// drains. The streaming engine (features::extract_features and any batch
/// partition through features::IngestSession) must stay byte-identical to
/// this.
[[nodiscard]] features::PipelineResult extract_features_seed(
    net::Ipv4Address monitored, std::span<const net::PacketRecord> packets,
    const features::PipelineConfig& config = {});

}  // namespace monohids::oracle
