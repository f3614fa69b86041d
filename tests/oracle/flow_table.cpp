#include "oracle/flow_table.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace monohids::oracle {

using net::FlowEventKind;
using net::Protocol;
using net::TcpFlags;

ReferenceFlowTable::ReferenceFlowTable(Ipv4Address monitored, FlowTableConfig config)
    : monitored_(monitored), config_(config) {
  MONOHIDS_EXPECT(config_.tcp_idle_timeout > 0 && config_.udp_idle_timeout > 0,
                  "idle timeouts must be positive");
}

void ReferenceFlowTable::process(const PacketRecord& packet) {
  const FiveTuple& t = packet.tuple;
  MONOHIDS_EXPECT(t.src_ip == monitored_ || t.dst_ip == monitored_,
                  "packet does not involve the monitored host");
  MONOHIDS_EXPECT(packet.timestamp >= clock_, "packets must be time-ordered");
  clock_ = packet.timestamp;
  ++stats_.packets_processed;

  const bool is_tcp = t.protocol == Protocol::Tcp;
  const bool is_syn = is_tcp && has_flag(packet.tcp_flags, TcpFlags::Syn) &&
                      !has_flag(packet.tcp_flags, TcpFlags::Ack);
  if (is_syn) ++stats_.syn_packets;

  sweep(packet.timestamp);

  auto it = flows_.find(t);
  bool from_initiator = true;
  if (it == flows_.end()) {
    it = flows_.find(t.reversed());
    from_initiator = false;
  }

  if (it == flows_.end()) {
    if (is_tcp && !is_syn) return;
    Flow flow;
    flow.first_seen = packet.timestamp;
    flow.last_seen = packet.timestamp;
    flow.packets = 1;
    flow.initiated_by_monitored = (t.src_ip == monitored_);
    flow.tcp_state = TcpState::SynSent;
    flows_.emplace(t, flow);
    ++stats_.flows_created;
    stats_.max_live_flows = std::max<std::uint64_t>(stats_.max_live_flows, flows_.size());
    events_.push_back(FlowEvent{packet.timestamp, t, FlowEventKind::Start,
                                FlowEndReason::None, flow.initiated_by_monitored, 0});
    return;
  }

  Flow& flow = it->second;
  flow.last_seen = packet.timestamp;
  ++flow.packets;

  if (!is_tcp) return;

  if (has_flag(packet.tcp_flags, TcpFlags::Rst)) {
    const FiveTuple key = it->first;
    const Flow ended = flow;
    flows_.erase(it);
    ++stats_.flows_ended_rst;
    end_flow(key, ended, packet.timestamp, FlowEndReason::Rst);
    return;
  }

  if (flow.tcp_state == TcpState::SynSent && has_flag(packet.tcp_flags, TcpFlags::Ack)) {
    flow.tcp_state = TcpState::Established;
  }

  if (has_flag(packet.tcp_flags, TcpFlags::Fin)) {
    flow.tcp_state = TcpState::FinSeen;
    if (from_initiator) {
      flow.fin_from_initiator = true;
    } else {
      flow.fin_from_responder = true;
    }
    if (flow.fin_from_initiator && flow.fin_from_responder) {
      const FiveTuple key = it->first;
      const Flow ended = flow;
      flows_.erase(it);
      ++stats_.flows_ended_fin;
      end_flow(key, ended, packet.timestamp, FlowEndReason::Fin);
    }
  }
}

void ReferenceFlowTable::advance_to(util::Timestamp now) {
  MONOHIDS_EXPECT(now >= clock_, "clock cannot move backwards");
  clock_ = now;
  sweep(now);
}

void ReferenceFlowTable::flush(util::Timestamp now) {
  MONOHIDS_EXPECT(now >= clock_, "clock cannot move backwards");
  clock_ = now;
  std::vector<std::pair<FiveTuple, Flow>> ended(flows_.begin(), flows_.end());
  std::sort(ended.begin(), ended.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, flow] : ended) {
    ++stats_.flows_ended_flush;
    end_flow(key, flow, now, FlowEndReason::Flush);
  }
  flows_.clear();
}

void ReferenceFlowTable::sweep(util::Timestamp now) {
  if (now - last_sweep_ < config_.sweep_interval) return;
  last_sweep_ = now;
  // The O(all flows) rescan the open-addressing table's expiry heap replaces.
  std::vector<std::pair<FiveTuple, Flow>> expired;
  std::vector<util::Timestamp> deadlines;
  for (auto it = flows_.begin(); it != flows_.end();) {
    const util::Duration timeout = it->first.protocol == Protocol::Tcp
                                       ? config_.tcp_idle_timeout
                                       : config_.udp_idle_timeout;
    if (now - it->second.last_seen >= timeout) {
      expired.emplace_back(it->first, it->second);
      deadlines.push_back(it->second.last_seen + timeout);
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  // Match FlowTable: (expiry deadline, tuple) order, not map iteration order.
  std::vector<std::size_t> order(expired.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (deadlines[a] != deadlines[b]) return deadlines[a] < deadlines[b];
    return expired[a].first < expired[b].first;
  });
  for (std::size_t i : order) {
    ++stats_.flows_ended_timeout;
    end_flow(expired[i].first, expired[i].second, now, FlowEndReason::IdleTimeout);
  }
}

void ReferenceFlowTable::end_flow(const FiveTuple& key, const Flow& flow, util::Timestamp at,
                                  FlowEndReason reason) {
  events_.push_back(FlowEvent{at, key, FlowEventKind::End, reason,
                              flow.initiated_by_monitored, flow.packets});
}

std::vector<FlowEvent> ReferenceFlowTable::drain_events() {
  std::vector<FlowEvent> out;
  out.swap(events_);
  return out;
}

features::PipelineResult extract_features_seed(net::Ipv4Address monitored,
                                               std::span<const net::PacketRecord> packets,
                                               const features::PipelineConfig& config) {
  ReferenceFlowTable table(monitored, config.flow_config);
  features::FeatureExtractor extractor(config.grid, config.horizon);

  for (const net::PacketRecord& packet : packets) {
    extractor.on_packet(packet, monitored);
    table.process(packet);
    for (const net::FlowEvent& event : table.drain_events()) {
      extractor.on_flow_event(event);
    }
  }
  const util::Timestamp last_seen = packets.empty() ? 0 : packets.back().timestamp;
  table.flush(std::max<util::Timestamp>(config.horizon, last_seen));
  for (const net::FlowEvent& event : table.drain_events()) {
    extractor.on_flow_event(event);
  }
  extractor.finish();

  return features::PipelineResult{extractor.matrix(), table.stats()};
}

}  // namespace monohids::oracle
