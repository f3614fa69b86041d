#include "net/flow_table.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace monohids::net {

namespace {

/// Registry handles shared by every FlowTable (hundreds of tables run in a
/// parallel scenario build; they all fold into one process-wide series).
/// Values only arrive via publish_metrics() at flush, so contention is one
/// burst per table, not per packet.
struct FlowMetrics {
  obs::Counter packets;
  obs::Counter flows_created;
  obs::Counter ended_fin;
  obs::Counter ended_rst;
  obs::Counter ended_timeout;
  obs::Counter ended_flush;
  obs::Counter syn_packets;
  obs::Counter insert_probe_slots;
  obs::Counter sweeps_scan;
  obs::Counter sweeps_wheel;
  obs::Counter wheel_rearms;
  obs::Counter wheel_orphans;
  obs::Counter flushes;
  obs::Histogram peak_live;
};

FlowMetrics& flow_metrics() {
  auto& registry = obs::MetricsRegistry::global();
  static FlowMetrics m{
      registry.counter("flowtable.packets_total"),
      registry.counter("flowtable.flows_created_total"),
      registry.counter("flowtable.flows_ended_fin_total"),
      registry.counter("flowtable.flows_ended_rst_total"),
      registry.counter("flowtable.flows_ended_timeout_total"),
      registry.counter("flowtable.flows_ended_flush_total"),
      registry.counter("flowtable.syn_packets_total"),
      registry.counter("flowtable.insert_probe_slots_total"),
      registry.counter("flowtable.sweeps_scan_total"),
      registry.counter("flowtable.sweeps_wheel_total"),
      registry.counter("flowtable.wheel_rearms_total"),
      registry.counter("flowtable.wheel_orphans_total"),
      registry.counter("flowtable.flushes_total"),
      registry.histogram("flowtable.peak_live_flows", obs::pow2_buckets(24)),
  };
  return m;
}

/// Minimum slot-arena size. Linear probing wants slack even for tiny tables.
constexpr std::size_t kMinSlots = 16;

/// Largest arena swept by dense tag scan. Beyond this the scan would walk
/// too many empty slots per sweep, so expiry switches to the timing wheel.
constexpr std::size_t kScanSweepMaxSlots = 4096;

/// Grow when live * 4 > capacity * 3 (max load factor 0.75).
[[nodiscard]] constexpr bool over_load(std::size_t live, std::size_t capacity) noexcept {
  return live * 4 > capacity * 3;
}

[[nodiscard]] std::size_t next_pow2(std::size_t v, std::size_t floor) noexcept {
  std::size_t p = floor;
  while (p < v) p <<= 1;
  return p;
}

/// Slot tag: high hash bits, never zero (zero marks an empty slot).
[[nodiscard]] constexpr std::uint8_t tag_of(std::uint64_t hash) noexcept {
  return static_cast<std::uint8_t>((hash >> 56) | 0x80u);
}

}  // namespace

FlowTable::FlowTable(Ipv4Address monitored, FlowTableConfig config)
    : monitored_(monitored), config_(config) {
  MONOHIDS_EXPECT(config_.tcp_idle_timeout > 0 && config_.udp_idle_timeout > 0,
                  "idle timeouts must be positive");
  tags_.assign(kMinSlots, 0);
  keys_.resize(kMinSlots);
  flows_.resize(kMinSlots);
  mask_ = kMinSlots - 1;

  // Wheel bucket width: at least the sweep cadence (a sweep then crosses at
  // most one bucket boundary), at least 1/1024 of the longest timeout (caps
  // the ring size), rounded up to a power of two so bucketing is a shift.
  const util::Duration max_timeout =
      std::max(config_.tcp_idle_timeout, config_.udp_idle_timeout);
  const auto want = static_cast<std::uint64_t>(std::max<util::Duration>(
      {config_.sweep_interval, max_timeout / 1024 + 1, 1}));
  wheel_shift_ = want > 1 ? static_cast<std::uint32_t>(std::bit_width(want - 1)) : 0;
  const std::size_t ring = next_pow2(
      (static_cast<std::uint64_t>(max_timeout) >> wheel_shift_) + 3, 4);
  wheel_.resize(ring);
  wheel_mask_ = ring - 1;
}

namespace {

/// Tuple hash over its raw packed fields: one widening multiply (wyhash
/// style), measurably faster than the FNV chain in std::hash<FiveTuple>,
/// which stays as-is for containers that expect it.
[[nodiscard]] std::uint64_t hash_raw(std::uint64_t ips, std::uint32_t ports,
                                     std::uint8_t protocol) noexcept {
  const std::uint64_t a = ips ^ 0x9e3779b97f4a7c15ULL;
  const std::uint64_t b =
      ((std::uint64_t{ports} << 8) | std::uint64_t{protocol}) ^ 0xbf58476d1ce4e5b9ULL;
  const auto m = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(m) ^ static_cast<std::uint64_t>(m >> 64);
}

}  // namespace

std::uint64_t FlowTable::hash_of(const FiveTuple& key) noexcept {
  // Fields are loaded bytewise via memcpy so the struct's padding bytes
  // never leak into the hash.
  static_assert(sizeof(Ipv4Address) == 4 && offsetof(FiveTuple, dst_ip) == 4 &&
                offsetof(FiveTuple, src_port) == 8 && offsetof(FiveTuple, dst_port) == 10);
  std::uint64_t ips = 0;
  std::uint32_t ports = 0;
  std::memcpy(&ips, &key, 8);
  std::memcpy(&ports, &key.src_port, 4);
  return hash_raw(ips, ports, static_cast<std::uint8_t>(key.protocol));
}

std::size_t FlowTable::find_slot(const FiveTuple& key, std::uint64_t hash) const noexcept {
  std::size_t i = hash & mask_;
  const std::uint8_t tag = tag_of(hash);
  while (true) {
    const std::uint8_t t = tags_[i];
    if (t == tag && keys_[i] == key) return i;
    if (t == 0) return kNpos;
    i = (i + 1) & mask_;
  }
}

std::size_t FlowTable::insert_slot(const FiveTuple& key, std::uint64_t hash) {
  if (over_load(live_ + 1, tags_.size())) rehash(tags_.size() * 2);
  std::size_t i = hash & mask_;
  while (tags_[i] != 0) i = (i + 1) & mask_;
  if constexpr (obs::kEnabled) obs_accum_.insert_probe_slots += (i - (hash & mask_)) & mask_;
  tags_[i] = tag_of(hash);
  keys_[i] = key;
  ++live_;
  stats_.max_live_flows = std::max<std::uint64_t>(stats_.max_live_flows, live_);
  return i;
}

void FlowTable::erase_slot(std::size_t index) {
  // Backward-shift deletion: pull displaced entries into the hole so probe
  // chains stay contiguous with no tombstones.
  std::size_t hole = index;
  std::size_t i = index;
  tags_[hole] = 0;
  while (true) {
    i = (i + 1) & mask_;
    if (tags_[i] == 0) break;
    const std::size_t home = hash_of(keys_[i]) & mask_;
    // The entry at i may fill the hole only if its home does not lie in the
    // cyclic interval (hole, i] — otherwise moving it would break its chain.
    const std::size_t hole_dist = (i - hole) & mask_;
    const std::size_t home_dist = (i - home) & mask_;
    if (home_dist >= hole_dist) {
      tags_[hole] = tags_[i];
      keys_[hole] = keys_[i];
      flows_[hole] = flows_[i];
      tags_[i] = 0;
      hole = i;
    }
  }
  --live_;
}

void FlowTable::rehash(std::size_t new_capacity) {
  std::vector<std::uint8_t> old_tags;
  std::vector<FiveTuple> old_keys;
  std::vector<Flow> old_flows;
  old_tags.swap(tags_);
  old_keys.swap(keys_);
  old_flows.swap(flows_);
  tags_.assign(new_capacity, 0);
  keys_.resize(new_capacity);
  flows_.resize(new_capacity);
  mask_ = new_capacity - 1;
  for (std::size_t s = 0; s < old_tags.size(); ++s) {
    if (old_tags[s] == 0) continue;
    const std::uint64_t hash = hash_of(old_keys[s]);
    std::size_t i = hash & mask_;
    while (tags_[i] != 0) i = (i + 1) & mask_;
    tags_[i] = old_tags[s];
    keys_[i] = old_keys[s];
    flows_[i] = old_flows[s];
  }
  if (!wheel_active_ && new_capacity > kScanSweepMaxSlots) {
    // The arena outgrew the dense-scan sweep: switch to the wheel and arm
    // every live flow. Deadlines already due are clamped to the cursor's
    // bucket so the next sweep still visits them.
    wheel_active_ = true;
    cursor_ = bucket_of(clock_);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != 0) {
        push_expiry(flows_[i].expiry_deadline, flows_[i].id, keys_[i], hash_of(keys_[i]));
      }
    }
  }
}

util::Duration FlowTable::timeout_for(Protocol protocol) const noexcept {
  return protocol == Protocol::Tcp ? config_.tcp_idle_timeout : config_.udp_idle_timeout;
}

void FlowTable::push_expiry(util::Timestamp deadline, std::uint64_t id, const FiveTuple& key,
                            std::uint64_t hash) {
  // max() guards the scan->wheel transition, where a flow's deadline can
  // already lie behind the cursor; everywhere else bucket_of(deadline) wins.
  const std::uint64_t bucket = std::max(bucket_of(deadline), cursor_);
  wheel_[bucket & wheel_mask_].push_back(ExpiryEntry{deadline, id, hash, key});
  ++wheel_entries_;
}

FlowTable::Probe FlowTable::make_probe(const PacketRecord& packet) const noexcept {
  // Canonicalize the packet's orientation so the flow lives under exactly one
  // key and the lookup is one hash + one probe (a flow matches packets in
  // both directions, so the canonical key must be a function of the
  // unordered endpoint pair — monitored host as source, with the rare
  // self-flow tie broken lexicographically). The selection is branchless on
  // the packed fields: packet direction is data-dependent, so branching on
  // it mispredicts on a large fraction of packets.
  const FiveTuple& t = packet.tuple;
  std::uint64_t ips = 0;
  std::uint32_t ports = 0;
  std::memcpy(&ips, &t, 8);
  std::memcpy(&ports, &t.src_port, 4);
  bool packet_is_canonical = t.src_ip == monitored_;
  if (t.src_ip == t.dst_ip) [[unlikely]] {
    // Self-flow: both orientations name the monitored host; tie-break
    // lexicographically so both directions agree on one canonical key.
    packet_is_canonical = (std::min(t, t.reversed()) == t);
  }
  const std::uint64_t c_ips = packet_is_canonical ? ips : (ips >> 32) | (ips << 32);
  const std::uint32_t c_ports = packet_is_canonical ? ports : (ports >> 16) | (ports << 16);
  Probe probe;
  probe.canon = t;
  std::memcpy(static_cast<void*>(&probe.canon), &c_ips, 8);
  std::memcpy(&probe.canon.src_port, &c_ports, 4);
  probe.hash = hash_raw(c_ips, c_ports, static_cast<std::uint8_t>(t.protocol));
  probe.packet_is_canonical = packet_is_canonical;
  return probe;
}

void FlowTable::process(const PacketRecord& packet) { process_one(packet, make_probe(packet)); }

void FlowTable::process_one(const PacketRecord& packet, const Probe& probe) {
  const FiveTuple& t = packet.tuple;
  MONOHIDS_EXPECT(t.src_ip == monitored_ || t.dst_ip == monitored_,
                  "packet does not involve the monitored host");
  MONOHIDS_EXPECT(packet.timestamp >= clock_, "packets must be time-ordered");
  clock_ = packet.timestamp;
  ++stats_.packets_processed;

  const std::uint8_t flags = static_cast<std::uint8_t>(packet.tcp_flags);
  const bool is_tcp = t.protocol == Protocol::Tcp;
  constexpr std::uint8_t kSynAck =
      static_cast<std::uint8_t>(TcpFlags::Syn) | static_cast<std::uint8_t>(TcpFlags::Ack);
  const bool is_syn = is_tcp && (flags & kSynAck) == static_cast<std::uint8_t>(TcpFlags::Syn);
  stats_.syn_packets += is_syn;

  if (packet.timestamp - last_sweep_ >= config_.sweep_interval) sweep(packet.timestamp);

  const bool packet_is_canonical = probe.packet_is_canonical;
  const FiveTuple& canon = probe.canon;
  const std::uint64_t hash = probe.hash;
  const std::size_t idx = find_slot(canon, hash);

  if (idx == kNpos) {
    // New flow. For TCP we require a SYN to open a connection; stray non-SYN
    // TCP packets (e.g. late FINs of evicted flows) are counted but do not
    // create a connection Start.
    if (is_tcp && !is_syn) return;
    const std::size_t slot = insert_slot(canon, hash);
    Flow& flow = flows_[slot];
    flow.first_seen = packet.timestamp;
    flow.last_seen = packet.timestamp;
    flow.expiry_deadline = packet.timestamp + timeout_for(t.protocol);
    flow.packets = 1;
    flow.id = ++stats_.flows_created;
    flow.initiated_by_monitored = (t.src_ip == monitored_);
    flow.initiator_is_canonical = packet_is_canonical;
    flow.tcp_state = TcpState::SynSent;
    flow.fin_from_initiator = false;
    flow.fin_from_responder = false;
    if (wheel_active_) push_expiry(flow.expiry_deadline, flow.id, canon, hash);
    events_.push_back(FlowEvent{packet.timestamp, t, FlowEventKind::Start,
                                FlowEndReason::None, flow.initiated_by_monitored, 0});
    return;
  }

  Flow& flow = flows_[idx];
  const bool from_initiator = (packet_is_canonical == flow.initiator_is_canonical);
  flow.last_seen = packet.timestamp;
  flow.expiry_deadline = packet.timestamp + timeout_for(t.protocol);
  ++flow.packets;

  if (!is_tcp) return;

  if (flags & static_cast<std::uint8_t>(TcpFlags::Rst)) {
    const FiveTuple key = initiator_tuple(keys_[idx], flow);
    const Flow ended = flow;
    erase_slot(idx);
    ++stats_.flows_ended_rst;
    end_flow(key, ended, packet.timestamp, FlowEndReason::Rst);
    return;
  }

  // The state/FIN updates are written as unconditional selects: which flags
  // a packet carries is data-dependent, so branching on them mispredicts.
  const bool ack = (flags & static_cast<std::uint8_t>(TcpFlags::Ack)) != 0;
  if (flow.tcp_state == TcpState::SynSent && ack) flow.tcp_state = TcpState::Established;

  const bool fin = (flags & static_cast<std::uint8_t>(TcpFlags::Fin)) != 0;
  flow.tcp_state = fin ? TcpState::FinSeen : flow.tcp_state;
  flow.fin_from_initiator = flow.fin_from_initiator || (fin && from_initiator);
  flow.fin_from_responder = flow.fin_from_responder || (fin && !from_initiator);
  if (flow.fin_from_initiator && flow.fin_from_responder) {
    const FiveTuple key = initiator_tuple(keys_[idx], flow);
    const Flow ended = flow;
    erase_slot(idx);
    ++stats_.flows_ended_fin;
    end_flow(key, ended, packet.timestamp, FlowEndReason::Fin);
  }
}

#if defined(__GNUC__)
[[gnu::flatten]]
#endif
void FlowTable::process_batch(std::span<const PacketRecord> batch) {
  // Two regimes, switched on arena size (it can change mid-batch):
  //   - small arena (dense-scan sweep sizes): everything is cache-resident,
  //     so the straight fused loop wins — no stash traffic, full inlining;
  //   - large arena: probes (canonical key + hash) are pure in the packet,
  //     so compute a group ahead and prefetch each packet's home slot before
  //     the serial pass; without this every find_slot eats the L2/L3 miss
  //     latency serially. Preceding table mutations may shift a probed slot
  //     (rehash, backward-shift); the prefetch is a hint, find_slot decides.
  constexpr std::size_t kGroup = 16;
  Probe probes[kGroup];
  std::size_t at = 0;
  while (at < batch.size()) {
    if (tags_.size() <= kScanSweepMaxSlots) {
      process_one(batch[at], make_probe(batch[at]));
      ++at;
      continue;
    }
    const std::size_t n = std::min(kGroup, batch.size() - at);
    for (std::size_t j = 0; j < n; ++j) {
      const Probe probe = make_probe(batch[at + j]);
      const std::size_t home = probe.hash & mask_;
      __builtin_prefetch(&tags_[home]);
      __builtin_prefetch(&keys_[home]);
      __builtin_prefetch(&flows_[home]);
      probes[j] = probe;
    }
    for (std::size_t j = 0; j < n; ++j) process_one(batch[at + j], probes[j]);
    at += n;
  }
}

void FlowTable::advance_to(util::Timestamp now) {
  MONOHIDS_EXPECT(now >= clock_, "clock cannot move backwards");
  clock_ = now;
  sweep(now);
}

void FlowTable::flush(util::Timestamp now) {
  MONOHIDS_EXPECT(now >= clock_, "clock cannot move backwards");
  clock_ = now;
  ended_scratch_.clear();
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] != 0) {
      ended_scratch_.emplace_back(initiator_tuple(keys_[i], flows_[i]), flows_[i]);
    }
  }
  // All flush events carry the same timestamp; ascending tuple order keeps
  // the emission deterministic regardless of slot layout.
  std::sort(ended_scratch_.begin(), ended_scratch_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, flow] : ended_scratch_) {
    ++stats_.flows_ended_flush;
    end_flow(key, flow, now, FlowEndReason::Flush);
  }
  std::fill(tags_.begin(), tags_.end(), std::uint8_t{0});
  live_ = 0;
  for (auto& bucket : wheel_) bucket.clear();
  wheel_entries_ = 0;
  cursor_ = bucket_of(now);
  publish_metrics();
}

void FlowTable::publish_metrics() {
  if constexpr (!obs::kEnabled) return;
  FlowMetrics& m = flow_metrics();
  m.packets.add(stats_.packets_processed - stats_published_.packets_processed);
  m.flows_created.add(stats_.flows_created - stats_published_.flows_created);
  m.ended_fin.add(stats_.flows_ended_fin - stats_published_.flows_ended_fin);
  m.ended_rst.add(stats_.flows_ended_rst - stats_published_.flows_ended_rst);
  m.ended_timeout.add(stats_.flows_ended_timeout - stats_published_.flows_ended_timeout);
  m.ended_flush.add(stats_.flows_ended_flush - stats_published_.flows_ended_flush);
  m.syn_packets.add(stats_.syn_packets - stats_published_.syn_packets);
  m.insert_probe_slots.add(obs_accum_.insert_probe_slots -
                           obs_published_.insert_probe_slots);
  m.sweeps_scan.add(obs_accum_.sweeps_scan - obs_published_.sweeps_scan);
  m.sweeps_wheel.add(obs_accum_.sweeps_wheel - obs_published_.sweeps_wheel);
  m.wheel_rearms.add(obs_accum_.wheel_rearms - obs_published_.wheel_rearms);
  m.wheel_orphans.add(obs_accum_.wheel_orphans - obs_published_.wheel_orphans);
  m.flushes.inc();
  m.peak_live.observe(static_cast<double>(stats_.max_live_flows));
  stats_published_ = stats_;
  obs_published_ = obs_accum_;
}

void FlowTable::sweep(util::Timestamp now) {
  if (now - last_sweep_ < config_.sweep_interval) return;
  last_sweep_ = now;
  if (wheel_active_) {
    sweep_wheel(now);
  } else {
    sweep_scan(now);
  }
}

void FlowTable::sweep_scan(util::Timestamp now) {
  if constexpr (obs::kEnabled) ++obs_accum_.sweeps_scan;
  if (live_ == 0) return;
  ended_scratch_.clear();
  expired_keys_.clear();
  // Dense tag scan, eight slots per load; only occupied slots (high tag bit
  // set) have their flow deadline checked. The whole tag array is a few
  // cache lines at this arena size, so this beats per-flow expiry entries.
  constexpr std::uint64_t kOccupied = 0x8080808080808080ULL;
  const std::size_t words = tags_.size() / 8;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word;
    std::memcpy(&word, tags_.data() + w * 8, 8);
    word &= kOccupied;
    while (word != 0) {
      const std::size_t i = w * 8 + static_cast<std::size_t>(std::countr_zero(word)) / 8;
      word &= word - 1;
      const Flow& flow = flows_[i];
      if (flow.expiry_deadline <= now) {
        ended_scratch_.emplace_back(initiator_tuple(keys_[i], flow), flow);
        expired_keys_.push_back(keys_[i]);
      }
    }
  }
  // Erase after the scan: backward-shift deletion moves slots around, so
  // erasing mid-scan could revisit or skip entries.
  for (const FiveTuple& key : expired_keys_) erase_slot(find_slot(key));
  emit_timeouts(now);
}

void FlowTable::sweep_wheel(util::Timestamp now) {
  if constexpr (obs::kEnabled) ++obs_accum_.sweeps_wheel;
  const std::uint64_t target = bucket_of(now);
  if (wheel_entries_ == 0) {
    cursor_ = target;
    return;
  }

  ended_scratch_.clear();
  // Wheel entries sit cold in their buckets while their flows' slots may be
  // anywhere in the arena; prefetching a few entries ahead (stored hash →
  // home slot) overlaps those misses with the serial resolve pass.
  constexpr std::size_t kAhead = 8;
  const auto prefetch_entry = [&](const ExpiryEntry& entry) {
    const std::size_t home = entry.hash & mask_;
    __builtin_prefetch(&tags_[home]);
    __builtin_prefetch(&keys_[home]);
    __builtin_prefetch(&flows_[home]);
  };
  // Resolves one wheel entry against the table. Returns true when the entry
  // leaves its bucket: the flow is gone (orphan entry), expires now, or (if
  // `rearm`) was pushed to the bucket of its advanced deadline.
  const auto resolve = [&](const ExpiryEntry& entry, bool rearm) -> bool {
    const std::size_t idx = find_slot(entry.key, entry.hash);
    if (idx == kNpos || flows_[idx].id != entry.id) {
      if constexpr (obs::kEnabled) ++obs_accum_.wheel_orphans;
      return true;  // flow already gone
    }
    Flow& flow = flows_[idx];
    if (flow.expiry_deadline <= now) {
      // now - last_seen >= timeout: the flow idles out in this sweep.
      ended_scratch_.emplace_back(initiator_tuple(keys_[idx], flow), flow);
      erase_slot(idx);
      return true;
    }
    // The flow saw traffic since this entry was armed; its deadline moved to
    // a strictly future bucket.
    if (rearm) {
      if constexpr (obs::kEnabled) ++obs_accum_.wheel_rearms;
      push_expiry(flow.expiry_deadline, flow.id, entry.key, entry.hash);
    }
    return rearm;
  };
  // Compacts a bucket in place, keeping entries whose flows are still live.
  const auto resolve_in_place = [&](std::vector<ExpiryEntry>& bucket) {
    std::size_t keep = 0;
    for (std::size_t j = 0; j < bucket.size(); ++j) {
      if (j + kAhead < bucket.size()) prefetch_entry(bucket[j + kAhead]);
      const ExpiryEntry entry = bucket[j];
      if (!resolve(entry, /*rearm=*/false)) bucket[keep++] = entry;
    }
    wheel_entries_ -= bucket.size() - keep;
    bucket.resize(keep);
  };

  if (target - cursor_ > wheel_mask_) {
    // Idle gap longer than the wheel span. No sweep ran for over the longest
    // timeout, so every armed deadline is already due; one pass over the
    // ring resolves everything without the cursor walking the gap.
    for (auto& bucket : wheel_) resolve_in_place(bucket);
  } else {
    for (; cursor_ < target; ++cursor_) {
      auto& bucket = wheel_[cursor_ & wheel_mask_];
      // A rearm can alias back into this very bucket when the walk gap plus
      // the timeout spans the ring, so only the first `n` entries belong to
      // this pass — appended ones wait a full revolution (entries are copied
      // out because push_expiry may reallocate the bucket mid-walk).
      const std::size_t n = bucket.size();
      for (std::size_t j = 0; j < n; ++j) {
        if (j + kAhead < n) prefetch_entry(bucket[j + kAhead]);
        const ExpiryEntry entry = bucket[j];
        resolve(entry, /*rearm=*/true);
      }
      wheel_entries_ -= n;
      bucket.erase(bucket.begin(), bucket.begin() + static_cast<std::ptrdiff_t>(n));
    }
    // The bucket containing `now` may hold deadlines still in the future;
    // compact it in place and leave the cursor on it for the next sweep.
    resolve_in_place(wheel_[target & wheel_mask_]);
  }
  cursor_ = target;
  emit_timeouts(now);
}

void FlowTable::emit_timeouts(util::Timestamp now) {
  // Deterministic emission: (expiry deadline, tuple), never wheel/hash order.
  std::sort(ended_scratch_.begin(), ended_scratch_.end(),
            [](const auto& a, const auto& b) {
              if (a.second.expiry_deadline != b.second.expiry_deadline) {
                return a.second.expiry_deadline < b.second.expiry_deadline;
              }
              return a.first < b.first;
            });
  for (const auto& [key, flow] : ended_scratch_) {
    ++stats_.flows_ended_timeout;
    end_flow(key, flow, now, FlowEndReason::IdleTimeout);
  }
}

void FlowTable::end_flow(const FiveTuple& key, const Flow& flow, util::Timestamp at,
                         FlowEndReason reason) {
  events_.push_back(FlowEvent{at, key, FlowEventKind::End, reason,
                              flow.initiated_by_monitored, flow.packets});
}

std::vector<FlowEvent> FlowTable::drain_events() {
  std::vector<FlowEvent> out;
  out.swap(events_);
  return out;
}

}  // namespace monohids::net
