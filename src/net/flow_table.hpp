// Connection tracking.
//
// Bro turns packets into connections before any feature is counted; this
// flow table is our equivalent. It consumes a time-ordered packet stream
// observed at one end host and emits FlowEvents:
//   - Start: a new connection attempt was initiated (TCP SYN creating a new
//     flow, or the first packet of a new UDP/ICMP flow),
//   - End: the flow terminated (TCP FIN/RST or idle timeout).
// The six study features are all counters over Start events plus raw SYN
// packets, so correctness here decides feature fidelity.
//
// Internals are built for the streaming ingest hot loop: flows live in an
// open-addressing, linear-probing slot arena (contiguous tag/key/flow
// arrays, backward-shift deletion, no per-flow node allocations; probes
// scan a one-byte tag array so misses rarely touch key storage), and idle
// expiry is driven by a timing wheel of (deadline, flow) entries so arming
// is O(1) and a sweep visits only buckets that are actually due instead of
// rescanning the whole table. Timeout and
// flush End events are emitted in a deterministic (expiry deadline, tuple)
// order that is independent of hash or insertion order, so the seed
// std::unordered_map tracker, kept as a test oracle in tests/oracle, emits
// byte-identical event streams.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"

namespace monohids::net {

enum class FlowEventKind : std::uint8_t { Start, End };

/// Why a flow ended (meaningful for End events). Flush marks flows closed
/// administratively at end-of-trace — they never idled out on their own,
/// so they are accounted separately from IdleTimeout.
enum class FlowEndReason : std::uint8_t { None, Fin, Rst, IdleTimeout, Flush };

struct FlowEvent {
  util::Timestamp timestamp = 0;
  FiveTuple tuple;  ///< oriented from the initiator
  FlowEventKind kind = FlowEventKind::Start;
  FlowEndReason end_reason = FlowEndReason::None;
  bool initiated_by_monitored_host = false;
  std::uint64_t packets = 0;  ///< total packets (both directions), End only

  friend constexpr bool operator==(const FlowEvent&, const FlowEvent&) noexcept = default;
};

struct FlowTableConfig {
  util::Duration tcp_idle_timeout = 5 * util::kMicrosPerMinute;
  util::Duration udp_idle_timeout = 1 * util::kMicrosPerMinute;
  /// How often expired flows are swept, in simulated time.
  util::Duration sweep_interval = 30 * util::kMicrosPerSecond;
  /// Pre-sizing hint: expected peak live-flow count. The slot arena is
  /// reserved up front so no rehash/regrow storm happens mid-trace; 0 keeps
  /// the small default initial table (current behavior).
  std::size_t expected_flows = 0;
};

struct FlowTableStats {
  std::uint64_t packets_processed = 0;
  std::uint64_t flows_created = 0;
  std::uint64_t flows_ended_fin = 0;
  std::uint64_t flows_ended_rst = 0;
  std::uint64_t flows_ended_timeout = 0;  ///< idle-timeout expiries only
  std::uint64_t flows_ended_flush = 0;    ///< closed by flush() at trace EOF
  std::uint64_t syn_packets = 0;   ///< raw SYN (non-SYN/ACK) packets seen
  std::uint64_t max_live_flows = 0;  ///< peak concurrent flows (occupancy)

  friend constexpr bool operator==(const FlowTableStats&,
                                   const FlowTableStats&) noexcept = default;
};

/// Tracks flows for a single monitored host.
class FlowTable {
 public:
  /// `monitored` is the end host whose HIDS this table serves; packets where
  /// neither endpoint is `monitored` are rejected (PreconditionError).
  FlowTable(Ipv4Address monitored, FlowTableConfig config = {});

  /// Processes one packet. Packets must be fed in non-decreasing timestamp
  /// order. Generated events accumulate until drain_events()/clear_events().
  void process(const PacketRecord& packet);

  /// Processes a time-ordered batch. Equivalent to calling process() per
  /// packet, but the loop lives inside the flow table's translation unit so
  /// the hot path inlines (this is the streaming ingest entry point).
  void process_batch(std::span<const PacketRecord> batch);

  /// Advances the clock without a packet (e.g. to the end of the trace) so
  /// idle flows time out.
  void advance_to(util::Timestamp now);

  /// Ends every remaining flow (trace EOF) with Flush reason; counted in
  /// stats().flows_ended_flush, not the idle-timeout stat. Events are
  /// emitted in ascending tuple order (deterministic).
  void flush(util::Timestamp now);

  /// Moves out accumulated events (in emission order) and clears the buffer.
  [[nodiscard]] std::vector<FlowEvent> drain_events();

  /// Zero-copy view of the accumulated events; pair with clear_events() to
  /// consume without per-packet vector churn (the streaming hot loop).
  [[nodiscard]] std::span<const FlowEvent> pending_events() const noexcept { return events_; }

  /// Clears the event buffer, keeping its capacity.
  void clear_events() noexcept { events_.clear(); }

  [[nodiscard]] const FlowTableStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t active_flows() const noexcept { return live_; }
  /// Current slot-arena size (power of two); exposed for occupancy tests.
  [[nodiscard]] std::size_t slot_capacity() const noexcept { return tags_.size(); }
  [[nodiscard]] Ipv4Address monitored() const noexcept { return monitored_; }

 private:
  enum class TcpState : std::uint8_t { SynSent, Established, FinSeen };

  struct Flow {
    util::Timestamp first_seen = 0;
    util::Timestamp last_seen = 0;
    util::Timestamp expiry_deadline = 0;  ///< last_seen + per-protocol timeout
    std::uint64_t packets = 0;
    std::uint64_t id = 0;  ///< creation ordinal; pairs wheel entries to flows
    bool initiated_by_monitored = false;
    /// True when the initiator sent the canonical orientation (see keys_);
    /// reconstructs the initiator-oriented tuple for End events.
    bool initiator_is_canonical = true;
    TcpState tcp_state = TcpState::SynSent;  // TCP only
    bool fin_from_initiator = false;
    bool fin_from_responder = false;
  };

  /// Lazy expiry-wheel entry: one live entry per flow, re-armed when the
  /// flow's deadline moved past the entry's (packets only bump the cached
  /// deadline; the wheel is touched again only when the stale entry is
  /// visited in its original bucket).
  struct ExpiryEntry {
    util::Timestamp deadline = 0;
    std::uint64_t id = 0;
    std::uint64_t hash = 0;  ///< hash_of(key), kept so sweeps can prefetch
    FiveTuple key;           ///< canonical orientation
  };

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// Precomputed canonical orientation + hash of one packet's tuple. Pure in
  /// the packet (table-independent), so process_batch can compute a group of
  /// probes ahead and prefetch their slots before the serial per-packet pass.
  struct Probe {
    FiveTuple canon;
    std::uint64_t hash = 0;
    bool packet_is_canonical = true;
  };

  [[nodiscard]] Probe make_probe(const PacketRecord& packet) const noexcept;
  void process_one(const PacketRecord& packet, const Probe& probe);

  [[nodiscard]] static std::uint64_t hash_of(const FiveTuple& key) noexcept;
  [[nodiscard]] std::size_t find_slot(const FiveTuple& key, std::uint64_t hash) const noexcept;
  [[nodiscard]] std::size_t find_slot(const FiveTuple& key) const noexcept {
    return find_slot(key, hash_of(key));
  }
  /// Inserts `key` (must be absent) and returns its slot index.
  std::size_t insert_slot(const FiveTuple& key, std::uint64_t hash);
  /// Backward-shift deletion: erases slot `index` without tombstones.
  void erase_slot(std::size_t index);
  void rehash(std::size_t new_capacity);

  [[nodiscard]] util::Duration timeout_for(Protocol protocol) const noexcept;
  [[nodiscard]] std::uint64_t bucket_of(util::Timestamp at) const noexcept {
    return static_cast<std::uint64_t>(at) >> wheel_shift_;
  }
  /// Reconstructs the initiator-oriented tuple from a stored canonical key.
  [[nodiscard]] static FiveTuple initiator_tuple(const FiveTuple& key, const Flow& flow) {
    return flow.initiator_is_canonical ? key : key.reversed();
  }
  void push_expiry(util::Timestamp deadline, std::uint64_t id, const FiveTuple& key,
                   std::uint64_t hash);
  /// Publishes accumulated observability deltas (since the last publish) to
  /// the process metrics registry. Called from flush(); accumulation is
  /// plain member arithmetic so the packet hot path never touches atomics.
  void publish_metrics();
  void sweep(util::Timestamp now);
  void sweep_scan(util::Timestamp now);
  void sweep_wheel(util::Timestamp now);
  /// Emits the collected ended_scratch_ flows as IdleTimeout events in
  /// deterministic (expiry deadline, initiator tuple) order.
  void emit_timeouts(util::Timestamp now);
  void end_flow(const FiveTuple& key, const Flow& flow, util::Timestamp at,
                FlowEndReason reason);

  Ipv4Address monitored_;
  FlowTableConfig config_;
  // Open-addressing arena, power-of-two size, split into parallel arrays so
  // probing touches one byte per slot (tag 0 = empty, else 0x80 | hash bits)
  // and flow payloads load only on a confirmed hit. Keys are stored in a
  // canonical orientation (monitored host as source; self-flows use the
  // lexicographically smaller direction), so a lookup is one hash and one
  // probe instead of trying both packet orientations.
  std::vector<std::uint8_t> tags_;
  std::vector<FiveTuple> keys_;
  std::vector<Flow> flows_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  // Expiry timing wheel: ring of buckets, each `1 << wheel_shift_` micros of
  // deadline wide; the ring spans the largest idle timeout so an armed
  // deadline never aliases past the sweep cursor. The wheel only runs for
  // large arenas (capacity > kScanSweepMaxSlots); small arenas sweep by a
  // dense tag scan instead, which is cheaper than touching cold per-flow
  // wheel entries and needs no arming on the create path.
  std::vector<std::vector<ExpiryEntry>> wheel_;
  std::uint64_t wheel_mask_ = 0;
  std::uint32_t wheel_shift_ = 0;
  bool wheel_active_ = false;
  std::uint64_t cursor_ = 0;        ///< first wheel bucket not fully swept
  std::size_t wheel_entries_ = 0;   ///< live entries across all buckets
  std::vector<FiveTuple> expired_keys_;  ///< scan-sweep scratch (canonical)
  std::vector<std::pair<FiveTuple, Flow>> ended_scratch_;
  std::vector<FlowEvent> events_;
  FlowTableStats stats_;
  util::Timestamp last_sweep_ = 0;
  util::Timestamp clock_ = 0;

  /// Local observability accumulators (plain integers: each table is driven
  /// by one thread, and the values reach the shared registry only through
  /// publish_metrics()). `published_` mirrors what was already exported so
  /// repeated flushes publish deltas, never double-count.
  struct ObsAccum {
    std::uint64_t insert_probe_slots = 0;  ///< sum of insert displacements
    std::uint64_t sweeps_scan = 0;
    std::uint64_t sweeps_wheel = 0;
    std::uint64_t wheel_rearms = 0;
    std::uint64_t wheel_orphans = 0;  ///< entries whose flow was already gone
  };
  ObsAccum obs_accum_;
  ObsAccum obs_published_;
  FlowTableStats stats_published_;
};

}  // namespace monohids::net
