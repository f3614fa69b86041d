// The benchmark's own packet load generator.
//
// Synthesizes one monitored host's multi-week traffic from a seed with its
// own RNG, so the bytes a workload reads depend only on this file and the
// seed — never on the library's trace generator, whose output later changes
// may legitimately alter. The traffic has the structure the live path
// depends on: TCP handshakes, data and FIN/RST teardowns, DNS-like UDP,
// ICMP echo, a diurnal and weekly rate, Zipf destination popularity, idle
// gaps longer than the flow table's timeouts, and an optional Storm zombie
// phase (SMTP relay fan-out plus UDP peer-to-peer chatter).
//
// Two sinks: a classic libpcap file (microsecond magic, Ethernet II / IPv4
// / TCP|UDP|ICMP with correct lengths and checksums, zero-filled payloads)
// and an in-memory PacketRecord stream. Both carry FNV-1a digests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace e2e {

/// Storm zombie behaviour, active in weeks [first_week, end_week).
struct StormLoad {
  std::uint32_t first_week = 0;
  std::uint32_t end_week = 0;  ///< == first_week: no zombie
  double p2p_probes_per_minute = 0.0;
  double p2p_reply_share = 0.3;
  std::uint32_t spam_waves_per_day = 0;
  double spam_wave_minutes = 0.0;
  double spam_relays_per_minute = 0.0;
  double spam_unanswered_share = 0.8;  ///< relays whose SYN gets no answer
};

struct LoadConfig {
  std::uint64_t seed = 42;
  std::uint32_t weeks = 5;
  monohids::net::Ipv4Address host = monohids::net::Ipv4Address::from_octets(10, 10, 0, 7);
  /// Benign session arrivals per hour at peak (weekday early afternoon).
  double sessions_per_hour = 240.0;
  StormLoad storm;

  [[nodiscard]] std::uint64_t horizon_us() const;
  [[nodiscard]] std::uint64_t storm_onset_us() const;
};

/// Shape statistics of one generated load.
struct LoadShape {
  std::uint64_t packets = 0;
  std::uint64_t tcp = 0;
  std::uint64_t udp = 0;
  std::uint64_t icmp = 0;
  std::uint64_t syn = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t file_bytes = 0;  ///< pcap bytes, headers included (0 unless written)
  std::uint64_t sessions = 0;
  std::uint64_t storm_packets = 0;
  std::uint64_t idle_gaps = 0;  ///< re-contacts after a gap longer than the flow timeout
  std::uint64_t stream_digest = 0;  ///< FNV-1a of the canonical 24-byte records
  std::uint64_t file_digest = 0;    ///< FNV-1a of the pcap bytes (0 unless written)
};

/// Generates the load in time order, handing each packet to `emit`.
LoadShape generate_load(const LoadConfig& config,
                        const std::function<void(const monohids::net::PacketRecord&)>& emit);

/// The load as an in-memory stream.
std::vector<monohids::net::PacketRecord> generate_stream(const LoadConfig& config,
                                                         LoadShape& shape);

/// Writes the load as a pcap file at `path`. Throws std::runtime_error when
/// the file cannot be written.
LoadShape write_pcap_file(const LoadConfig& config, const std::string& path);

}  // namespace e2e
