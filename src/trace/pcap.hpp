// libpcap-format trace export/import.
//
// write_pcap() renders PacketRecords as a classic pcap file (Ethernet II /
// IPv4 / TCP|UDP|ICMP with correct lengths and valid IPv4 header and
// TCP/UDP/ICMP checksums), so a synthetic enterprise trace opens directly
// in Wireshark/tcpdump with no "checksum error" noise;
// read_pcap() parses real captures (either byte order, micro- or
// nanosecond timestamps) back into PacketRecords, so the whole pipeline —
// flow table, features, policies — runs on actual traffic without any
// conversion step. Non-IPv4 frames are counted and skipped.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "features/pipeline.hpp"
#include "net/packet.hpp"

namespace monohids::trace {

/// Import statistics alongside the parsed packets.
struct PcapReadResult {
  std::vector<net::PacketRecord> packets;
  std::uint64_t packet_count = 0;       ///< parsed packets (== packets.size() for read_pcap)
  std::uint64_t skipped_non_ipv4 = 0;   ///< other ethertype, or not a well-formed IPv4 header
  std::uint64_t skipped_protocol = 0;   ///< IPv4 but not TCP/UDP/ICMP
  std::uint64_t truncated = 0;          ///< snaplen cut into the headers
  bool nanosecond_timestamps = false;
  bool byte_swapped = false;
  /// Only set by stream_pcap_recovering: the diagnostic of the mid-stream
  /// fault that stopped the import early (empty = clean EOF).
  std::string stream_error;
};

/// Writes a pcap file (linktype Ethernet, microsecond timestamps).
/// Payload bytes are rendered as zeros — headers carry all the information
/// the study uses. Timestamps are microseconds from trace start.
void write_pcap(std::ostream& out, const std::vector<net::PacketRecord>& packets);

/// Parses a pcap stream. Throws InputError on malformed files; tolerates
/// unknown upper protocols by skipping (counted in the result).
///
/// All three readers decode the headers in place, from one of two sources:
///  - A regular file behind exactly a std::filebuf (what std::ifstream
///    holds; not a subclass, which may transform its bytes) is mapped
///    read-only from the stream's current position. Its size is fixed when
///    the reader starts: bytes appended later are not read. A file that
///    another process truncates while it is read can raise SIGBUS; the live
///    daemon's on_batch/offer path never maps anything.
///  - Any other stream buffer (pipes, stdin, string streams, and a file the
///    mapping fails on) is read through `in.rdbuf()` in blocks of 64 KiB,
///    or one record, if larger.
/// After they return or throw, the stream's position is unspecified (it may
/// be anywhere from where it stood to past the last record parsed) and none
/// of its state flags are set: nothing may read the stream past the
/// capture. A stream that is not good() on entry reads as empty.
[[nodiscard]] PcapReadResult read_pcap(std::istream& in);

/// Streaming form of read_pcap: pushes parsed packets into `sink` in batches
/// of at most `max_batch`, so importing a multi-gigabyte capture never
/// materializes it. The returned result carries the import statistics with
/// `packets` left empty (`packet_count` holds the parsed total). Same
/// validation and skip behavior as read_pcap.
PcapReadResult stream_pcap(std::istream& in, features::PacketSink& sink,
                           std::size_t max_batch = features::kDefaultIngestBatch);

/// Fault-tolerant stream_pcap for long-running consumers (the live daemon):
/// a truncated or corrupt record mid-stream stops the import gracefully
/// instead of throwing — every packet parsed before the fault is still
/// flushed to `sink`, and the diagnostic lands in the result's
/// `stream_error` field. A capture whose global header is already
/// malformed (bad magic, unsupported linktype, truncated header) throws
/// InputError exactly like stream_pcap: there is nothing to recover.
PcapReadResult stream_pcap_recovering(std::istream& in, features::PacketSink& sink,
                                      std::size_t max_batch = features::kDefaultIngestBatch);

/// RFC 1071 checksum over a 16-bit-aligned header (exposed for tests).
[[nodiscard]] std::uint16_t ipv4_header_checksum(const std::uint8_t* header,
                                                 std::size_t length);

/// RFC 1071 checksum of a TCP (protocol 6) or UDP (protocol 17) segment with
/// the IPv4 pseudo-header prepended (exposed for tests). `segment` spans the
/// transport header plus payload; odd lengths are zero-padded per the RFC.
/// Callers writing UDP must map a computed 0 to 0xFFFF on the wire.
[[nodiscard]] std::uint16_t ipv4_transport_checksum(net::Ipv4Address src,
                                                    net::Ipv4Address dst,
                                                    std::uint8_t protocol,
                                                    const std::uint8_t* segment,
                                                    std::size_t length);

/// RFC 1071 checksum over an ICMP message (no pseudo-header).
[[nodiscard]] std::uint16_t icmp_checksum(const std::uint8_t* message,
                                          std::size_t length);

}  // namespace monohids::trace
