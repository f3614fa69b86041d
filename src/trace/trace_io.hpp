// Trace persistence.
//
// Packet traces serialize to a compact binary format (magic + version +
// fixed-width records, little-endian) so generated traces can be archived
// and replayed, and to CSV for interoperability with external tools.
// Feature matrices serialize to CSV (one row per bin, one column per
// feature) — the same shape the paper's Bro post-processing produced.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "features/pipeline.hpp"
#include "features/time_series.hpp"
#include "net/packet.hpp"

namespace monohids::trace {

/// Binary packet-trace format version written by this library.
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/// Writes packets in the binary trace format.
void write_packet_trace(std::ostream& out, const std::vector<net::PacketRecord>& packets);

/// Reads a binary trace; throws InputError on malformed input.
[[nodiscard]] std::vector<net::PacketRecord> read_packet_trace(std::istream& in);

/// Streaming form of read_packet_trace: decodes records straight into `sink`
/// in batches of at most `max_batch` packets, so peak memory is bounded by
/// the batch size instead of the trace length. Returns the packet count.
std::uint64_t stream_packet_trace(std::istream& in, features::PacketSink& sink,
                                  std::size_t max_batch = features::kDefaultIngestBatch);

/// Writes packets as CSV with a header row
/// (timestamp_us,src,dst,sport,dport,proto,flags,payload).
void write_packet_csv(std::ostream& out, const std::vector<net::PacketRecord>& packets);

/// Reads the packet-CSV format back (header required on the first line,
/// fields as written by write_packet_csv; protocol accepts
/// "tcp"/"udp"/"icmp"; multi-line quoted fields are not supported — the
/// packet CSV shape never produces them). This is the import path for
/// external traces — convert a pcap with tshark/tcpdump to this CSV shape
/// and the whole pipeline (flows, features, policies) runs on real traffic.
/// Throws InputError on malformed rows and on a stream error mid-file.
[[nodiscard]] std::vector<net::PacketRecord> read_packet_csv(std::istream& in);

/// Streaming form of read_packet_csv: parses row by row into `sink` in
/// batches of at most `max_batch` packets. Same row loop, format and
/// validation as read_packet_csv. Returns the packet count.
std::uint64_t stream_packet_csv(std::istream& in, features::PacketSink& sink,
                                std::size_t max_batch = features::kDefaultIngestBatch);

/// Writes a feature matrix as CSV: bin_start_us then one column per feature.
void write_feature_csv(std::ostream& out, const features::FeatureMatrix& matrix);

/// Reads a feature-matrix CSV produced by write_feature_csv.
[[nodiscard]] features::FeatureMatrix read_feature_csv(std::istream& in, util::BinGrid grid);

}  // namespace monohids::trace
