// Seed pcap decoder: the test oracle for trace::read_pcap, stream_pcap and
// stream_pcap_recovering.
//
// The library pulls a capture through one reusable block and decodes every
// header in place. This is the record loop it replaced: four 4-byte
// std::istream::read calls per record header and a copy of each whole frame
// into a vector, then the same Ethernet/IPv4/L4 decode. It raises the same
// diagnostics at the same point of the stream and fills the same counters,
// so tests/trace/test_pcap_differential.cpp diffs the two on mutated,
// truncated and re-headered captures. Linked only by tests.
#pragma once

#include <iosfwd>

#include "trace/pcap.hpp"

namespace monohids::oracle {

/// Parses a pcap stream the seed way. Strict mode (`recover` false) throws
/// InputError like read_pcap; recovering mode keeps every packet parsed
/// before a mid-stream fault and stores its diagnostic in `stream_error`,
/// like stream_pcap_recovering. Either way `packets` holds the parsed
/// packets in stream order.
[[nodiscard]] trace::PcapReadResult parse_pcap_seed(std::istream& in, bool recover);

}  // namespace monohids::oracle
