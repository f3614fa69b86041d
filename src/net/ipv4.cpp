#include "net/ipv4.hpp"

#include <charconv>

#include "util/error.hpp"

namespace monohids::net {

Ipv4Address Ipv4Address::parse(std::string_view text) {
  std::uint32_t value = 0;
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      MONOHIDS_ENSURE(pos < text.size() && text[pos] == '.',
                      "malformed IPv4 address: " + std::string(text));
      ++pos;
    }
    unsigned octet = 0;
    const auto* begin = text.data() + pos;
    const auto* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(begin, end, octet);
    MONOHIDS_ENSURE(ec == std::errc{} && ptr != begin && octet <= 255,
                    "malformed IPv4 address: " + std::string(text));
    value = (value << 8) | octet;
    pos = static_cast<std::size_t>(ptr - text.data());
  }
  MONOHIDS_ENSURE(pos == text.size(), "trailing characters in IPv4 address: " + std::string(text));
  return Ipv4Address(value);
}

std::string Ipv4Address::to_string() const {
  std::string out;
  out.reserve(15);
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(octet(i));
  }
  return out;
}

}  // namespace monohids::net
