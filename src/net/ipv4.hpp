// IPv4 addresses.
//
// The trace substrate addresses hosts the way the original study's packet
// headers did: end hosts live in an enterprise /16, servers and attack
// destinations live in public ranges. Addresses are value types over a
// host-order uint32.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace monohids::net {

/// An IPv4 address (host byte order internally).
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  explicit constexpr Ipv4Address(std::uint32_t host_order) noexcept : value_(host_order) {}

  /// Builds from dotted octets, e.g. Ipv4Address::from_octets(10, 1, 2, 3).
  static constexpr Ipv4Address from_octets(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                                           std::uint8_t d) noexcept {
    return Ipv4Address((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                       (std::uint32_t{c} << 8) | std::uint32_t{d});
  }

  /// Parses dotted-quad text; throws InputError on malformed input.
  static Ipv4Address parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return value_; }
  [[nodiscard]] constexpr std::uint8_t octet(int i) const noexcept {
    return static_cast<std::uint8_t>(value_ >> (8 * (3 - i)));
  }

  /// Dotted-quad rendering, e.g. "10.1.2.3".
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

}  // namespace monohids::net

template <>
struct std::hash<monohids::net::Ipv4Address> {
  std::size_t operator()(monohids::net::Ipv4Address a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};
