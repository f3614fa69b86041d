#include "net/ipv4.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "util/error.hpp"

namespace monohids::net {
namespace {

TEST(Ipv4Address, OctetConstructionAndFormatting) {
  const auto a = Ipv4Address::from_octets(10, 1, 2, 3);
  EXPECT_EQ(a.to_string(), "10.1.2.3");
  EXPECT_EQ(a.octet(0), 10);
  EXPECT_EQ(a.octet(3), 3);
  EXPECT_EQ(a.value(), 0x0A010203u);
}

TEST(Ipv4Address, ParseRoundTrip) {
  for (const char* text : {"0.0.0.0", "255.255.255.255", "192.168.1.1", "8.8.8.8"}) {
    EXPECT_EQ(Ipv4Address::parse(text).to_string(), text);
  }
}

TEST(Ipv4Address, ParseRejectsMalformedInput) {
  for (const char* text : {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.x", "a.b.c.d",
                           "1..2.3", "1.2.3.4 "}) {
    EXPECT_THROW((void)Ipv4Address::parse(text), InputError) << text;
  }
}

TEST(Ipv4Address, OrderingFollowsNumericValue) {
  EXPECT_LT(Ipv4Address::parse("1.0.0.0"), Ipv4Address::parse("2.0.0.0"));
  EXPECT_LT(Ipv4Address::parse("10.0.0.1"), Ipv4Address::parse("10.0.1.0"));
  EXPECT_EQ(Ipv4Address::parse("5.5.5.5"), Ipv4Address::from_octets(5, 5, 5, 5));
}

TEST(Ipv4Address, HashableInUnorderedSet) {
  std::unordered_set<Ipv4Address> set;
  set.insert(Ipv4Address::parse("10.0.0.1"));
  set.insert(Ipv4Address::parse("10.0.0.1"));
  set.insert(Ipv4Address::parse("10.0.0.2"));
  EXPECT_EQ(set.size(), 2u);
}

}  // namespace
}  // namespace monohids::net
