#include "features/feature.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/error.hpp"

namespace monohids::features {
namespace {

TEST(Feature, TableOneHasSixFeatures) {
  EXPECT_EQ(kFeatureCount, 6u);
  EXPECT_EQ(kAllFeatures.size(), 6u);
}

TEST(Feature, IndicesAreDenseAndUnique) {
  std::set<std::size_t> indices;
  for (FeatureKind f : kAllFeatures) indices.insert(index_of(f));
  EXPECT_EQ(indices.size(), kFeatureCount);
  EXPECT_EQ(*indices.begin(), 0u);
  EXPECT_EQ(*indices.rbegin(), kFeatureCount - 1);
}

TEST(Feature, NamesMatchTableOne) {
  EXPECT_EQ(name_of(FeatureKind::DnsConnections), "num-DNS-connections");
  EXPECT_EQ(name_of(FeatureKind::TcpConnections), "num-TCP-connections");
  EXPECT_EQ(name_of(FeatureKind::TcpSyn), "num-TCP-SYN");
  EXPECT_EQ(name_of(FeatureKind::HttpConnections), "num-HTTP-connections");
  EXPECT_EQ(name_of(FeatureKind::DistinctConnections), "num-distinct-connections");
  EXPECT_EQ(name_of(FeatureKind::UdpConnections), "num-UDP-connections");
}

TEST(Feature, ParseInvertsName) {
  for (FeatureKind f : kAllFeatures) {
    EXPECT_EQ(parse_feature(name_of(f)), f);
  }
}

TEST(Feature, ParseRejectsUnknownNames) {
  EXPECT_THROW((void)parse_feature("num-ICMP-connections"), InputError);
  EXPECT_THROW((void)parse_feature(""), InputError);
}

}  // namespace
}  // namespace monohids::features
