#include "trace/overlay.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace monohids::trace {
namespace {

using features::BinnedSeries;
using features::FeatureKind;
using features::FeatureMatrix;
using util::BinGrid;
using util::kMicrosPerWeek;

BinnedSeries series_with(std::initializer_list<std::pair<std::size_t, double>> values,
                         util::Duration horizon = kMicrosPerWeek) {
  BinnedSeries s(BinGrid::minutes(15), horizon);
  for (auto [bin, v] : values) s.set(bin, v);
  return s;
}

TEST(Overlay, TiledRepeatsShorterAttack) {
  // user trace: 2 weeks; attack: 1 week.
  BinnedSeries user(BinGrid::minutes(15), 2 * kMicrosPerWeek);
  BinnedSeries attack(BinGrid::minutes(15), kMicrosPerWeek);
  attack.set(5, 7.0);
  const auto observed = overlay_tiled(user, attack);
  EXPECT_DOUBLE_EQ(observed.at(5), 7.0);
  EXPECT_DOUBLE_EQ(observed.at(672 + 5), 7.0);  // tiled into week 2
  EXPECT_DOUBLE_EQ(observed.at(6), 0.0);
}

TEST(Overlay, TiledMatrixAppliesAllFeatures) {
  FeatureMatrix user, attack;
  for (auto& s : user.series) s = BinnedSeries(BinGrid::minutes(15), kMicrosPerWeek);
  for (auto& s : attack.series) s = BinnedSeries(BinGrid::minutes(15), kMicrosPerWeek);
  attack.of(FeatureKind::UdpConnections).set(3, 100.0);
  user.of(FeatureKind::UdpConnections).set(3, 1.0);
  const auto observed = overlay_tiled(user, attack);
  EXPECT_DOUBLE_EQ(observed.of(FeatureKind::UdpConnections).at(3), 101.0);
  EXPECT_DOUBLE_EQ(observed.of(FeatureKind::TcpConnections).at(3), 0.0);
}

TEST(Overlay, MismatchedGridsAreAnError) {
  BinnedSeries user(BinGrid::minutes(15), kMicrosPerWeek);
  BinnedSeries attack(BinGrid::minutes(5), kMicrosPerWeek);
  EXPECT_THROW((void)overlay_tiled(user, attack), PreconditionError);
}

TEST(Overlay, AdditivityPreservesUserTraffic) {
  // The attacker only ever adds traffic: observed >= user everywhere.
  const auto g = series_with({{0, 3.0}, {7, 9.0}, {100, 1.0}});
  BinnedSeries b(BinGrid::minutes(15), kMicrosPerWeek);
  for (std::size_t i = 0; i < b.bin_count(); ++i) b.set(i, 20.0);
  const auto observed = overlay_tiled(g, b);
  for (std::size_t i = 0; i < g.bin_count(); ++i) {
    ASSERT_GE(observed.at(i), g.at(i));
  }
}

}  // namespace
}  // namespace monohids::trace
