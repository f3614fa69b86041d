// Binned feature time series.
//
// A BinnedSeries is a per-host count of one feature over fixed-width time
// bins — each bin value is one sample of the host's distribution P(g_i^j).
// Week slicing supports the paper's train-on-week-k / test-on-week-k+1
// methodology; a FeatureMatrix bundles the six series of one host.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "features/feature.hpp"
#include "util/error.hpp"
#include "util/sim_time.hpp"

namespace monohids::features {

class BinnedSeries {
 public:
  BinnedSeries() : grid_(util::BinGrid::minutes(15)) {}

  /// Zero-initialized series covering [0, horizon) with the given grid.
  BinnedSeries(util::BinGrid grid, util::Duration horizon);

  [[nodiscard]] util::BinGrid grid() const noexcept { return grid_; }
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] util::Duration horizon() const noexcept {
    return counts_.size() * grid_.width();
  }

  /// Adds `amount` to the bin containing `t`. `t` must be inside the horizon.
  /// Defined inline: this is the feature pipeline's per-event hot path.
  void add_at(util::Timestamp t, double amount = 1.0) {
    const std::uint64_t bin = grid_.bin_of(t);
    MONOHIDS_EXPECT(bin < counts_.size(), "timestamp beyond series horizon");
    counts_[bin] += amount;
  }

  /// Adds `amount` to bin `bin` (a grid().bin_of() result). Hot-path variant
  /// for callers that already derived the bin and add to several series.
  void add_bin(std::uint64_t bin, double amount = 1.0) {
    MONOHIDS_EXPECT(bin < counts_.size(), "timestamp beyond series horizon");
    counts_[bin] += amount;
  }

  /// Direct bin access.
  [[nodiscard]] double at(std::size_t bin) const;
  void set(std::size_t bin, double value);

  [[nodiscard]] std::span<const double> values() const noexcept { return counts_; }

  /// Mutable bin storage for bulk writers (the trace generator
  /// widens SoA staging buffers straight into it). Same layout as values().
  [[nodiscard]] std::span<double> values_mut() noexcept { return counts_; }

  /// Bins overlapping week `w` (empty if the week is past the horizon).
  [[nodiscard]] std::span<const double> week_slice(std::uint32_t week) const;

  /// Number of whole weeks covered by the horizon.
  [[nodiscard]] std::uint32_t week_count() const noexcept;

  /// Element-wise sum with another series on the same grid/horizon — this is
  /// the paper's additive attack overlay: observed = g + b.
  [[nodiscard]] BinnedSeries operator+(const BinnedSeries& other) const;

 private:
  util::BinGrid grid_;
  std::vector<double> counts_;
};

/// The six feature series of one monitored host.
struct FeatureMatrix {
  std::array<BinnedSeries, kFeatureCount> series;

  [[nodiscard]] const BinnedSeries& of(FeatureKind f) const { return series[index_of(f)]; }
  [[nodiscard]] BinnedSeries& of(FeatureKind f) { return series[index_of(f)]; }
};

}  // namespace monohids::features
