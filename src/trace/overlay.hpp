// Attack overlay: the paper's additive threat model g + b.
//
// The botmaster's traffic adds to whatever the user generates; these
// helpers overlay an attack series b on a user series g, tiling b if the
// user trace is longer than the attack (the Fig. 5 Storm replay adds a
// one-week zombie footprint to multi-week user traces).
#pragma once

#include "features/time_series.hpp"

namespace monohids::trace {

/// Adds attack series b (possibly shorter) onto user series g, tiling b
/// periodically to cover g's horizon — the paper replays the one-week Storm
/// trace over multi-week user traces.
[[nodiscard]] features::BinnedSeries overlay_tiled(const features::BinnedSeries& user,
                                                   const features::BinnedSeries& attack);

/// Tiled overlay across all six features.
[[nodiscard]] features::FeatureMatrix overlay_tiled(const features::FeatureMatrix& user,
                                                    const features::FeatureMatrix& attack);

}  // namespace monohids::trace
