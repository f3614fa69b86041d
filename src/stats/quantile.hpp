// Exact quantile computation.
//
// The paper's threshold heuristics are defined on empirical percentiles
// (99th, 99.9th). Two estimators are provided:
//   - nearest-rank: the classical inverse-CDF definition used when a
//     threshold must be an actually-observed value, and
//   - linear interpolation (R-7 / NumPy default): used where a smooth value
//     is preferable (e.g. plotting).
#pragma once

#include <span>

namespace monohids::stats {

/// Nearest-rank quantile: smallest sample value x such that at least
/// ceil(q * n) samples are <= x. `q` in [0, 1]; `sorted` must be ascending
/// and non-empty.
[[nodiscard]] double quantile_nearest_rank_sorted(std::span<const double> sorted, double q);

/// Linear-interpolation quantile (type 7). Same preconditions.
[[nodiscard]] double quantile_interpolated_sorted(std::span<const double> sorted, double q);

/// Convenience: copies, sorts, and applies nearest-rank.
[[nodiscard]] double quantile_nearest_rank(std::span<const double> samples, double q);

}  // namespace monohids::stats
