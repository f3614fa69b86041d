// Two-sample Kolmogorov-Smirnov statistic.
//
// The paper claims "tremendous natural diversity" across users; the KS
// statistic D = sup |F_a - F_b| makes that formal: D near 0 means two
// users' bin-count distributions are interchangeable, D near 1 means they
// barely overlap. fig1_tail_diversity reports the population's pairwise-D
// summary next to the threshold spread.
#pragma once

#include "stats/empirical.hpp"

namespace monohids::stats {

/// D statistic of two non-empty empirical distributions, from one merge
/// walk over their runs.
[[nodiscard]] double ks_statistic(const EmpiricalDistribution& a,
                                  const EmpiricalDistribution& b);

}  // namespace monohids::stats
