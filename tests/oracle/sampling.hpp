// Seed forms of the scenario contract's one-word samplers: the test
// oracles stats::batch's branch-free paths must reproduce bit for bit
// (tests/stats/test_sampling32.cpp).
#pragma once

#include <cstdint>

#include "stats/sampling.hpp"

namespace monohids::oracle {

/// The early-exit CDF row scan stats::batch::cdf_row_scan replaced: stops
/// at the first threshold the word does not clear. On a nondecreasing row
/// it returns #{j : w > t_j}, the branch-free count.
[[nodiscard]] inline std::uint64_t cdf_row_scan(const std::uint32_t* row,
                                               std::uint32_t w) noexcept {
  std::uint64_t k = 0;
  while (k < stats::batch::kCdfRowLen && w > row[k]) ++k;
  return k;
}

}  // namespace monohids::oracle
