// A linear attack-size sweep for tests.
//
// The library's benches and experiments sweep attack sizes logarithmically
// (hids::log_attack_sweep); tests that want evenly spaced sizes they can
// reason about by hand build them here.
#pragma once

#include <cstdint>

#include "hids/attack_model.hpp"
#include "util/error.hpp"

namespace monohids::test_support {

/// `steps` evenly spaced sizes over (0, max_size]: max_size * i / steps for
/// i = 1..steps.
[[nodiscard]] inline hids::AttackModel linear_attack_sweep(double max_size, std::uint32_t steps) {
  MONOHIDS_EXPECT(max_size > 0.0, "sweep needs a positive maximum");
  MONOHIDS_EXPECT(steps >= 2, "sweep needs at least two steps");
  hids::AttackModel model;
  model.sizes.reserve(steps);
  for (std::uint32_t i = 1; i <= steps; ++i) {
    model.sizes.push_back(max_size * static_cast<double>(i) / static_cast<double>(steps));
  }
  return model;
}

}  // namespace monohids::test_support
