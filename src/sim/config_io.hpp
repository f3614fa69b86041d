// Scenario-configuration serialization.
//
// Experiments are reproducible from (config, seed); this module writes and
// reads the full ScenarioConfig as a simple `key = value` text format so a
// run's exact parameters can be archived next to its outputs and replayed
// later (`build_scenario(parse_scenario_config(file))`). Unknown and
// repeated keys are errors — silent typos and overrides in archived configs
// are how irreproducible results happen.
#pragma once

#include <string>
#include <string_view>

#include "sim/scenario.hpp"

namespace monohids::sim {

/// Renders every tunable of the config, one `key = value` per line, with
/// `#`-comments grouping the sections.
[[nodiscard]] std::string serialize_scenario_config(const ScenarioConfig& config);

/// Parses the format back. Missing keys keep their defaults; unknown keys,
/// a key given twice, malformed numbers and out-of-range values throw
/// InputError.
[[nodiscard]] ScenarioConfig parse_scenario_config(std::string_view text);

}  // namespace monohids::sim
