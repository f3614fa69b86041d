// Seed feature generator: the test oracle for trace::TraceGenerator's v1
// scenario contract.
//
// One activity/episode/Poisson/footprint round-trip per (bin, app), drawn
// serially from the user's "bins" and "episodes" streams. The batched v1
// pipeline behind TraceGenerator::generate_features must reproduce it bit
// for bit (tests/trace/test_generator_batched.cpp, bench/micro_scenario).
// Built only on the public trace/ headers; linked only by tests and A/B
// benches.
#pragma once

#include "features/time_series.hpp"
#include "trace/generator.hpp"
#include "trace/user_profile.hpp"

namespace monohids::oracle {

/// The user's six binned feature series over config.horizon(), rendered by
/// the seed per-(bin, app) loop. Ignores config.scenario_version: this is
/// the v1 contract.
[[nodiscard]] features::FeatureMatrix generate_features_seed(
    const trace::GeneratorConfig& config, const trace::UserProfile& user);

}  // namespace monohids::oracle
