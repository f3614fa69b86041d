// Ablation: fleet-mode accuracy vs memory across (sketch eps, grid points).
//
// Builds the exact pipeline once at --users, then sweeps the fleet pipeline
// over sketch_epsilon × grid_points, reporting for each cell the compact
// footprint (store + pooled sketches), the documented utility error bound
// eps_total = 2 * (eps + 1/(m-1)), and the measured max |mean utility|
// error across the three paper policies. Exits nonzero when any cell's
// measured error exceeds its own bound — the empirical check that the bound
// quoted in docs/API_TOUR.md is honest.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "hids/grouping.hpp"
#include "hids/heuristics.hpp"
#include "sim/analysis_cache.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace monohids;

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::standard_flags(
      "Ablation: fleet sketch accuracy vs memory across (eps, grid points)");
  flags.add_int("shard-size", 128, "users per resident shard during the sweep");
  if (!flags.parse(argc, argv)) return 0;

  bench::PhaseTimings timings;
  bench::echo_standard_config(timings, flags);
  timings.config("shard_size", flags.get_int("shard-size"));

  sim::ScenarioConfig base;
  base.set_users(static_cast<std::uint32_t>(flags.get_int("users")));
  base.set_seed(static_cast<std::uint64_t>(flags.get_int("seed")));
  base.set_weeks(static_cast<std::uint32_t>(flags.get_int("weeks")));
  base.generator.grid =
      util::BinGrid::minutes(static_cast<std::uint64_t>(flags.get_int("bin-minutes")));
  MONOHIDS_EXPECT(base.generator.weeks >= 2,
                  "sketch ablation needs >= 2 weeks (train week 0, test week 1)");
  if (flags.get_bool("verbose")) util::set_log_level(util::LogLevel::Info);

  bench::banner("ablation_sketch_eps",
                "utility error from the sketch-backed fleet state tracks the "
                "documented 2*(eps + 1/(m-1)) bound as memory shrinks");
  std::cout << "# users=" << flags.get_int("users") << " seed=" << flags.get_int("seed")
            << " weeks=" << flags.get_int("weeks") << '\n';

  const auto feature = bench::feature_from_flags(flags);
  const hids::HomogeneousGrouper homogeneous;
  const hids::KneePartialGrouper partial;
  const hids::FullDiversityGrouper full;
  const hids::Grouper* groupers[] = {&homogeneous, &partial, &full};
  const hids::UtilityHeuristic heuristic(0.5);
  const double w = 0.5;

  // Exact references, one per policy, computed once.
  const sim::Scenario exact = timings.time_setup(
      "exact_scenario_build", [&] { return sim::build_scenario(base); });
  const auto attack = exact.analysis().attack_model(feature, 0, 32);
  double exact_utility[3] = {};
  timings.time_setup("exact_evaluation", [&] {
    const auto train = exact.analysis().week(feature, 0);
    const auto test = exact.analysis().week(feature, 1);
    for (int g = 0; g < 3; ++g) {
      exact_utility[g] =
          hids::evaluate_policy(*train, *test, *groupers[g], heuristic, *attack)
              .mean_utility(w);
    }
  });

  const double eps_values[] = {1.0 / 12.0, 1.0 / 24.0, 1.0 / 48.0, 1.0 / 96.0};
  const std::uint32_t grid_values[] = {8, 16, 24, 48};

  util::TextTable table(
      {"eps", "grid m", "store (KiB)", "pooled (KiB)", "bound", "max |dU|", "ok"});
  table.set_alignment({util::Align::Right, util::Align::Right, util::Align::Right,
                       util::Align::Right, util::Align::Right, util::Align::Right,
                       util::Align::Left});
  bool all_within = true;
  for (const double eps : eps_values) {
    for (const std::uint32_t m : grid_values) {
      sim::FleetConfig config;
      config.base = base;
      config.shard_size = static_cast<std::uint32_t>(flags.get_int("shard-size"));
      config.sketch_epsilon = eps;
      config.grid_points = m;

      const std::string cell =
          "eps=" + std::string(util::fixed(eps, 4)) + "_m=" + std::to_string(m);
      const auto fleet =
          timings.time("fleet_" + cell, [&] { return sim::build_fleet_scenario(config); });

      double max_err = 0.0;
      for (int g = 0; g < 3; ++g) {
        const auto outcome = sim::evaluate_fleet_policy(fleet, feature, {0, 1},
                                                        *groupers[g], heuristic, *attack);
        max_err = std::max(max_err, std::abs(outcome.mean_utility(w) - exact_utility[g]));
      }

      const double bound = config.utility_error_bound();
      const bool within = max_err <= bound;
      all_within = all_within && within;
      table.add_row({util::fixed(eps, 4), std::to_string(m),
                     util::fixed(static_cast<double>(fleet.store_bytes()) / 1024.0, 1),
                     util::fixed(static_cast<double>(fleet.pooled_sketch_bytes()) / 1024.0, 1),
                     util::fixed(bound, 4), util::fixed(max_err, 4),
                     within ? "yes" : "NO"});
    }
  }
  std::cout << table.render();

  timings.write_if_requested(flags, "ablation_sketch_eps");
  bench::write_metrics_if_requested(flags);

  if (!all_within) {
    std::cerr << "FAIL: a sweep cell's measured utility error exceeded its bound\n";
    return 1;
  }
  return 0;
}
