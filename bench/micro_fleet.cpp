// Microbenchmark + budget gate for fleet mode (sim::FleetScenario).
//
// Builds the sharded, sketch-backed fleet pipeline at --users hosts, runs
// the paper's three policies (homogeneous / knee-partial / full diversity)
// end to end on the compact state, and reports wall time per phase, the
// compact store and pooled-sketch footprints, and process peak RSS. This is
// the headline "million-host" binary: the exact pipeline needs
// users × weeks × 672 × 8 B of resident arenas, fleet mode needs
// users × weeks × grid_points × 4 B plus one shard of full matrices.
//
// Gates (each off unless its flag is set):
//   --max-rss-mib N       fail when peak RSS exceeds N MiB
//   --verify-exact        also run the exact Scenario pipeline and fail when
//                         any policy's mean utility diverges by more than
//                         --max-utility-err (default: the config's
//                         utility_error_bound()). Only feasible at small
//                         --users; the exact build is the 27 GB/1M path the
//                         fleet exists to avoid.
#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "hids/grouping.hpp"
#include "hids/heuristics.hpp"
#include "sim/analysis_cache.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace monohids;

struct PolicyRow {
  const char* name;
  const hids::Grouper* grouper;
  double fleet_utility = 0.0;
  double exact_utility = 0.0;
  std::uint64_t alarms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::standard_flags(
      "Fleet mode: sharded, sketch-backed scenario pipeline at 100k-1M hosts");
  flags.add_int("shard-size", 4096, "users generated and reduced per resident shard");
  flags.add_int("grid-points", 24, "per-(user,feature,week) quantile grid points");
  flags.add_double("eps", 1.0 / 48.0, "per-user GK sketch rank error");
  flags.add_int("attack-steps", 32, "attack model sweep steps");
  flags.add_bool("verify-exact", false,
                 "also run the exact pipeline and gate the utility error");
  flags.add_double("max-utility-err", 0.0,
                   "with --verify-exact: fail above this |mean utility| error "
                   "(0 = the config's utility_error_bound())");
  flags.add_double("max-rss-mib", 0.0, "fail when peak RSS exceeds this (0 = no gate)");
  if (!flags.parse(argc, argv)) return 0;

  bench::PhaseTimings timings;
  bench::echo_standard_config(timings, flags);

  sim::FleetConfig config;
  config.set_users(static_cast<std::uint32_t>(flags.get_int("users")));
  config.set_seed(static_cast<std::uint64_t>(flags.get_int("seed")));
  config.set_weeks(static_cast<std::uint32_t>(flags.get_int("weeks")));
  config.base.generator.grid =
      util::BinGrid::minutes(static_cast<std::uint64_t>(flags.get_int("bin-minutes")));
  config.shard_size = static_cast<std::uint32_t>(flags.get_int("shard-size"));
  config.grid_points = static_cast<std::uint32_t>(flags.get_int("grid-points"));
  config.sketch_epsilon = flags.get_double("eps");
  MONOHIDS_EXPECT(config.base.generator.weeks >= 2,
                  "fleet bench needs >= 2 weeks (train week 0, test week 1)");
  if (flags.get_bool("verbose")) util::set_log_level(util::LogLevel::Info);

  timings.config("shard_size", flags.get_int("shard-size"));
  timings.config("grid_points", flags.get_int("grid-points"));
  timings.config("eps", util::fixed(config.sketch_epsilon, 5));
  timings.config("utility_error_bound", util::fixed(config.utility_error_bound(), 5));

  bench::banner("micro_fleet",
                "a million-host fleet builds and evaluates in bounded memory; "
                "sketch utilities stay within the documented error bound");
  std::cout << "# users=" << flags.get_int("users")
            << " shard-size=" << flags.get_int("shard-size")
            << " grid-points=" << flags.get_int("grid-points")
            << " eps=" << util::fixed(config.sketch_epsilon, 5)
            << " weeks=" << flags.get_int("weeks") << '\n';

  const auto fleet =
      timings.time("fleet_build", [&] { return sim::build_fleet_scenario(config); });

  const auto feature = bench::feature_from_flags(flags);
  const auto steps = static_cast<std::uint32_t>(flags.get_int("attack-steps"));
  const auto attack =
      timings.time("attack_model", [&] { return fleet.analysis().attack_model(feature, 0, steps); });

  const hids::HomogeneousGrouper homogeneous;
  const hids::KneePartialGrouper partial;
  const hids::FullDiversityGrouper full;
  const hids::UtilityHeuristic heuristic(0.5);
  const double w = 0.5;
  PolicyRow rows[] = {
      {"homogeneous", &homogeneous},
      {"knee-partial", &partial},
      {"full-diversity", &full},
  };

  timings.time("evaluation", [&] {
    for (PolicyRow& row : rows) {
      const auto outcome = sim::evaluate_fleet_policy(fleet, feature, {0, 1},
                                                      *row.grouper, heuristic, *attack);
      row.fleet_utility = outcome.mean_utility(w);
      for (const auto& user : outcome.users) row.alarms += user.weekly_false_alarms;
    }
  });

  // Optional exact differential: same policies through the stock pipeline.
  double max_utility_err = 0.0;
  const bool verify = flags.get_bool("verify-exact");
  if (verify) {
    timings.time("exact_verify", [&] {
      const sim::Scenario exact = sim::build_scenario(config.base);
      const auto train = exact.analysis().week(feature, 0);
      const auto test = exact.analysis().week(feature, 1);
      for (PolicyRow& row : rows) {
        const auto outcome =
            hids::evaluate_policy(*train, *test, *row.grouper, heuristic, *attack);
        row.exact_utility = outcome.mean_utility(w);
        max_utility_err =
            std::max(max_utility_err, std::abs(row.fleet_utility - row.exact_utility));
      }
    });
    timings.config("max_utility_err", util::fixed(max_utility_err, 5));
  }

  const double store_mib = static_cast<double>(fleet.store_bytes()) / (1024.0 * 1024.0);
  const double pooled_mib =
      static_cast<double>(fleet.pooled_sketch_bytes()) / (1024.0 * 1024.0);
  const double rss_mib = static_cast<double>(util::peak_rss_kib()) / 1024.0;
  timings.config("store_mib", util::fixed(store_mib, 2));
  timings.config("pooled_sketch_mib", util::fixed(pooled_mib, 3));

  util::TextTable table({"measurement", "value"});
  table.set_alignment({util::Align::Left, util::Align::Right});
  table.add_row({"hosts", std::to_string(fleet.user_count())});
  table.add_row({"shards", std::to_string((fleet.user_count() + config.shard_size - 1) /
                                          config.shard_size)});
  table.add_row({"compact store (MiB)", util::fixed(store_mib, 2)});
  table.add_row({"pooled sketches (MiB)", util::fixed(pooled_mib, 3)});
  table.add_row({"peak RSS (MiB)", util::fixed(rss_mib, 1)});
  table.add_row({"utility error bound", util::fixed(config.utility_error_bound(), 4)});
  for (const PolicyRow& row : rows) {
    table.add_row({std::string(row.name) + ": mean utility",
                   util::fixed(row.fleet_utility, 4)});
    table.add_row({std::string(row.name) + ": weekly console alarms",
                   std::to_string(row.alarms)});
    if (verify) {
      table.add_row({std::string(row.name) + ": exact mean utility",
                     util::fixed(row.exact_utility, 4)});
    }
  }
  if (verify) table.add_row({"max |fleet - exact| utility", util::fixed(max_utility_err, 5)});
  std::cout << table.render();

  timings.write_if_requested(flags, "micro_fleet");
  bench::write_metrics_if_requested(flags);

  bool failed = false;
  if (!(rows[2].fleet_utility > rows[1].fleet_utility &&
        rows[1].fleet_utility > rows[0].fleet_utility)) {
    std::cerr << "FAIL: policy ranking (full > partial > homogeneous) violated\n";
    failed = true;
  }
  const double rss_budget = flags.get_double("max-rss-mib");
  if (rss_budget > 0.0 && rss_mib > rss_budget) {
    std::cerr << "FAIL: peak RSS " << util::fixed(rss_mib, 1) << " MiB exceeds the "
              << util::fixed(rss_budget, 1) << " MiB budget\n";
    failed = true;
  }
  if (verify) {
    const double err_budget = flags.get_double("max-utility-err") > 0.0
                                  ? flags.get_double("max-utility-err")
                                  : config.utility_error_bound();
    if (max_utility_err > err_budget) {
      std::cerr << "FAIL: utility error " << util::fixed(max_utility_err, 5)
                << " exceeds the " << util::fixed(err_budget, 5) << " bound\n";
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
