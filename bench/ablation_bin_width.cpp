// Ablation (§5): feature bin width. The paper aggregated counts in both
// 5- and 15-minute bins and reports that "the conclusions hold for the
// shorter binning interval as well"; this driver re-runs the headline
// comparisons at both widths.
#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace monohids;
  auto flags = bench::standard_flags("Ablation: 5- vs 15-minute feature bins");
  flags.add_double("w", 0.4, "utility weight for evaluation");
  if (!flags.parse(argc, argv)) return 0;
  const double w = flags.get_double("w");

  bench::banner("Ablation: bin width (paper used 15-minute bins, checked 5)",
                "tail diversity and the policy ordering survive the bin width");

  util::TextTable table({"bin width", "policy", "q99 spread (decades)", "mean utility",
                         "alarms/wk"});
  table.set_alignment({util::Align::Left, util::Align::Left, util::Align::Right,
                       util::Align::Right, util::Align::Right});

  for (std::int64_t minutes : {15LL, 5LL}) {
    sim::ScenarioConfig config;
    config.set_users(static_cast<std::uint32_t>(flags.get_int("users")));
    config.set_seed(static_cast<std::uint64_t>(flags.get_int("seed")));
    config.set_weeks(static_cast<std::uint32_t>(flags.get_int("weeks")));
    config.generator.grid = util::BinGrid::minutes(static_cast<std::uint64_t>(minutes));
    const auto scenario = sim::build_scenario(config);
    const auto feature = bench::feature_from_flags(flags);

    const auto diversity = sim::tail_diversity(scenario, feature, 0);
    const auto rounds = sim::canonical_rounds();
    const auto attack =
        sim::make_attack_model(scenario, feature, rounds.front().train_week);
    const hids::UtilityHeuristic heuristic(w);

    for (const auto& grouper : sim::canonical_groupers()) {
      const auto outcome = hids::evaluate_rounds(scenario.matrices, feature, rounds,
                                                 *grouper, heuristic, attack);
      table.add_row({std::to_string(minutes) + " min", outcome.policy_name,
                     util::fixed(diversity.spread_decades, 2),
                     util::fixed(outcome.mean_utility(w), 4),
                     std::to_string(outcome.total_false_alarms())});
    }
  }
  std::cout << table.render()
            << "\nshape to check: decades of spread and the diversity > homogeneous\n"
               "utility ordering appear at both bin widths.\n";
  return 0;
}
