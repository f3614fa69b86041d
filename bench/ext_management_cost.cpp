// Extension: the management costs IT operators actually weighed.
//
// The paper's survey says operators favor the monoculture because auditing
// one configuration is easy, and view full diversity as "high management
// overhead" — without being able to quantify it. This driver puts numbers
// on both axes: reporting bandwidth (the centralized policies pull every
// host's distribution to the console) and distinct configurations to audit.
// Each host ships its training week (week 0) of every feature as exact runs
// (EmpiricalDistribution::encode_runs); the uplink is the bytes the codec
// produced, about 40x fewer than the raw bins. The console decodes the
// chosen feature's runs and pools them with EmpiricalDistribution::merge,
// so its 99th-percentile threshold equals the one pooled from raw data.
#include "bench/common.hpp"

#include <cmath>

#include "sim/management_cost.hpp"

int main(int argc, char** argv) {
  using namespace monohids;
  auto flags = bench::standard_flags("Extension: management costs of each policy");
  if (!flags.parse(argc, argv)) return 0;
  const auto scenario = bench::scenario_from_flags(flags);
  const auto feature = bench::feature_from_flags(flags);

  bench::banner("Extension: management-cost accounting (paper §6 discussion)",
                "the monoculture's 'cheap management' is reporting bandwidth plus "
                "one config; diversity is zero traffic but n configs");

  // 1. Every host encodes its training week of every feature; the console
  //    decodes what it receives for the chosen feature.
  std::uint64_t runs_bytes = 0;
  std::vector<std::uint8_t> wire;
  std::vector<stats::EmpiricalDistribution> train;
  std::vector<stats::EmpiricalDistribution> received;
  for (features::FeatureKind f : features::kAllFeatures) {
    auto week = hids::week_distributions(scenario.matrices, f, 0);
    for (const auto& dist : week) {
      wire.clear();
      dist.encode_runs(wire);
      runs_bytes += wire.size();
      if (f == feature) received.push_back(stats::EmpiricalDistribution::decode_runs(wire));
    }
    if (f == feature) train = std::move(week);
  }

  // 2. Cost table for both reporting modes.
  sim::ManagementCostConfig cost_config;
  cost_config.users = scenario.user_count();
  cost_config.bins_per_week = static_cast<std::uint32_t>(
      util::kMicrosPerWeek / scenario.config.generator.grid.width());
  cost_config.features = static_cast<std::uint32_t>(features::kFeatureCount);

  util::TextTable table({"policy", "reporting", "uplink/week", "downlink/week",
                         "configs to audit"});
  table.set_alignment({util::Align::Left, util::Align::Left, util::Align::Right,
                       util::Align::Right, util::Align::Right});
  auto human = [](std::uint64_t bytes) {
    if (bytes >= 1024 * 1024) {
      return util::fixed(static_cast<double>(bytes) / (1024.0 * 1024.0), 1) + " MiB";
    }
    if (bytes >= 1024) {
      return util::fixed(static_cast<double>(bytes) / 1024.0, 1) + " KiB";
    }
    return std::to_string(bytes) + " B";
  };
  for (sim::ReportingMode mode : {sim::ReportingMode::FullDistribution, sim::ReportingMode::Runs}) {
    const std::uint64_t measured = mode == sim::ReportingMode::Runs ? runs_bytes : 0;
    for (const auto& cost : sim::management_costs(cost_config, mode, measured)) {
      table.add_row({cost.policy, std::string(sim::name_of(cost.reporting)),
                     human(cost.uplink_bytes_per_week),
                     human(cost.downlink_bytes_per_week),
                     std::to_string(cost.distinct_configurations)});
    }
  }
  std::cout << table.render();

  // 3. What exact shipping costs in threshold accuracy: nothing. The
  //    pooled 99th percentile from the decoded runs vs from raw data.
  const double exact_t = stats::EmpiricalDistribution::merge(train).quantile(0.99);
  const double runs_t = stats::EmpiricalDistribution::merge(received).quantile(0.99);

  std::cout << "\npooled 99th-percentile threshold (" << features::name_of(feature)
            << "):\n  from raw distributions: " << util::fixed(exact_t, 1)
            << "\n  from shipped runs: " << util::fixed(runs_t, 1) << "  (error "
            << util::fixed(100.0 * std::abs(runs_t - exact_t) / exact_t, 2) << "%)\n";

  const double full_bytes = static_cast<double>(cost_config.bins_per_week) * sizeof(double);
  const double mean_runs_bytes =
      static_cast<double>(runs_bytes) / (static_cast<double>(cost_config.users) * cost_config.features);
  std::cout << "\nbandwidth per host-feature-week: " << util::fixed(full_bytes / 1024, 1)
            << " KiB of bins -> " << util::fixed(mean_runs_bytes, 1) << " B of runs ("
            << util::fixed(full_bytes / mean_runs_bytes, 1) << "x smaller)\n"
            << "\nreading: shipping exact runs makes the centralized policies' reporting\n"
               "cost negligible at no cost in threshold accuracy, removing the\n"
               "operators' bandwidth argument; the real trade-off that remains is\n"
               "configurations-to-audit, which partial diversity caps at the group\n"
               "count.\n";
  return 0;
}
