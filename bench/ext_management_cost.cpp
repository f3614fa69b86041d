// Extension: the management costs IT operators actually weighed.
//
// The paper's survey says operators favor the monoculture because auditing
// one configuration is easy, and view full diversity as "high management
// overhead" — without being able to quantify it. This driver puts numbers
// on both axes: reporting bandwidth (the centralized policies pull every
// host's distribution to the console) and distinct configurations to audit,
// and shows that 128-point quantile summaries shrink the bandwidth about 5x
// (672 doubles per host-feature-week down to 128 plus a count) while moving
// the pooled 99th-percentile threshold by about 1-2%.
#include "bench/common.hpp"

#include <cmath>

#include "hids/summary_shipping.hpp"
#include "sim/management_cost.hpp"

int main(int argc, char** argv) {
  using namespace monohids;
  auto flags = bench::standard_flags("Extension: management costs of each policy");
  flags.add_int("summary-points", 128, "quantile grid size for compact shipping");
  if (!flags.parse(argc, argv)) return 0;
  const auto scenario = bench::scenario_from_flags(flags);
  const auto feature = bench::feature_from_flags(flags);

  bench::banner("Extension: management-cost accounting (paper §6 discussion)",
                "the monoculture's 'cheap management' is reporting bandwidth plus "
                "one config; diversity is zero traffic but n configs");

  // 1. Cost table for both reporting modes.
  sim::ManagementCostConfig cost_config;
  cost_config.users = scenario.user_count();
  cost_config.bins_per_week = static_cast<std::uint32_t>(
      util::kMicrosPerWeek / scenario.config.generator.grid.width());
  cost_config.summary_points = static_cast<std::size_t>(flags.get_int("summary-points"));

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
  for (sim::ReportingMode mode :
       {sim::ReportingMode::FullDistribution, sim::ReportingMode::QuantileSummary}) {
    for (const auto& cost : sim::management_costs(cost_config, mode)) {
      table.add_row({cost.policy, std::string(sim::name_of(cost.reporting)),
                     human(cost.uplink_bytes_per_week),
                     human(cost.downlink_bytes_per_week),
                     std::to_string(cost.distinct_configurations)});
    }
  }
  std::cout << table.render();

  // 2. What compact shipping costs in threshold accuracy: pooled 99th
  //    percentile from summaries vs from raw data, for the homogeneous pool
  //    and for each 8-partial group.
  const auto train = hids::week_distributions(scenario.matrices, feature, 0);
  std::vector<hids::QuantileSummary> summaries;
  summaries.reserve(train.size());
  for (const auto& matrix : scenario.matrices) {
    summaries.push_back(hids::QuantileSummary::from_samples(
        matrix.of(feature).week_slice(0), cost_config.summary_points));
  }

  const auto exact_pool = stats::EmpiricalDistribution::merge(train);
  const auto summary_pool = hids::pooled_from_summaries(summaries);
  const double exact_t = exact_pool.quantile(0.99);
  const double summary_t = summary_pool.quantile(0.99);

  std::cout << "\npooled 99th-percentile threshold (" << features::name_of(feature)
            << "):\n  from raw distributions: " << util::fixed(exact_t, 1)
            << "\n  from " << cost_config.summary_points
            << "-point summaries: " << util::fixed(summary_t, 1) << "  (error "
            << util::fixed(100.0 * std::abs(summary_t - exact_t) / exact_t, 2) << "%)\n";

  const double full_bytes = static_cast<double>(cost_config.bins_per_week) * 8;
  const double summary_bytes =
      static_cast<double>(cost_config.summary_points) * 8 + 8;
  std::cout << "\nbandwidth reduction per host-feature: " << util::fixed(full_bytes / 1024, 1)
            << " KiB -> " << util::fixed(summary_bytes / 1024, 1) << " KiB ("
            << util::fixed(full_bytes / summary_bytes, 1) << "x smaller)\n"
            << "\nreading: compact summaries make the centralized policies' reporting\n"
               "cost negligible, removing the operators' bandwidth argument; the real\n"
               "trade-off that remains is configurations-to-audit, which partial\n"
               "diversity caps at the group count.\n";
  return 0;
}
