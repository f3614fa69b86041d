#include "sim/management_cost.hpp"

#include "util/error.hpp"

namespace monohids::sim {

std::string_view name_of(ReportingMode mode) noexcept {
  switch (mode) {
    case ReportingMode::None: return "local-only";
    case ReportingMode::FullDistribution: return "full-distribution";
    case ReportingMode::Runs: return "runs";
  }
  return "unknown";
}

std::vector<ManagementCost> management_costs(const ManagementCostConfig& config,
                                             ReportingMode centralized_mode,
                                             std::uint64_t runs_bytes_per_week) {
  MONOHIDS_EXPECT(config.users > 0 && config.features > 0 && config.bins_per_week > 0,
                  "management-cost config must be non-degenerate");
  MONOHIDS_EXPECT(centralized_mode != ReportingMode::None,
                  "centralized policies must ship something");
  MONOHIDS_EXPECT((centralized_mode == ReportingMode::Runs) == (runs_bytes_per_week > 0),
                  "measured runs bytes go with the runs mode, and only with it");

  const std::uint64_t uplink =
      centralized_mode == ReportingMode::Runs
          ? runs_bytes_per_week
          : static_cast<std::uint64_t>(config.users) * config.features * config.bins_per_week *
                sizeof(double);
  const std::uint64_t threshold_bytes =
      static_cast<std::uint64_t>(config.features) * sizeof(double);

  std::vector<ManagementCost> costs;

  ManagementCost homogeneous;
  homogeneous.policy = "homogeneous";
  homogeneous.reporting = centralized_mode;
  homogeneous.uplink_bytes_per_week = uplink;
  // one threshold set, broadcast to every host
  homogeneous.downlink_bytes_per_week = threshold_bytes * config.users;
  homogeneous.distinct_configurations = 1;
  costs.push_back(homogeneous);

  ManagementCost full;
  full.policy = "full-diversity";
  full.reporting = ReportingMode::None;  // "all done locally" (paper §4)
  full.uplink_bytes_per_week = 0;
  full.downlink_bytes_per_week = 0;
  full.distinct_configurations = config.users;
  costs.push_back(full);

  ManagementCost partial;
  partial.policy = std::to_string(config.partial_groups) + "-partial";
  partial.reporting = centralized_mode;
  partial.uplink_bytes_per_week = uplink;
  partial.downlink_bytes_per_week = threshold_bytes * config.users;
  partial.distinct_configurations = config.partial_groups;
  costs.push_back(partial);

  return costs;
}

}  // namespace monohids::sim
