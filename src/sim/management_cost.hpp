// Management-cost model for IT policies.
//
// The paper's IT-operator survey surfaces two costs the policies trade
// against detection quality: the reporting traffic of centralized threshold
// computation ("all the data is pulled to the central console") and the
// number of distinct configurations operators must audit for compliance.
// This model quantifies both per policy, for hosts that ship every bin and
// for hosts that ship their distributions' exact runs
// (EmpiricalDistribution::encode_runs), backing the paper's §6 discussion
// with numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace monohids::sim {

/// How hosts report their distributions to the console.
enum class ReportingMode : std::uint8_t {
  None,              ///< thresholds computed locally (full diversity)
  FullDistribution,  ///< ship every bin as a double (the paper's description)
  Runs,              ///< ship each distribution's runs (EmpiricalDistribution::encode_runs)
};

struct ManagementCost {
  std::string policy;
  ReportingMode reporting = ReportingMode::None;
  std::uint64_t uplink_bytes_per_week = 0;    ///< hosts -> console
  std::uint64_t downlink_bytes_per_week = 0;  ///< console -> hosts
  std::uint32_t distinct_configurations = 0;  ///< the compliance-audit burden
};

struct ManagementCostConfig {
  std::uint32_t users = 350;
  std::uint32_t bins_per_week = 672;
  std::uint32_t features = 6;
  std::uint32_t partial_groups = 8;
};

/// Costs for the paper's three policies when the centralized ones report
/// in `centralized_mode` (full diversity is always local-only). The
/// FullDistribution uplink is modeled: every host ships every bin of every
/// feature as a double. The Runs uplink is measured: `runs_bytes_per_week`
/// is what encode_runs produced for one week of every host's features, and
/// is positive exactly when the mode is Runs.
[[nodiscard]] std::vector<ManagementCost> management_costs(const ManagementCostConfig& config,
                                                           ReportingMode centralized_mode,
                                                           std::uint64_t runs_bytes_per_week);

[[nodiscard]] std::string_view name_of(ReportingMode mode) noexcept;

}  // namespace monohids::sim
