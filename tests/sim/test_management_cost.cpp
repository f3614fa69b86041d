#include "sim/management_cost.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "stats/empirical.hpp"
#include "util/error.hpp"

namespace monohids::sim {
namespace {

TEST(ManagementCost, FullDiversityShipsNothingButAuditsEveryone) {
  ManagementCostConfig config;
  const auto costs = management_costs(config, ReportingMode::FullDistribution, 0);
  ASSERT_EQ(costs.size(), 3u);
  const auto& full = costs[1];
  EXPECT_EQ(full.policy, "full-diversity");
  EXPECT_EQ(full.uplink_bytes_per_week, 0u);
  EXPECT_EQ(full.downlink_bytes_per_week, 0u);
  EXPECT_EQ(full.distinct_configurations, 350u);
}

TEST(ManagementCost, CentralizedPoliciesPullEveryDistribution) {
  ManagementCostConfig config;
  const auto costs = management_costs(config, ReportingMode::FullDistribution, 0);
  // 350 hosts x 6 features x 672 bins x 8 bytes
  const std::uint64_t expected = 350ull * 6 * 672 * 8;
  EXPECT_EQ(costs[0].uplink_bytes_per_week, expected);
  EXPECT_EQ(costs[2].uplink_bytes_per_week, expected);
  EXPECT_EQ(costs[0].distinct_configurations, 1u);
  EXPECT_EQ(costs[2].distinct_configurations, 8u);
}

TEST(ManagementCost, SummariesShrinkUplinkSubstantially) {
  // The runs uplink is what encode_runs produced, passed in as measured:
  // here every host ships the same 672-bin week for each of 6 features,
  // 50 distinct counts 0..49 of 13 or 14 bins each (one byte per gap and
  // per count, plus the run count).
  std::vector<double> bins(672);
  for (std::size_t i = 0; i < bins.size(); ++i) bins[i] = static_cast<double>((i * 37) % 50);
  std::vector<std::uint8_t> wire;
  stats::EmpiricalDistribution(bins).encode_runs(wire);
  ASSERT_EQ(wire.size(), 101u);

  ManagementCostConfig config;
  const std::uint64_t runs_bytes = 350ull * 6 * wire.size();
  const auto full = management_costs(config, ReportingMode::FullDistribution, 0);
  const auto runs = management_costs(config, ReportingMode::Runs, runs_bytes);
  EXPECT_EQ(runs[0].reporting, ReportingMode::Runs);
  EXPECT_EQ(runs[0].uplink_bytes_per_week, runs_bytes);
  EXPECT_EQ(runs[1].uplink_bytes_per_week, 0u);
  EXPECT_EQ(runs[2].uplink_bytes_per_week, runs_bytes);
  EXPECT_LT(runs[0].uplink_bytes_per_week * 40, full[0].uplink_bytes_per_week);
}

TEST(ManagementCost, DownlinkScalesWithHostsNotGroups) {
  // Every host receives its (possibly shared) threshold set.
  ManagementCostConfig config;
  const auto costs = management_costs(config, ReportingMode::Runs, 1000);
  EXPECT_EQ(costs[0].downlink_bytes_per_week, 350ull * 6 * 8);
  EXPECT_EQ(costs[2].downlink_bytes_per_week, 350ull * 6 * 8);
}

TEST(ManagementCost, ConfigurableShape) {
  ManagementCostConfig config;
  config.users = 10;
  config.features = 2;
  config.bins_per_week = 100;
  config.partial_groups = 3;
  const auto costs = management_costs(config, ReportingMode::FullDistribution, 0);
  EXPECT_EQ(costs[0].uplink_bytes_per_week, 10ull * 2 * 100 * 8);
  EXPECT_EQ(costs[2].policy, "3-partial");
  EXPECT_EQ(costs[2].distinct_configurations, 3u);
}

TEST(ManagementCost, InvalidInputsAreErrors) {
  ManagementCostConfig config;
  config.users = 0;
  EXPECT_THROW((void)management_costs(config, ReportingMode::FullDistribution, 0),
               PreconditionError);
  EXPECT_THROW((void)management_costs(ManagementCostConfig{}, ReportingMode::None, 0),
               PreconditionError);
  // Measured runs bytes go with the runs mode, and only with it.
  EXPECT_THROW((void)management_costs(ManagementCostConfig{}, ReportingMode::Runs, 0),
               PreconditionError);
  EXPECT_THROW((void)management_costs(ManagementCostConfig{}, ReportingMode::FullDistribution, 1),
               PreconditionError);
}

TEST(ManagementCost, ModeNames) {
  EXPECT_EQ(name_of(ReportingMode::None), "local-only");
  EXPECT_EQ(name_of(ReportingMode::FullDistribution), "full-distribution");
  EXPECT_EQ(name_of(ReportingMode::Runs), "runs");
}

}  // namespace
}  // namespace monohids::sim
