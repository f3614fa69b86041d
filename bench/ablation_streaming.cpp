// Ablation (deployment): on-host threshold learning. The full-diversity
// policy computes thresholds "all done locally"; this driver compares what
// the daemon learns from, the training week's exact EmpiricalDistribution
// (its bins as distinct values with cumulative counts), with the fleet's
// compact format, the week's 24-point quantile row (sim::grid_row), read as
// a distribution the way fleet mode reads it: threshold error, realized FP
// on the next week, and memory per host.
#include "bench/common.hpp"

#include <algorithm>
#include <cmath>

#include "sim/fleet.hpp"

int main(int argc, char** argv) {
  using namespace monohids;
  auto flags = bench::standard_flags("Ablation: streaming on-host threshold learning");
  if (!flags.parse(argc, argv)) return 0;
  const auto scenario = bench::scenario_from_flags(flags);
  const auto feature = bench::feature_from_flags(flags);

  bench::banner("Ablation: streaming threshold learners (full-diversity deployment)",
                "bounded-memory estimators should reproduce the exact per-host "
                "thresholds and FP behavior");

  const auto test = hids::week_distributions(scenario.matrices, feature, 1);

  util::TextTable table({"estimator", "median |T error| (rel)", "p95 |T error| (rel)",
                         "mean realized FP", "mean memory/host"});
  table.set_alignment({util::Align::Left, util::Align::Right, util::Align::Right,
                       util::Align::Right, util::Align::Right});

  // One row per estimator: its threshold and its resident memory after one
  // training week of a host.
  struct Learned {
    double threshold;
    std::size_t memory_bytes;
  };
  const auto add_row = [&](const std::string& name, auto&& learn) {
    std::vector<double> rel_errors;
    double fp_sum = 0;
    double memory_sum = 0;
    for (std::uint32_t u = 0; u < scenario.user_count(); ++u) {
      const auto train_bins = scenario.matrices[u].of(feature).week_slice(0);
      const Learned learned = learn(train_bins);

      const double exact_t = stats::EmpiricalDistribution(train_bins).quantile(0.99);

      rel_errors.push_back(std::abs(learned.threshold - exact_t) / std::max(1.0, exact_t));
      fp_sum += test[u].exceedance(learned.threshold);
      memory_sum += static_cast<double>(learned.memory_bytes);
    }
    std::sort(rel_errors.begin(), rel_errors.end());
    const auto n = scenario.user_count();
    table.add_row({name, util::fixed(rel_errors[n / 2] * 100, 2) + "%",
                   util::fixed(rel_errors[n * 95 / 100] * 100, 2) + "%",
                   util::fixed(fp_sum / n * 100, 3) + "%",
                   util::fixed(memory_sum / n / 1024.0, 1) + " KiB"});
  };

  add_row("exact", [&](std::span<const double> bins) {
    const stats::EmpiricalDistribution week(bins);
    return Learned{week.quantile(0.99), week.values().size() * sizeof(double) +
                                            week.cumulative_counts().size() *
                                                sizeof(std::uint32_t)};
  });
  add_row("grid-24", [&](std::span<const double> bins) {
    std::vector<float> row(sim::FleetConfig{}.grid_points);
    sim::grid_row(stats::EmpiricalDistribution(bins), row);
    const stats::EmpiricalDistribution compact(std::vector<double>(row.begin(), row.end()));
    return Learned{compact.quantile(0.99), row.size() * sizeof(float)};
  });

  std::cout << table.render()
            << "\nreading: the daemon learns from the host-week's exact distribution,\n"
               "its distinct values with cumulative counts (8 B + 4 B per run).\n"
               "Traffic-count bins repeat heavily, so a week of 15-minute bins holds\n"
               "tens of distinct values per feature (a few hundred at most, under a\n"
               "thousand on 5-minute bins), and the runs give the batch pipeline's\n"
               "threshold bit for bit. The fleet's 24-point row costs 96 B, but its\n"
               "points sit 1/23 of the week apart: the 99th percentile of the row is\n"
               "its top point, the week's maximum, so its thresholds sit above the\n"
               "exact percentile and its realized FP falls well below the exact\n"
               "row's.\n";
  return 0;
}
