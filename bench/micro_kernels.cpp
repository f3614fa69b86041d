// Microbenchmark for the batched evaluation paths.
//
// Measures (a) the threshold-sweep A/B on the bench scenario: every user's
// week-0 training distribution of the bench feature plus the pooled one,
// each answered by hids::UtilityHeuristic(0.4) (one operating curve: false
// positives read off the cumulative counts, one run walk per attack size)
// and by the seed's per-call sweep from tests/oracle (one exceedance call
// and one per-size shifted_cdf loop per candidate threshold). Every
// threshold must match, and the ratio is gated by --min-speedup (default
// 3x). It then
// reports the batched figure-3a + figure-4b analysis suite
// (utility_boxplots + resourceful_attack) as timed phases, and (b) raw
// rank rows: an ascending threshold sweep answered by per-call
// std::upper_bound over the sorted samples vs one
// EmpiricalDistribution::rank_batch merge-scan over the runs, and an
// unsorted rank batch answered by rank_batch's binary searches over the
// runs. Every row's ranks must equal the per-call upper_bound ranks. Exits
// nonzero when any output diverges or the sweep speedup lands below
// --min-speedup.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "hids/heuristics.hpp"
#include "oracle/per_call.hpp"
#include "sim/analysis_cache.hpp"
#include "util/rng.hpp"

namespace {

using namespace monohids;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Runs the batched fig3a + fig4b suite on a cleared cache so every
/// distribution, threshold and curve is rebuilt from scratch.
double timed_suite(const sim::Scenario& scenario, features::FeatureKind feature,
                   double& boxplots_ms, double& mimicry_ms) {
  scenario.analysis().clear();
  const auto start = Clock::now();
  (void)sim::utility_boxplots(scenario, feature, 0.4);
  boxplots_ms = ms_since(start);
  const auto mid = Clock::now();
  (void)sim::resourceful_attack(scenario, feature);
  mimicry_ms = ms_since(mid);
  return boxplots_ms + mimicry_ms;
}

/// Times `sweep` over every distribution (best of `passes`), returning the
/// thresholds of the last pass.
template <typename Sweep>
std::vector<double> timed_sweep(std::span<const stats::EmpiricalDistribution> dists,
                                int passes, double& best_ms, Sweep&& sweep) {
  std::vector<double> thresholds(dists.size());
  best_ms = std::numeric_limits<double>::infinity();
  for (int p = 0; p < passes; ++p) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < dists.size(); ++i) thresholds[i] = sweep(dists[i]);
    best_ms = std::min(best_ms, ms_since(start));
  }
  return thresholds;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::standard_flags(
      "Microbenchmark: batched evaluation kernels vs per-call binary searches");
  flags.add_double("min-speedup", 3.0,
                   "fail when the batched utility threshold sweep speedup is below this");
  flags.add_int("kernel-samples", 30000, "sample count for the raw kernel rows");
  flags.add_int("kernel-queries", 4000, "query batch size for the raw kernel rows");
  flags.add_int("kernel-repeat", 50, "repetitions of each raw kernel row");
  if (!flags.parse(argc, argv)) return 0;
  bench::PhaseTimings timings;
  // The scenario is a fixture here: synthesizing it dominated total_ms and
  // drowned the kernel trajectory, so it goes to the setup section.
  const auto scenario = bench::scenario_setup_from_flags(flags, timings);
  const auto feature = bench::feature_from_flags(flags);
  const double min_speedup = flags.get_double("min-speedup");
  timings.config("min_speedup", util::fixed(min_speedup, 2));

  bench::banner("micro_kernels",
                "batched rank/exceedance kernels pick bit-identical thresholds while the "
                "utility threshold sweep runs >= " +
                    std::string(util::fixed(min_speedup, 1)) + "x faster");

  // --- (a) threshold-sweep A/B: batched heuristic vs per-call oracle ------
  auto& cache = scenario.analysis();
  std::vector<stats::EmpiricalDistribution> training = *cache.week(feature, 0);
  training.push_back(stats::EmpiricalDistribution::merge(training));  // pooled
  const hids::AttackModel attack = *cache.attack_model(feature, 0);
  const hids::UtilityHeuristic utility(0.4);
  constexpr int kSweepPasses = 3;
  double utility_batched_ms = 0.0, utility_seed_ms = 0.0;
  const auto batched_thresholds = timed_sweep(
      training, kSweepPasses, utility_batched_ms,
      [&](const stats::EmpiricalDistribution& d) { return utility.compute(d, &attack); });
  const auto seed_thresholds = timed_sweep(
      training, kSweepPasses, utility_seed_ms, [&](const stats::EmpiricalDistribution& d) {
        return oracle::utility_threshold(d, attack, 0.4);
      });
  timings.record("utility_sweep_seed_percall", utility_seed_ms);
  timings.record("utility_sweep_batched", utility_batched_ms);
  const bool thresholds_match = batched_thresholds == seed_thresholds;
  const double utility_speedup = utility_batched_ms > 0.0
                                     ? utility_seed_ms / utility_batched_ms
                                     : std::numeric_limits<double>::infinity();

  // The batched analysis suite the sweep feeds, reported (not gated). A
  // warm-up pass absorbs one-time costs (thread pool spin-up, allocator).
  double boxplots_ms = 0.0, mimicry_ms = 0.0;
  (void)timed_suite(scenario, feature, boxplots_ms, mimicry_ms);
  const double suite_batched_ms = timed_suite(scenario, feature, boxplots_ms, mimicry_ms);
  timings.record("suite_batched", suite_batched_ms);
  timings.record("suite_batched_fig3a", boxplots_ms);
  timings.record("suite_batched_fig4b", mimicry_ms);

  // --- (b) raw kernel rows ------------------------------------------------
  const auto n = static_cast<std::size_t>(flags.get_int("kernel-samples"));
  const auto t = static_cast<std::size_t>(flags.get_int("kernel-queries"));
  const auto repeat = static_cast<std::size_t>(flags.get_int("kernel-repeat"));
  util::Xoshiro256 rng(42);
  std::vector<double> arena(n);
  for (double& v : arena) v = static_cast<double>(rng() % 400);
  const stats::EmpiricalDistribution dist(arena);
  std::sort(arena.begin(), arena.end());
  std::vector<double> sorted_queries(t), unsorted_queries(t);
  for (double& q : unsorted_queries) q = rng.uniform01() * 420.0 - 10.0;
  sorted_queries = unsorted_queries;
  std::sort(sorted_queries.begin(), sorted_queries.end());
  std::vector<std::uint32_t> ranks(t);
  const auto expected_sorted = oracle::upper_bound_ranks(arena, sorted_queries);
  const auto expected_unsorted = oracle::upper_bound_ranks(arena, unsorted_queries);
  // Each row's final ranks must equal the per-call upper_bound ranks.
  std::vector<std::string> rank_mismatches;
  const auto check_ranks = [&](const char* row, const std::vector<std::uint32_t>& expected) {
    if (ranks != expected) rank_mismatches.emplace_back(row);
  };

  const auto percall_start = Clock::now();
  for (std::size_t r = 0; r < repeat; ++r) {
    for (std::size_t j = 0; j < t; ++j) {
      ranks[j] = static_cast<std::uint32_t>(
          std::upper_bound(arena.begin(), arena.end(), sorted_queries[j]) - arena.begin());
    }
  }
  const double percall_ms = ms_since(percall_start);
  timings.record("kernel_sorted_percall_upper_bound", percall_ms);

  const auto sweep_start = Clock::now();
  for (std::size_t r = 0; r < repeat; ++r) dist.rank_batch(sorted_queries, ranks);
  const double sweep_ms = ms_since(sweep_start);
  timings.record("kernel_sorted_merge_scan", sweep_ms);
  check_ranks("merge-scan", expected_sorted);

  const auto unsorted_start = Clock::now();
  for (std::size_t r = 0; r < repeat; ++r) dist.rank_batch(unsorted_queries, ranks);
  const double unsorted_ms = ms_since(unsorted_start);
  timings.record("kernel_unsorted_binary_search", unsorted_ms);
  check_ranks("unsorted binary search", expected_unsorted);

  const double sweep_speedup =
      sweep_ms > 0.0 ? percall_ms / sweep_ms : std::numeric_limits<double>::infinity();

  util::TextTable table({"measurement", "value"});
  table.set_alignment({util::Align::Left, util::Align::Right});
  table.add_row({"distributions swept (users + pooled)", std::to_string(training.size())});
  table.add_row({"utility sweep, per-call seed path (ms)", util::fixed(utility_seed_ms, 1)});
  table.add_row({"utility sweep, batched kernels (ms)", util::fixed(utility_batched_ms, 1)});
  table.add_row({"utility sweep speedup", util::fixed(utility_speedup, 2) + "x"});
  table.add_row({"batched == per-call thresholds", thresholds_match ? "yes" : "NO"});
  table.add_row({"suite (fig3a+fig4b), batched kernels (ms)",
                 util::fixed(suite_batched_ms, 1)});
  table.add_row({"rank sweep x" + std::to_string(repeat) + ", per-call upper_bound (ms)",
                 util::fixed(percall_ms, 3)});
  table.add_row({"rank sweep x" + std::to_string(repeat) + ", merge-scan (ms)",
                 util::fixed(sweep_ms, 3)});
  table.add_row({"sorted-sweep speedup", util::fixed(sweep_speedup, 1) + "x"});
  table.add_row({"unsorted batch x" + std::to_string(repeat) + ", binary search (ms)",
                 util::fixed(unsorted_ms, 3)});
  table.add_row({"kernel ranks == per-call upper_bound", rank_mismatches.empty() ? "yes" : "NO"});
  std::cout << table.render();

  timings.write_if_requested(flags, "micro_kernels");
  bench::write_metrics_if_requested(flags);

  if (!thresholds_match) {
    std::cerr << "FAIL: batched and per-call utility thresholds diverged\n";
    return 1;
  }
  for (const std::string& row : rank_mismatches) {
    std::cerr << "FAIL: " << row << " ranks differ from per-call upper_bound\n";
  }
  if (!rank_mismatches.empty()) return 1;
  if (utility_speedup < min_speedup) {
    std::cerr << "FAIL: utility sweep speedup " << utility_speedup << "x below the "
              << min_speedup << "x target\n";
    return 1;
  }
  return 0;
}
