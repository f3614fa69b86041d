// Substrate microbenchmarks (google-benchmark): throughput of the pieces a
// production deployment would care about — the flow table, the feature
// pipeline, quantile estimation (exact vs streaming), threshold assignment
// and the trace generators.
#include <benchmark/benchmark.h>

#include "features/pipeline.hpp"
#include "hids/detector.hpp"
#include "hids/evaluator.hpp"
#include "sim/scenario.hpp"
#include "stats/gk_sketch.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/quantile.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "trace/storm.hpp"

namespace {

using namespace monohids;

std::vector<net::PacketRecord> benchmark_packets(std::size_t target) {
  trace::PopulationConfig pop;
  pop.user_count = 1;
  trace::GeneratorConfig config;
  config.weeks = 1;
  const trace::TraceGenerator gen(config);
  auto users = trace::generate_population(pop);
  // Scale one busy user until the day produces enough packets.
  for (auto& rate : users[0].session_rate_per_hour) rate *= 20.0;
  auto packets = gen.generate_packets(users[0], 0, util::kMicrosPerDay);
  while (packets.size() < target && packets.size() > 100) {
    auto more = packets;
    for (auto& p : more) p.timestamp += packets.back().timestamp + 1;
    packets.insert(packets.end(), more.begin(), more.end());
  }
  return packets;
}

void BM_FlowTableProcess(benchmark::State& state) {
  const auto packets = benchmark_packets(200'000);
  const auto monitored = packets.front().tuple.src_ip;
  for (auto _ : state) {
    net::FlowTable table(monitored);
    for (const auto& p : packets) {
      table.process(p);
      benchmark::DoNotOptimize(table.active_flows());
    }
    state.counters["packets"] = static_cast<double>(packets.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * packets.size()));
}
BENCHMARK(BM_FlowTableProcess)->Unit(benchmark::kMillisecond);

void BM_FeaturePipeline(benchmark::State& state) {
  const auto packets = benchmark_packets(200'000);
  const auto monitored = packets.front().tuple.src_ip;
  features::PipelineConfig config;
  config.horizon = 8 * util::kMicrosPerWeek;
  for (auto _ : state) {
    const auto result = features::extract_features(monitored, packets, config);
    benchmark::DoNotOptimize(result.flow_stats.packets_processed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * packets.size()));
}
BENCHMARK(BM_FeaturePipeline)->Unit(benchmark::kMillisecond);

void BM_ExactQuantile(benchmark::State& state) {
  util::Xoshiro256 rng(5);
  std::vector<double> samples;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) samples.push_back(rng.uniform01() * 1e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::quantile_nearest_rank(samples, 0.99));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ExactQuantile)->Arg(672)->Arg(672 * 5)->Arg(100000);

void BM_P2Quantile(benchmark::State& state) {
  util::Xoshiro256 rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> samples;
  for (std::size_t i = 0; i < n; ++i) samples.push_back(rng.uniform01() * 1e6);
  for (auto _ : state) {
    stats::P2Quantile sketch(0.99);
    for (double v : samples) sketch.add(v);
    benchmark::DoNotOptimize(sketch.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_P2Quantile)->Arg(672 * 5)->Arg(100000);

void BM_GkSketch(benchmark::State& state) {
  util::Xoshiro256 rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> samples;
  for (std::size_t i = 0; i < n; ++i) samples.push_back(rng.uniform01() * 1e6);
  for (auto _ : state) {
    stats::GkSketch sketch(0.01);
    for (double v : samples) sketch.add(v);
    benchmark::DoNotOptimize(sketch.quantile(0.99));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_GkSketch)->Arg(672 * 5)->Arg(100000);

void BM_BinLevelGeneration(benchmark::State& state) {
  trace::PopulationConfig pop;
  pop.user_count = static_cast<std::uint32_t>(state.range(0));
  const auto users = trace::generate_population(pop);
  const trace::TraceGenerator gen{trace::GeneratorConfig{}};
  for (auto _ : state) {
    for (const auto& u : users) {
      benchmark::DoNotOptimize(gen.generate_features(u));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * users.size()));
}
BENCHMARK(BM_BinLevelGeneration)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_ThresholdAssignment(benchmark::State& state) {
  sim::ScenarioConfig config;
  config.set_users(static_cast<std::uint32_t>(state.range(0)));
  config.set_weeks(1);
  const auto scenario = sim::build_scenario(config);
  const auto train = hids::week_distributions(scenario.matrices,
                                              features::FeatureKind::TcpConnections, 0);
  const hids::PercentileHeuristic p99(0.99);
  const hids::KneePartialGrouper grouper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hids::assign_thresholds(train, grouper, p99));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * train.size()));
}
BENCHMARK(BM_ThresholdAssignment)->Arg(50)->Arg(350)->Unit(benchmark::kMillisecond);

void BM_StormGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::generate_storm_features({}));
  }
}
BENCHMARK(BM_StormGeneration)->Unit(benchmark::kMillisecond);

// --- rank rows -------------------------------------------------------------
// Count-valued samples mirror real traffic features (heavy ties); every
// rank query goes through EmpiricalDistribution's runs.

stats::EmpiricalDistribution kernel_distribution(std::size_t n) {
  util::Xoshiro256 rng(7);
  std::vector<double> samples(n);
  for (double& v : samples) v = static_cast<double>(rng() % 400);
  return stats::EmpiricalDistribution(std::move(samples));
}

void BM_KernelRankSortedSweep(benchmark::State& state) {
  const auto dist = kernel_distribution(30'000);
  util::Xoshiro256 rng(11);
  std::vector<double> queries(4000);
  for (double& q : queries) q = rng.uniform01() * 420.0 - 10.0;
  std::sort(queries.begin(), queries.end());
  std::vector<std::uint32_t> ranks(queries.size());
  for (auto _ : state) {
    dist.rank_batch(queries, ranks);
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * queries.size()));
}
BENCHMARK(BM_KernelRankSortedSweep);

void BM_KernelRankUnsortedBatch(benchmark::State& state) {
  const auto dist = kernel_distribution(30'000);
  util::Xoshiro256 rng(13);
  std::vector<double> queries(4000);
  for (double& q : queries) q = rng.uniform01() * 420.0 - 10.0;
  std::vector<std::uint32_t> ranks(queries.size());
  for (auto _ : state) {
    dist.rank_batch(queries, ranks);
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * queries.size()));
}
BENCHMARK(BM_KernelRankUnsortedBatch);

void BM_AttackMeanFnBatch(benchmark::State& state) {
  const auto dist = kernel_distribution(10'000);
  util::Xoshiro256 rng(17);
  std::vector<double> thresholds(600);
  for (double& t : thresholds) t = rng.uniform01() * 400.0;
  std::sort(thresholds.begin(), thresholds.end());
  hids::AttackModel attack;
  for (std::size_t i = 0; i < 64; ++i) attack.sizes.push_back(static_cast<double>(i + 1));
  std::vector<double> fn(thresholds.size());
  for (auto _ : state) {
    attack.mean_fn_batch(dist, thresholds, fn);
    benchmark::DoNotOptimize(fn.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * thresholds.size() * attack.sizes.size()));
}
BENCHMARK(BM_AttackMeanFnBatch)->Unit(benchmark::kMillisecond);

void BM_DetectorCountAlarms(benchmark::State& state) {
  util::Xoshiro256 rng(19);
  std::vector<double> bins(100'000);
  for (double& v : bins) v = static_cast<double>(rng() % 50);
  const hids::ThresholdDetector detector(40.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.count_alarms(bins));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * bins.size()));
}
BENCHMARK(BM_DetectorCountAlarms);

}  // namespace

BENCHMARK_MAIN();
