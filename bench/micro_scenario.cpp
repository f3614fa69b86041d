// Microbenchmark for trace synthesis (scenario_build).
//
// scenario_build — rendering every user's six feature series — dominates
// the wall time of every figure binary. This bench times the counter-mode
// feature renderer (API_TOUR.md §16) per user and end to end through
// build_scenario, and pins the contract's bytes with an FNV-1a digest over
// the raw bin storage. It exits nonzero when
//   - rendering the horizon in deliberately bin-count-hostile 97-bin tiles
//     (direct render_features_v2_tile calls) changes a single byte, or
//   - build_scenario's matrices differ from the per-user renders.
// The digest itself is printed, not gated here: it may change only when
// the draw contract does.
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "bench/common.hpp"
#include "sim/scenario.hpp"
#include "stats/kernels.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"

namespace {

using namespace monohids;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// FNV-1a over the raw bin storage of every series of every matrix: any
/// single-bit divergence between the render paths changes the digest.
std::uint64_t digest_matrices(const std::vector<features::FeatureMatrix>& matrices) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& m : matrices) {
    for (const auto& series : m.series) {
      const auto values = series.values();
      mix(values.data(), values.size() * sizeof(double));
    }
  }
  return h;
}

sim::ScenarioConfig config_from_flags(const util::CliFlags& flags) {
  sim::ScenarioConfig config;
  config.set_users(static_cast<std::uint32_t>(flags.get_int("users")));
  config.set_seed(static_cast<std::uint64_t>(flags.get_int("seed")));
  config.set_weeks(static_cast<std::uint32_t>(flags.get_int("weeks")));
  config.generator.grid =
      util::BinGrid::minutes(static_cast<std::uint64_t>(flags.get_int("bin-minutes")));
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::standard_flags("Microbenchmark: counter-mode trace synthesis");
  flags.add_int("repeat", 2, "timed passes (the minimum is reported)");
  if (!flags.parse(argc, argv)) return 0;
  bench::PhaseTimings timings;
  bench::echo_standard_config(timings, flags);
  const auto repeat = std::max<std::int64_t>(1, flags.get_int("repeat"));
  timings.config("simd_backend",
                 std::string(stats::kernels::backend_name(stats::kernels::active_backend())));

  bench::banner("micro_scenario",
                "trace synthesis renders the same bytes for every tile partition");

  const sim::ScenarioConfig config = config_from_flags(flags);
  std::cout << "# users=" << flags.get_int("users") << " seed=" << flags.get_int("seed")
            << " weeks=" << flags.get_int("weeks")
            << " bin-minutes=" << flags.get_int("bin-minutes") << '\n';

  // --- (a) per-user generation on a fixed population ----------------------
  const auto users = trace::generate_population(config.population);
  const trace::TraceGenerator generator(config.generator);
  const auto render_all = [&] {
    std::vector<features::FeatureMatrix> matrices;
    matrices.reserve(users.size());
    for (const auto& u : users) matrices.push_back(generator.generate_features(u));
    return matrices;
  };

  // Warm-up pass absorbs one-time costs (draw-table construction, allocator
  // growth) outside the measured passes.
  std::uint64_t digest = digest_matrices(render_all());
  double features_ms = std::numeric_limits<double>::infinity();
  for (std::int64_t r = 0; r < repeat; ++r) {
    const auto start = Clock::now();
    const auto matrices = render_all();
    features_ms = std::min(features_ms, ms_since(start));
    digest = digest_matrices(matrices);
  }
  timings.record("features_v2", features_ms);

  // --- (b) tile-partition invariance --------------------------------------
  bool tile_invariant = true;
  {
    constexpr std::uint64_t kTile = 97;  // deliberately bin-count-hostile
    const util::BinGrid grid = generator.config().grid;
    const util::Duration horizon = generator.config().horizon();
    const std::uint64_t bins = grid.bin_count(horizon);
    std::vector<features::FeatureMatrix> matrices(users.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      for (auto& series : matrices[i].series) series = features::BinnedSeries(grid, horizon);
      for (std::uint64_t b = 0; b < bins; b += kTile) {
        generator.render_features_v2_tile(users[i], b, std::min(bins, b + kTile),
                                          matrices[i]);
      }
    }
    tile_invariant = digest_matrices(matrices) == digest;
  }

  // --- (c) the headline: end-to-end scenario_build -------------------------
  // Checked against the per-user digest from (a): build_scenario renders the
  // same population user for user, on any thread count.
  double build_ms = 0.0;
  std::uint64_t build_digest = 0;
  {
    const auto start = Clock::now();
    const auto scenario = sim::build_scenario(config);
    build_ms = ms_since(start);
    build_digest = digest_matrices(scenario.matrices);
  }
  timings.record("scenario_build_v2", build_ms);
  const bool build_matches = build_digest == digest;

  util::TextTable table({"measurement", "value"});
  table.set_alignment({util::Align::Left, util::Align::Right});
  table.add_row({"SIMD back-end (dispatched)",
                 std::string(stats::kernels::backend_name(stats::kernels::active_backend()))});
  table.add_row({"per-user generation (ms)", util::fixed(features_ms, 1)});
  table.add_row({"scenario_build (ms)", util::fixed(build_ms, 1)});
  table.add_row({"scenario_build == per-user bytes", build_matches ? "yes" : "NO"});
  table.add_row({"v2 tile-partition invariant", tile_invariant ? "yes" : "NO"});
  table.add_row({"v2 digest", std::to_string(digest % 100000)});
  std::cout << table.render();

  timings.write_if_requested(flags, "micro_scenario");
  bench::write_metrics_if_requested(flags);

  if (!build_matches) {
    std::cerr << "FAIL: build_scenario and per-user generation diverged\n";
    return 1;
  }
  if (!tile_invariant) {
    std::cerr << "FAIL: v2 digest changed under a different bin-tile partition\n";
    return 1;
  }
  return 0;
}
