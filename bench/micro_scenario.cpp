// Microbenchmark for the batched trace-synthesis pipeline (scenario_build).
//
// scenario_build — rendering every user's six feature series — dominates
// the wall time of every figure binary. This bench A/Bs the seed
// per-(bin, app) loop (oracle::generate_features_seed, tests/oracle)
// against the batched pipeline (precomputed diurnal/episode rate tables,
// prepared Poisson rows, integer-threshold footprint tables, SoA staging
// through the dispatched widen kernel) on the same population, verifying
// the per-user matrices and the end-to-end build_scenario output are
// BIT-identical to the oracle via an FNV-1a digest over the raw bin bytes.
// Exits nonzero when a digest diverges or the speedup lands below
// --min-speedup.
//
// Speedup context for the default 350-user x 5-week scenario: both v1 paths
// must consume the identical ~180M-draw engine stream serially per user
// (the bit-identity contract pins draw order), which floors the batched
// path at ~250 ms of pure RNG stepping on a ~2 GHz core — about 2.2x below
// the seed path's ~1.9 s all by itself. The measured ~3x is therefore most
// of what draw-order-preserving batching can reach; see API_TOUR.md §13.
//
// The v2 counter-mode contract (API_TOUR.md §16) is the answer to that
// floor: per-(user, bin) Philox streams remove the serial dependency, so
// the bench also times the v2 renderer on the same population, verifies the
// bin-tile partition does not change a byte of output, and gates the v2
// speedup over the batched v1 path with --min-speedup-v2.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "bench/common.hpp"
#include "oracle/generator.hpp"
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
  // The oracle A/B is the v1 contract's: pinned, whatever the default.
  config.generator.scenario_version = trace::ScenarioVersion::V1;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::standard_flags(
      "Microbenchmark: batched trace synthesis vs the per-(bin, app) seed path");
  flags.add_double("min-speedup", 2.5,
                   "fail when the per-user generation speedup is below this");
  flags.add_double("min-speedup-v2", 2.0,
                   "fail when the v2 counter-mode speedup over the batched "
                   "v1 path is below this");
  flags.add_int("repeat", 2, "timed passes per mode (the minimum is reported)");
  // The oracle A/B runs the v1 contract (config_from_flags pins it); the
  // config echo says so.
  flags.set_default_int("scenario-version", 1);
  if (!flags.parse(argc, argv)) return 0;
  bench::PhaseTimings timings;
  bench::echo_standard_config(timings, flags);
  const double min_speedup = flags.get_double("min-speedup");
  const double min_speedup_v2 = flags.get_double("min-speedup-v2");
  const auto repeat = std::max<std::int64_t>(1, flags.get_int("repeat"));
  timings.config("min_speedup", util::fixed(min_speedup, 2));
  timings.config("min_speedup_v2", util::fixed(min_speedup_v2, 2));
  timings.config("simd_backend",
                 std::string(stats::kernels::backend_name(stats::kernels::active_backend())));

  bench::banner("micro_scenario",
                "batched trace synthesis renders bit-identical Scenarios >= " +
                    std::string(util::fixed(min_speedup, 1)) +
                    "x faster than the per-(bin, app) seed path");

  const sim::ScenarioConfig config = config_from_flags(flags);
  std::cout << "# users=" << flags.get_int("users") << " seed=" << flags.get_int("seed")
            << " weeks=" << flags.get_int("weeks")
            << " bin-minutes=" << flags.get_int("bin-minutes") << '\n';

  // --- (a) per-user generation A/B on a fixed population ------------------
  const auto users = trace::generate_population(config.population);
  const trace::TraceGenerator generator(config.generator);

  const auto render_all = [&](bool batched) {
    std::vector<features::FeatureMatrix> matrices;
    matrices.reserve(users.size());
    for (const auto& u : users) {
      matrices.push_back(batched ? generator.generate_features(u)
                                 : oracle::generate_features_seed(config.generator, u));
    }
    return matrices;
  };

  // Warm-up pass absorbs one-time costs (footprint-table construction,
  // allocator growth) outside the measured A/B pair.
  std::uint64_t batched_digest = digest_matrices(render_all(true));

  double reference_ms = std::numeric_limits<double>::infinity();
  double batched_ms = std::numeric_limits<double>::infinity();
  std::uint64_t reference_digest = 0;
  for (std::int64_t r = 0; r < repeat; ++r) {
    auto start = Clock::now();
    const auto reference = render_all(false);
    reference_ms = std::min(reference_ms, ms_since(start));
    reference_digest = digest_matrices(reference);

    start = Clock::now();
    const auto batched = render_all(true);
    batched_ms = std::min(batched_ms, ms_since(start));
    batched_digest = digest_matrices(batched);
  }
  timings.record("features_reference", reference_ms);
  timings.record("features_batched", batched_ms);

  const bool digests_match = reference_digest == batched_digest;
  const double speedup = batched_ms > 0.0 ? reference_ms / batched_ms
                                          : std::numeric_limits<double>::infinity();

  // --- (a') the v2 counter-mode contract on the same population -----------
  // Different draw contract, so no digest comparison against v1; instead
  // the bench pins the v2 invariance claim cheaply (bin-tile partition must
  // not change a single byte) and gates the speedup over the v1 batched
  // path — the serial-draw floor the contract change exists to break.
  sim::ScenarioConfig v2_config = config;
  v2_config.generator.scenario_version = trace::ScenarioVersion::V2;
  const trace::TraceGenerator v2_generator(v2_config.generator);
  const auto render_all_v2 = [&] {
    std::vector<features::FeatureMatrix> matrices;
    matrices.reserve(users.size());
    for (const auto& u : users) matrices.push_back(v2_generator.generate_features(u));
    return matrices;
  };

  std::uint64_t v2_digest = digest_matrices(render_all_v2());  // warm-up
  double v2_ms = std::numeric_limits<double>::infinity();
  for (std::int64_t r = 0; r < repeat; ++r) {
    const auto start = Clock::now();
    const auto v2 = render_all_v2();
    v2_ms = std::min(v2_ms, ms_since(start));
    v2_digest = digest_matrices(v2);
  }
  timings.record("features_v2", v2_ms);
  const double v2_speedup = v2_ms > 0.0 ? batched_ms / v2_ms
                                        : std::numeric_limits<double>::infinity();

  bool v2_tile_invariant = true;
  {
    auto tiled_config = v2_config;
    tiled_config.generator.v2_bin_tile = 97;  // deliberately bin-count-hostile
    const trace::TraceGenerator tiled(tiled_config.generator);
    std::vector<features::FeatureMatrix> matrices;
    matrices.reserve(users.size());
    for (const auto& u : users) matrices.push_back(tiled.generate_features(u));
    v2_tile_invariant = digest_matrices(matrices) == v2_digest;
  }

  // --- (b) the headline: end-to-end scenario_build -------------------------
  // Checked against the oracle digest from (a): build_scenario renders the
  // same population user for user, on any thread count.
  double build_batched_ms = 0.0;
  std::uint64_t build_batched_digest = 0;
  {
    const auto start = Clock::now();
    const auto scenario = sim::build_scenario(config);
    build_batched_ms = ms_since(start);
    build_batched_digest = digest_matrices(scenario.matrices);
  }
  timings.record("scenario_build", build_batched_ms);
  const bool build_digests_match = build_batched_digest == reference_digest;

  double build_v2_ms = 0.0;
  {
    const auto start = Clock::now();
    const auto scenario = sim::build_scenario(v2_config);
    build_v2_ms = ms_since(start);
  }
  timings.record("scenario_build_v2", build_v2_ms);

  util::TextTable table({"measurement", "value"});
  table.set_alignment({util::Align::Left, util::Align::Right});
  table.add_row({"SIMD back-end (dispatched)",
                 std::string(stats::kernels::backend_name(stats::kernels::active_backend()))});
  table.add_row({"per-user generation, seed path (ms)", util::fixed(reference_ms, 1)});
  table.add_row({"per-user generation, batched (ms)", util::fixed(batched_ms, 1)});
  table.add_row({"generation speedup", util::fixed(speedup, 2) + "x"});
  table.add_row({"scenario_build, batched (ms)", util::fixed(build_batched_ms, 1)});
  table.add_row({"batched == seed Scenario bytes",
                 digests_match && build_digests_match ? "yes" : "NO"});
  table.add_row({"digest", std::to_string(batched_digest % 100000)});
  table.add_row({"per-user generation, v2 counter-mode (ms)", util::fixed(v2_ms, 1)});
  table.add_row({"v2 speedup over batched", util::fixed(v2_speedup, 2) + "x"});
  table.add_row({"scenario_build, v2 (ms)", util::fixed(build_v2_ms, 1)});
  table.add_row({"v2 tile-partition invariant", v2_tile_invariant ? "yes" : "NO"});
  table.add_row({"v2 digest", std::to_string(v2_digest % 100000)});
  std::cout << table.render();

  timings.write_if_requested(flags, "micro_scenario");
  bench::write_metrics_if_requested(flags);

  if (!digests_match || !build_digests_match) {
    std::cerr << "FAIL: batched and seed generation diverged\n";
    return 1;
  }
  if (speedup < min_speedup) {
    std::cerr << "FAIL: generation speedup " << speedup << "x below the " << min_speedup
              << "x target\n";
    return 1;
  }
  if (!v2_tile_invariant) {
    std::cerr << "FAIL: v2 digest changed under a different bin-tile partition\n";
    return 1;
  }
  if (v2_speedup < min_speedup_v2) {
    std::cerr << "FAIL: v2 speedup " << v2_speedup << "x over the batched path is below "
              << "the " << min_speedup_v2 << "x target\n";
    return 1;
  }
  return 0;
}
