// Batch-path workloads: the paper's study recomputed from configuration.
//
//   table3_cold   — every pass synthesizes a fresh 350-user, 5-week
//                   scenario (its own seed) and reduces it to Table 3.
//   policy_sweep  — the set-up step builds a dataset; the pass after it
//                   clears the analysis cache and sweeps Table 3 plus the
//                   re-optimized weight sweep over all six features.
//
// Timed passes call the product entry points (sim::build_scenario,
// sim::alarm_rates, sim::weight_sweep). The traced run rebuilds each pass
// from layer calls with spans around them (the replica) and checks that
// the replica's numbers equal the entry points' bit for bit.
#include <cstring>
#include <memory>

#include "common.hpp"
#include "sim/analysis_cache.hpp"
#include "sim/config_io.hpp"
#include "sim/experiments.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

namespace {

using namespace monohids;
using features::FeatureKind;

constexpr double kTable3Weight = 0.4;
const std::vector<double> kSweepWeights = {0.2, 0.4, 0.6, 0.8};

/// The serialized scenario configuration a batch study starts from.
std::string scenario_text(const Options& options) {
  sim::ScenarioConfig config;
  config.set_users(options.smoke ? 40 : 350);
  config.set_weeks(5);
  config.set_seed(options.seed);
  return sim::serialize_scenario_config(config);
}

/// Forwards to the scenario's AnalysisCache, with a span around each lookup.
class TimedCache final : public hids::DistributionCache {
 public:
  explicit TimedCache(sim::AnalysisCache& inner) : inner_(inner) {}

  std::shared_ptr<const DistributionSet> week(FeatureKind feature, std::uint32_t week,
                                              unsigned threads) override {
    const spans::Scope span("sim.cache_week");
    return inner_.week(feature, week, threads);
  }

  std::shared_ptr<const hids::ThresholdAssignment> thresholds(
      FeatureKind feature, std::uint32_t train_week, const hids::Grouper& grouper,
      const hids::ThresholdHeuristic& heuristic, const hids::AttackModel* attack,
      unsigned threads) override {
    const bool percentile = dynamic_cast<const hids::PercentileHeuristic*>(&heuristic) != nullptr;
    const spans::Scope span(percentile ? "hids.thresholds_p99" : "hids.thresholds_utility");
    return inner_.thresholds(feature, train_week, grouper, heuristic, attack, threads);
  }

 private:
  sim::AnalysisCache& inner_;
};

// ------------------------------------------------------------ replicas

/// build_scenario (bin fidelity) from its layer calls.
sim::Scenario replica_build(const sim::ScenarioConfig& config) {
  sim::Scenario scenario;
  scenario.config = config;
  {
    const spans::Scope span("trace.population");
    scenario.users = trace::generate_population(config.population);
  }
  const trace::TraceGenerator generator(config.generator);
  const spans::Scope span("trace.synthesis");
  const std::int64_t parent = span.id();
  scenario.matrices = util::parallel_map(
      scenario.users.size(),
      [&](std::size_t u) {
        const spans::Scope user_span("trace.generate_features", parent);
        return generator.generate_features(scenario.users[u]);
      },
      config.threads);
  return scenario;
}

hids::AttackModel replica_attack(const sim::Scenario& scenario, TimedCache& cache,
                                 FeatureKind feature) {
  const std::uint32_t train_week = sim::canonical_rounds().front().train_week;
  // Fetch the training week first so its build is attributed to the cache
  // layer rather than to the attack model that would otherwise trigger it.
  (void)cache.week(feature, train_week, 0);
  const spans::Scope span("sim.attack_model");
  return *scenario.analysis().attack_model(feature, train_week);
}

hids::PolicyOutcome replica_evaluate(const sim::Scenario& scenario, TimedCache& cache,
                                     FeatureKind feature, const hids::Grouper& grouper,
                                     const hids::ThresholdHeuristic& heuristic,
                                     const hids::AttackModel& attack) {
  const auto rounds = sim::canonical_rounds();
  const spans::Scope span("hids.evaluate_rounds");
  return hids::evaluate_rounds(scenario.matrices, feature, rounds, grouper, heuristic, attack, 0,
                               &cache);
}

/// sim::alarm_rates from its layer calls.
sim::AlarmRateResult replica_alarm_rates(const sim::Scenario& scenario, FeatureKind feature) {
  TimedCache cache(scenario.analysis());
  const hids::AttackModel attack = replica_attack(scenario, cache, feature);
  const hids::PercentileHeuristic p99(0.99);
  const hids::UtilityHeuristic utility(kTable3Weight);
  sim::AlarmRateResult result;
  const auto groupers = sim::canonical_groupers();
  for (const auto& g : groupers) result.policy_names.push_back(g->name());
  for (const hids::ThresholdHeuristic* h : {static_cast<const hids::ThresholdHeuristic*>(&p99),
                                            static_cast<const hids::ThresholdHeuristic*>(&utility)}) {
    result.heuristic_names.push_back(h->name());
    std::vector<double> row;
    for (const auto& grouper : groupers) {
      const auto outcome = replica_evaluate(scenario, cache, feature, *grouper, *h, attack);
      row.push_back(static_cast<double>(outcome.total_false_alarms()));
    }
    result.alarms.push_back(std::move(row));
  }
  return result;
}

/// sim::weight_sweep(reoptimize_per_weight = true) from its layer calls.
sim::WeightSweepResult replica_weight_sweep(const sim::Scenario& scenario, FeatureKind feature) {
  TimedCache cache(scenario.analysis());
  const hids::AttackModel attack = replica_attack(scenario, cache, feature);
  sim::WeightSweepResult result;
  result.weights = kSweepWeights;
  const auto groupers = sim::canonical_groupers();
  result.mean_utility.resize(groupers.size());
  for (std::size_t g = 0; g < groupers.size(); ++g) {
    result.policy_names.push_back(groupers[g]->name());
    for (double w : kSweepWeights) {
      const hids::UtilityHeuristic heuristic(w);
      const auto outcome = replica_evaluate(scenario, cache, feature, *groupers[g], heuristic, attack);
      result.mean_utility[g].push_back(outcome.mean_utility(w));
    }
  }
  return result;
}

// ------------------------------------------------------------ checks

void digest_table(Fnv1a& fnv, const std::vector<std::vector<double>>& table) {
  for (const auto& row : table) fnv.update(row.data(), row.size() * sizeof(double));
}

std::uint64_t matrices_digest(const sim::Scenario& scenario) {
  Fnv1a fnv;
  for (const auto& matrix : scenario.matrices) {
    for (const auto& series : matrix.series) {
      fnv.update(series.values().data(), series.values().size() * sizeof(double));
    }
  }
  return fnv.digest();
}

bool same_matrices(const sim::Scenario& a, const sim::Scenario& b) {
  if (a.matrices.size() != b.matrices.size()) return false;
  for (std::size_t u = 0; u < a.matrices.size(); ++u) {
    for (std::size_t f = 0; f < features::kFeatureCount; ++f) {
      const auto x = a.matrices[u].series[f].values();
      const auto y = b.matrices[u].series[f].values();
      if (x.size() != y.size() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// The paper's Table 3 finding in the form that holds for every population
/// seed: the homogeneous policy raises the most alarms under the utility
/// heuristic and over both heuristic rows together. (Under the
/// 99th-percentile heuristic alone, full diversity edges past it on some
/// seeds.)
bool monoculture_dominates(const sim::AlarmRateResult& t3) {
  const auto& p99 = t3.alarms.at(0);
  const auto& utility = t3.alarms.at(1);
  auto total = [&](std::size_t policy) { return p99.at(policy) + utility.at(policy); };
  return utility.at(0) > utility.at(1) && utility.at(0) > utility.at(2) &&
         total(0) > total(1) && total(0) > total(2);
}

std::string table_text(const sim::AlarmRateResult& t3) {
  std::string text;
  for (const auto& row : t3.alarms) {
    for (double v : row) text += std::to_string(static_cast<long long>(v)) + " ";
    text += "| ";
  }
  return text;
}

/// One policy_sweep pass's outputs.
struct SweepOutputs {
  std::vector<sim::AlarmRateResult> tables;
  std::vector<sim::WeightSweepResult> sweeps;

  [[nodiscard]] std::uint64_t digest() const {
    Fnv1a fnv;
    for (const auto& t : tables) digest_table(fnv, t.alarms);
    for (const auto& s : sweeps) digest_table(fnv, s.mean_utility);
    return fnv.digest();
  }
};

SweepOutputs sweep_pass(const sim::Scenario& scenario, bool replica) {
  scenario.analysis().clear();
  SweepOutputs out;
  for (FeatureKind f : features::kAllFeatures) {
    if (replica) {
      out.tables.push_back(replica_alarm_rates(scenario, f));
      out.sweeps.push_back(replica_weight_sweep(scenario, f));
    } else {
      out.tables.push_back(sim::alarm_rates(scenario, f, kTable3Weight));
      out.sweeps.push_back(sim::weight_sweep(scenario, f, kSweepWeights, true));
    }
  }
  return out;
}

// ------------------------------------------------------------ trace reduction

void add_layers(Samples& layers, const SpanTotals& totals) {
  layers.add("trace.population_ms", span_ms(totals, "trace.population", false));
  layers.add("trace.synthesis_ms", span_ms(totals, "trace.synthesis", false));
  layers.add("trace.synthesis_busy_ms", span_ms(totals, "trace.generate_features", false));
  layers.add("sim.attack_model_ms", span_ms(totals, "sim.attack_model", false));
  layers.add("sim.cache_week_ms", span_ms(totals, "sim.cache_week", false));
  layers.add("hids.thresholds_p99_ms", span_ms(totals, "hids.thresholds_p99", false));
  layers.add("hids.thresholds_utility_ms", span_ms(totals, "hids.thresholds_utility", false));
  layers.add("hids.evaluate_ms", span_ms(totals, "hids.evaluate_rounds", true));
}

void add_cache(Samples& layers, const sim::AnalysisCache::Counters& before,
               const sim::AnalysisCache::Counters& after) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  layers.add("sim.cache_misses", misses);
  layers.add("sim.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
}

void report_layers(Report& report, const Samples& layers) {
  layers.report(report);
  const double synthesis = layers.med("trace.synthesis_ms");
  report.set("trace.synthesis_efficiency",
             synthesis > 0.0 ? layers.med("trace.synthesis_busy_ms") /
                                   (synthesis * util::default_thread_count())
                             : 0.0);
}

}  // namespace

void run_table3_cold(const Options& options, Report& report) {
  const std::string text = scenario_text(options);
  // The set-up step reads the scenario configuration. Every pass draws a
  // fresh population: synthesis cost varies by about +-15% between 350-user
  // populations, so a run averages over many.
  auto config_for = [&](std::size_t pass) {
    sim::ScenarioConfig config = sim::parse_scenario_config(text);
    config.set_seed(mix_seed(options.seed, pass));
    return config;
  };
  auto runner_pass = [&](std::size_t pass, sim::Scenario& scenario, sim::AlarmRateResult& t3) {
    scenario = sim::Scenario{};
    Timing t;
    Stopwatch watch;
    const sim::ScenarioConfig config = config_for(pass);
    t.setup = watch.lap();
    scenario = sim::build_scenario(config);
    t3 = sim::alarm_rates(scenario, FeatureKind::TcpConnections, kTable3Weight);
    t.pass = watch.lap();
    return t;
  };

  if (!options.trace) {
    std::uint64_t matrix_digest = 0;
    std::uint64_t table_digest = 0;
    measure(options.seconds, util::default_thread_count(), report, [&](std::size_t pass) {
      sim::Scenario scenario;
      sim::AlarmRateResult t3;
      const Timing t = runner_pass(pass, scenario, t3);
      report.operation(monoculture_dominates(t3), "Table 3 monoculture dominance, pass " +
                                                     std::to_string(pass) + ": " + table_text(t3));
      if (pass == 0) {
        matrix_digest = matrices_digest(scenario);
        Fnv1a fnv;
        digest_table(fnv, t3.alarms);
        table_digest = fnv.digest();
      }
      return t;
    });
    // Verification: the layer-call replica of pass 0 reproduces the entry
    // points' scenario and Table 3 exactly.
    const sim::Scenario replica = replica_build(config_for(0));
    report.check(matrices_digest(replica) == matrix_digest, "replica scenario digest");
    Fnv1a fnv;
    digest_table(fnv, replica_alarm_rates(replica, FeatureKind::TcpConnections).alarms);
    report.check(fnv.digest() == table_digest, "replica Table 3 digest");
    report.note("scenario_digest", hex(matrix_digest));
    report.note("output_digest", hex(table_digest));
    return;
  }

  // Traced run: each replica pass runs on the seed of the entry-point pass
  // before it and must reproduce its scenario and Table 3 exactly.
  Samples layers;
  sim::Scenario scenario;
  sim::AlarmRateResult t3;
  traced_pairs(
      options.seconds, options.workdir + "/trace-table3_cold.json", report,
      [&](std::size_t pass) {
        const Timing t = runner_pass(pass, scenario, t3);
        report.operation(monoculture_dominates(t3), "Table 3 monoculture dominance");
        return t;
      },
      [&](std::size_t pass) {
        const auto start = Clock::now();
        sim::Scenario replica;
        sim::AlarmRateResult replica_t3;
        {
          const spans::Scope root("pass");
          replica = replica_build(config_for(pass));
          replica_t3 = replica_alarm_rates(replica, FeatureKind::TcpConnections);
        }
        const double seconds = seconds_since(start);
        add_cache(layers, {}, replica.analysis().counters());
        report.operation(same_matrices(scenario, replica) && replica_t3.alarms == t3.alarms,
                         "replica equals build_scenario + alarm_rates");
        return seconds;
      },
      [&](const SpanTotals& totals) { add_layers(layers, totals); });
  report_layers(report, layers);
}

void run_policy_sweep(const Options& options, Report& report) {
  const std::string text = scenario_text(options);
  // Sweep cost depends on the dataset (by up to 1.5x between population
  // seeds), so each pass sweeps its own dataset, built by the set-up step
  // before it, and a run averages over many.
  sim::Scenario scenario;
  auto runner_pass = [&](std::size_t pass, SweepOutputs& out) {
    scenario = sim::Scenario{};  // one dataset in memory at a time
    Timing t;
    Stopwatch watch;
    sim::ScenarioConfig config = sim::parse_scenario_config(text);
    config.set_seed(mix_seed(options.seed, pass));
    scenario = sim::build_scenario(config);
    (void)scenario.analysis();
    t.setup = watch.lap();
    out = sweep_pass(scenario, false);
    t.pass = watch.lap();
    return t;
  };
  auto dominance = [&](const SweepOutputs& out) {
    report.operation(monoculture_dominates(out.tables[features::index_of(FeatureKind::TcpConnections)]),
                     "Table 3 monoculture dominance");
  };

  if (!options.trace) {
    measure(options.seconds, util::default_thread_count(), report, [&](std::size_t pass) {
      SweepOutputs out;
      const Timing t = runner_pass(pass, out);
      dominance(out);
      if (pass == 0) {
        // Verification: the layer-call replica reproduces the sweep exactly.
        report.check(sweep_pass(scenario, true).digest() == out.digest(), "replica sweep digest");
        report.note("scenario_digest", hex(matrices_digest(scenario)));
        report.note("output_digest", hex(out.digest()));
      }
      return t;
    });
    return;
  }

  Samples layers;
  SweepOutputs out;
  traced_pairs(
      options.seconds, options.workdir + "/trace-policy_sweep.json", report,
      [&](std::size_t pass) {
        const Timing t = runner_pass(pass, out);
        dominance(out);
        return t;
      },
      [&](std::size_t) {
        const auto before = scenario.analysis().counters();
        const auto start = Clock::now();
        SweepOutputs replica;
        {
          const spans::Scope root("pass");
          replica = sweep_pass(scenario, true);
        }
        const double seconds = seconds_since(start);
        add_cache(layers, before, scenario.analysis().counters());
        report.operation(replica.digest() == out.digest(),
                         "replica equals alarm_rates + weight_sweep");
        return seconds;
      },
      [&](const SpanTotals& totals) { add_layers(layers, totals); });
  report_layers(report, layers);
}

}  // namespace e2e
