// Batched implementation of TraceGenerator::generate_features.
//
// The seed path pays per (bin, app) for work that is constant across most
// bins: activity_at (two raised-cosine bumps), exp(-lambda) inside
// sample_poisson, and a virtual-free but allocation-heavy footprint switch
// per session. This path restructures the same computation into stages —
//
//   1. rate tables: activity per bin-of-week (the diurnal curve is weekly
//      periodic, so one week of activity_at calls covers any horizon),
//      episode boosts per bin (the EpisodeProcess stepped exactly as the
//      seed path steps it),
//   2. prepared Poisson rows per (app, bin) through the stats::sampling
//      batch API, with consecutive equal means (night floors, weekend
//      plateaus) sharing one exp,
//   3. one RNG-only session loop per bin that tallies integer footprints
//      into SoA staging buffers, with every footprint decision reduced to
//      integer threshold compares (trace/batched_tables.hpp),
//   4. float post-processing: pure widening through the stats::kernels
//      dispatch layer, then the resolver-cache / distinct-destination math
//      per bin.
//
// Bit-identity contract: the engine draw sequence on the "bins" and
// "episodes" streams is EXACTLY the seed path's — same draws, same order,
// same arithmetic on each — so the resulting FeatureMatrix is bit-identical
// to the seed loop (generate_features_seed in tests/oracle) for every
// profile, grid and horizon. The randomized differential suite
// (tests/trace/test_generator_batched.cpp) and bench/micro_scenario pin
// this.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "obs/metrics.hpp"
#include "stats/kernels.hpp"
#include "stats/sampling.hpp"
#include "trace/activity.hpp"
#include "trace/batched_tables.hpp"
#include "trace/episode_process.hpp"
#include "trace/generator.hpp"
#include "trace/v2_contract.hpp"

namespace monohids::trace {

namespace detail {

const FootprintTables& footprint_tables() {
  static const FootprintTables tables;
  return tables;
}

const FootprintTables32& footprint_tables32() {
  static const FootprintTables32 tables;
  return tables;
}

}  // namespace detail

namespace {

// Stage 4, shared by the v1 full-horizon path and the v2 tile renderer:
// widens the integer staging tallies into the matrix rows [first_bin,
// first_bin + n) and applies the resolver-cache / distinct-destination
// math. Term-for-term the seed path's arithmetic — the v1 bit-identity
// contract rides on this helper staying exact.
void finalize_bins(const UserProfile& user, double effective_pool,
                   std::span<const std::uint32_t> st_tcp,
                   std::span<const std::uint32_t> st_udp,
                   std::span<const std::uint32_t> st_dns,
                   std::span<const std::uint32_t> st_http,
                   std::span<const std::uint32_t> st_syn,
                   std::span<const std::uint32_t> st_draws, std::uint64_t first_bin,
                   features::FeatureMatrix& matrix) {
  using features::FeatureKind;
  const std::uint64_t n = st_tcp.size();
  // TCP/HTTP/SYN are pure widenings of their staging tallies: one
  // dispatched kernel pass each (exact, so back-end invariant).
  const auto& kernel_ops = stats::kernels::active();
  kernel_ops.widen_u32(st_tcp,
                       matrix.of(FeatureKind::TcpConnections).values_mut().data() + first_bin);
  kernel_ops.widen_u32(
      st_http, matrix.of(FeatureKind::HttpConnections).values_mut().data() + first_bin);
  kernel_ops.widen_u32(st_syn, matrix.of(FeatureKind::TcpSyn).values_mut().data() + first_bin);

  // The resolver-cache and distinct-destination math carries per-bin
  // rounding the seed path performs in double — reproduced term for term.
  double* out_udp = matrix.of(FeatureKind::UdpConnections).values_mut().data() + first_bin;
  double* out_dns = matrix.of(FeatureKind::DnsConnections).values_mut().data() + first_bin;
  double* out_distinct =
      matrix.of(FeatureKind::DistinctConnections).values_mut().data() + first_bin;
  const double pow_base = 1.0 - 1.0 / effective_pool;
  // Distinct-draw totals repeat heavily across bins; memoizing the pow on
  // small integer draw counts removes most of the remaining libm cost.
  std::vector<double> pow_cache(4096, -1.0);
  for (std::uint64_t b = 0; b < n; ++b) {
    double dns = static_cast<double>(st_dns[b]);
    double udp = static_cast<double>(st_udp[b]);
    double draws = static_cast<double>(st_draws[b]);
    const double cached = std::round(dns * user.dns_cache_hit);
    dns -= cached;
    udp -= cached;
    draws = std::max(0.0, draws - cached);
    out_dns[b] = dns;
    out_udp[b] = udp;
    double distinct = 0.0;
    if (draws != 0.0) {
      double p;
      const auto draws_int = static_cast<std::uint64_t>(draws);
      if (draws == static_cast<double>(draws_int) && draws_int < pow_cache.size()) {
        if (pow_cache[draws_int] < 0.0) pow_cache[draws_int] = std::pow(pow_base, draws);
        p = pow_cache[draws_int];
      } else {
        p = std::pow(pow_base, draws);
      }
      distinct = effective_pool * (1.0 - p);
    }
    out_distinct[b] = std::round(distinct);
  }
}

}  // namespace

features::FeatureMatrix TraceGenerator::generate_features_batched(
    const UserProfile& user) const {
  using stats::batch::PoissonRow;
  using stats::batch::sample_poisson_prepared;
  using stats::batch::to_unit;

  const util::BinGrid grid = config_.grid;
  const util::Duration horizon = config_.horizon();
  features::FeatureMatrix matrix;
  for (auto& s : matrix.series) s = features::BinnedSeries(grid, horizon);

  util::Xoshiro256 rng(util::derive_seed(user.seed, "bins", 0));
  EpisodeProcess episodes(user, config_.episode_log_mu,
                          util::derive_seed(user.seed, "episodes", 0));

  const double bin_hours =
      static_cast<double>(grid.width()) / static_cast<double>(util::kMicrosPerHour);
  const double effective_pool =
      std::max(4.0, config_.distinct_pool_factor * user.destination_pool_size);
  const std::uint64_t bins = grid.bin_count(horizon);
  // Bin-of-week period when the grid divides a week (the default 15- and
  // 5-minute grids do); 0 selects the generic per-bin fallback.
  const std::uint64_t bins_per_week =
      util::kMicrosPerWeek % grid.width() == 0 ? util::kMicrosPerWeek / grid.width() : 0;

  // --- stage 1: rate tables ----------------------------------------------
  // Activity per bin-of-week (activity_at is weekly periodic), or per bin
  // on grids that do not divide a week.
  std::vector<double> act(bins_per_week != 0 ? std::min(bins_per_week, bins) : bins);
  for (std::uint64_t i = 0; i < act.size(); ++i) {
    const util::Timestamp mid = grid.bin_start(i) + grid.width() / 2;
    act[i] = activity_at(user.diurnal, mid);
  }

  // Episode boost per bin, stepped with the seed path's exact draws. The
  // running bin-of-week counter replaces a 64-bit modulo per bin.
  std::vector<double> boost(bins);
  {
    std::uint64_t bow = 0;
    for (std::uint64_t b = 0; b < bins; ++b) {
      boost[b] = episodes.step(grid.bin_start(b), bin_hours, act[bow]);
      if (++bow == act.size()) bow = 0;
    }
  }

  // Week index per bin for the drift lookup. On divisible grids the week
  // advances exactly when the bin-of-week counter wraps; the generic
  // fallback derives it from each bin's midpoint like the seed path does.
  std::vector<std::uint32_t> week_of_bin;
  if (bins_per_week == 0) {
    week_of_bin.resize(bins);
    for (std::uint64_t b = 0; b < bins; ++b) {
      week_of_bin[b] = util::week_of(grid.bin_start(b) + grid.width() / 2);
    }
  }

  // --- stage 2: prepared Poisson rows per (app, bin) ----------------------
  // Prepared per app (contiguous means keep the run-deduped exp effective),
  // then transposed to bin-major so the session loop below reads one
  // sequential 6-row stripe per bin instead of six parallel streams.
  std::vector<double> means(bins);
  std::vector<PoissonRow> app_rows(bins);
  std::vector<PoissonRow> rows(bins * kAppCount);
  for (std::size_t a = 0; a < kAppCount; ++a) {
    const AppKind app = kAllApps[a];
    const double rate = user.rate_of(app);
    if (bins_per_week != 0) {
      std::uint64_t b = 0, bow = 0;
      std::uint32_t week = 0;
      double drift = user.drift(week, app);
      while (b < bins) {
        means[b] = rate * act[bow] * boost[b] * drift * bin_hours;
        ++b;
        if (++bow == act.size()) {
          bow = 0;
          drift = user.drift(++week, app);
        }
      }
    } else {
      for (std::uint64_t b = 0; b < bins; ++b) {
        means[b] = rate * act[b] * boost[b] * user.drift(week_of_bin[b], app) * bin_hours;
      }
    }
    stats::batch::prepare_poisson_rows(means, app_rows);
    for (std::uint64_t b = 0; b < bins; ++b) rows[b * kAppCount + a] = app_rows[b];
  }

  // --- stage 3: the RNG-only session loop ---------------------------------
  // SoA staging: raw integer tallies per bin. The float post-processing
  // runs as a separate pass, so this loop is pure integer/multiply work and
  // the engine state stays in registers throughout.
  std::vector<std::uint32_t> st_tcp(bins), st_udp(bins), st_dns(bins), st_http(bins),
      st_syn(bins), st_draws(bins);

  const detail::FootprintTables& T = detail::footprint_tables();
  // Hot table values hoisted into locals: the staging stores would
  // otherwise force reloads of every table field each iteration.
  const std::uint64_t web_b0 = T.web_objects.boundary(0);
  const std::uint64_t web_b1 = T.web_objects.boundary(1);
  const std::uint64_t web_b2 = T.web_objects.boundary(2);
  const std::uint64_t t_https = T.https_045, t_retrans = T.syn_retrans_003;
  const std::uint64_t t_mail = T.mail_dns_020, t_inter = T.interactive_dns_030;
  const std::uint64_t dns_threshold = T.dns_threshold;
  const double dns_limit = T.dns_limit;

  // The bin-major stripe: row[b * 6 + index_of(app)], read sequentially.
  constexpr std::size_t kWebRow = index_of(AppKind::Web);
  constexpr std::size_t kDnsRow = index_of(AppKind::Dns);
  constexpr std::size_t kMailRow = index_of(AppKind::Mail);
  constexpr std::size_t kP2pRow = index_of(AppKind::P2p);
  constexpr std::size_t kInterRow = index_of(AppKind::Interactive);
  constexpr std::size_t kUpdateRow = index_of(AppKind::Update);

  std::uint64_t total_sessions = 0;

  for (std::uint64_t b = 0; b < bins; ++b) {
    std::uint64_t n_tcp = 0, n_udp = 0, n_dns = 0, n_http = 0, n_syn = 0, n_draws = 0;
    const PoissonRow* stripe = rows.data() + b * kAppCount;

    {  // Web: objects (Pareto), domains (1 + Poisson), HTTPS and SYN
       // Bernoullis per object — the sample_footprint(Web) draws in order.
      const std::uint64_t sessions = sample_poisson_prepared(rng, stripe[kWebRow]);
      total_sessions += sessions;
      for (std::uint64_t s = 0; s < sessions; ++s) {
        const std::uint64_t mo = rng() >> 11;
        std::uint32_t objects;
        if (mo > web_b2) [[likely]]
          objects = 1 + (mo <= web_b0 ? 1u : 0u) + (mo <= web_b1 ? 1u : 0u);
        else
          objects = T.web_objects.count(mo);
        std::uint32_t domain_extra = 0;
        {
          const std::uint64_t m1 = rng() >> 11;
          if (m1 >= T.web_domain_threshold[objects]) [[unlikely]] {
            const double limit = T.web_domain_limit[objects];
            double product = to_unit(m1);
            do {
              product *= rng.uniform01();
              ++domain_extra;
            } while (product > limit);
          }
        }
        std::uint32_t https, syn_extra;
        if (objects == 1) [[likely]] {
          https = (rng() >> 11) < t_https ? 1u : 0u;
          syn_extra = (rng() >> 11) < t_retrans ? 1u : 0u;
        } else {
          https = 0;
          for (std::uint32_t i = 0; i < objects; ++i)
            https += (rng() >> 11) < t_https ? 1u : 0u;
          syn_extra = 0;
          for (std::uint32_t i = 0; i < objects; ++i)
            syn_extra += (rng() >> 11) < t_retrans ? 1u : 0u;
        }
        n_tcp += objects;
        n_http += objects - https;
        n_dns += 1 + domain_extra;
        n_udp += 1 + domain_extra;
        n_syn += objects + syn_extra;
        n_draws += objects + 1;
      }
    }
    {  // Dns: lookups = 1 + Poisson(0.6).
      const std::uint64_t sessions = sample_poisson_prepared(rng, stripe[kDnsRow]);
      total_sessions += sessions;
      for (std::uint64_t s = 0; s < sessions; ++s) {
        std::uint32_t lookups = 1;
        const std::uint64_t m1 = rng() >> 11;
        if (m1 >= dns_threshold) {
          double product = to_unit(m1);
          do {
            product *= rng.uniform01();
            ++lookups;
          } while (product > dns_limit);
        }
        n_dns += lookups;
        n_udp += lookups;
        n_draws += 1;
      }
    }
    {  // Mail: one connection, 20% DNS refresh.
      const std::uint64_t sessions = sample_poisson_prepared(rng, stripe[kMailRow]);
      total_sessions += sessions;
      n_tcp += sessions;
      n_syn += sessions;
      n_draws += sessions;
      for (std::uint64_t s = 0; s < sessions; ++s) {
        const std::uint32_t hit = (rng() >> 11) < t_mail ? 1u : 0u;
        n_dns += hit;
        n_udp += hit;
      }
    }
    {  // P2p: Pareto peer count.
      const std::uint64_t sessions = sample_poisson_prepared(rng, stripe[kP2pRow]);
      total_sessions += sessions;
      for (std::uint64_t s = 0; s < sessions; ++s) {
        const std::uint32_t peers = T.p2p_peers.count_fast(rng() >> 11);
        n_udp += peers;
        n_draws += peers;
      }
    }
    {  // Interactive: one connection, 30% DNS refresh.
      const std::uint64_t sessions = sample_poisson_prepared(rng, stripe[kInterRow]);
      total_sessions += sessions;
      n_tcp += sessions;
      n_syn += sessions;
      n_draws += sessions;
      for (std::uint64_t s = 0; s < sessions; ++s) {
        const std::uint32_t hit = (rng() >> 11) < t_inter ? 1u : 0u;
        n_dns += hit;
        n_udp += hit;
      }
    }
    {  // Update: 4 + Pareto fetches, Poisson(fetches * 0.02) retransmits.
      const std::uint64_t sessions = sample_poisson_prepared(rng, stripe[kUpdateRow]);
      total_sessions += sessions;
      for (std::uint64_t s = 0; s < sessions; ++s) {
        const std::uint32_t fetches = 4 + T.update_fetches.count_fast(rng() >> 11);
        std::uint32_t retrans = 0;
        const std::uint64_t m1 = rng() >> 11;
        if (m1 >= T.update_syn_threshold[fetches]) {
          const double limit = T.update_syn_limit[fetches];
          double product = to_unit(m1);
          do {
            product *= rng.uniform01();
            ++retrans;
          } while (product > limit);
        }
        n_tcp += fetches;
        n_syn += fetches + retrans;
        n_dns += 1;
        n_udp += 1;
        n_draws += 2;
      }
    }

    st_tcp[b] = static_cast<std::uint32_t>(n_tcp);
    st_udp[b] = static_cast<std::uint32_t>(n_udp);
    st_dns[b] = static_cast<std::uint32_t>(n_dns);
    st_http[b] = static_cast<std::uint32_t>(n_http);
    st_syn[b] = static_cast<std::uint32_t>(n_syn);
    st_draws[b] = static_cast<std::uint32_t>(n_draws);
  }

  // --- stage 4: float post-processing (shared helper) ---------------------
  finalize_bins(user, effective_pool, st_tcp, st_udp, st_dns, st_http, st_syn, st_draws,
                0, matrix);

  // Batch-granular obs publication: one counter add per stage per user, no
  // atomics anywhere in the loops above.
  static obs::Counter bins_rendered =
      obs::MetricsRegistry::global().counter("tracegen.bins_rendered");
  static obs::Counter sessions_sampled =
      obs::MetricsRegistry::global().counter("tracegen.sessions_sampled");
  static obs::Counter users_batched =
      obs::MetricsRegistry::global().counter("tracegen.users_batched");
  static obs::Histogram staging_bytes = obs::MetricsRegistry::global().histogram(
      "tracegen.staging_bytes", obs::pow2_buckets(28));
  bins_rendered.add(bins);
  sessions_sampled.add(total_sessions);
  users_batched.inc();
  staging_bytes.observe(static_cast<double>(6 * bins * sizeof(std::uint32_t)));

  return matrix;
}

// ---------------------------------------------------------------------------
// V2 counter-mode renderer.
//
// Draw-key contract (see API_TOUR §16 and trace/v2_contract.hpp). All
// streams share one key, derive_seed(user.seed, "v2/bins", 0), and EVERY
// draw consumes exactly one 32-bit Philox word:
//
//   - Count channels: stream kV2CountChannel + a (a = app index) holds one
//     word per bin — word b is bin b's COMPLETE session-count draw for app
//     a (exact single-word Poisson inversion below kNormalCutoff32, the
//     one-word inverse-CDF normal above). Laid out bin-major so a whole
//     tile's counts fill in one wide kernel pass per app and reduce in one
//     bulk sweep; a bin whose six counts are all zero (the overwhelming
//     night-time case) is finished without touching its own stream at all.
//   - Bin streams: stream b (b = bin index) holds bin b's merged totals in
//     the fixed layout of draw_v2_bin_totals.
//
// Every merge is exact in distribution because the feature matrix only
// consumes per-bin TOTALS: independent Poissons sum to a Poisson of the
// summed mean, a Bernoulli pass's success total is Binomial(n, p), and a
// sum of iid Pareto counts is a deterministic function of its value
// histogram, which is Multinomial — sampled as chained conditional
// binomials. This removes the v1 contract's per-session serial draw chain
// (the floor that capped the PR6 batched path): an active bin costs
// O(apps + tail sessions) words instead of O(sessions + objects), and the
// only remaining serial FP work is the short inversion walks.
//
// Episode boosts come from a serial Philox stream (key derive_seed(
// user.seed, "v2/episodes", 0), stream 0) stepped from bin 0 with the
// pinned EpisodeProcess semantics. Because streams never interact, any
// tile partition / thread / shard / SIMD back-end renders the identical
// matrix.

namespace {

/// Per-thread scratch reused across tile renders (fleet mode renders
/// millions of tiles; none of these should allocate per tile).
struct V2Scratch {
  detail::V2TilePlan plan;
  std::vector<std::uint32_t> words;   // cursor buffer
  std::vector<std::uint32_t> st_tcp, st_udp, st_dns, st_http, st_syn, st_draws;
};

V2Scratch& v2_scratch() {
  static thread_local V2Scratch scratch;
  return scratch;
}

}  // namespace

std::uint64_t detail::plan_v2_tile(const GeneratorConfig& config, const UserProfile& user,
                                   std::uint64_t tile_begin, std::uint64_t tile_end,
                                   V2TilePlan& plan) {
  const util::BinGrid grid = config.grid;
  const std::uint64_t bins = grid.bin_count(config.horizon());
  MONOHIDS_EXPECT(tile_begin < tile_end && tile_end <= bins, "v2 tile out of range");
  const std::uint64_t tile_bins = tile_end - tile_begin;

  const double bin_hours =
      static_cast<double>(grid.width()) / static_cast<double>(util::kMicrosPerHour);
  const std::uint64_t bins_per_week =
      util::kMicrosPerWeek % grid.width() == 0 ? util::kMicrosPerWeek / grid.width() : 0;

  // --- stage 1: rate tables (same structure as v1, 32-bit grain) ----------
  std::vector<double>& act = plan.act;
  act.resize(bins_per_week != 0 ? std::min(bins_per_week, bins) : bins);
  for (std::uint64_t i = 0; i < act.size(); ++i) {
    const util::Timestamp mid = grid.bin_start(i) + grid.width() / 2;
    act[i] = activity_at(user.diurnal, mid);
  }

  // Episode boosts: the serial v2 episode stream stepped from bin 0 with
  // the pinned semantics, recording only this tile's bins. Re-stepping the
  // prefix costs ~1 word per idle bin — negligible next to rendering.
  std::vector<double>& boost = plan.boost;
  boost.resize(tile_bins);
  {
    BasicEpisodeProcess<util::Philox4x32> episodes(
        user, config.episode_log_mu, util::derive_seed(user.seed, "v2/episodes", 0));
    std::uint64_t bow = 0;
    for (std::uint64_t b = 0; b < tile_end; ++b) {
      const double m = episodes.step(grid.bin_start(b), bin_hours, act[bow]);
      if (b >= tile_begin) boost[b - tile_begin] = m;
      if (++bow == act.size()) bow = 0;
    }
  }

  // --- stage 2: session-count means per (app, tile bin) -------------------
  // Means stay app-major (no bin-major transpose): the count-channel sweep
  // is app-major anyway and the bin loop only touches active bins'
  // stripes, so six sequential streams beat a 16-byte scatter per row.
  std::vector<double>& means = plan.means;
  means.resize(tile_bins * kAppCount);
  for (std::size_t a = 0; a < kAppCount; ++a) {
    const AppKind app = kAllApps[a];
    const double rate = user.rate_of(app);
    std::uint64_t bow = tile_begin % act.size();
    std::uint32_t week = static_cast<std::uint32_t>(tile_begin / act.size());
    double drift = user.drift(week, app);
    double* ma = means.data() + a * tile_bins;
    for (std::uint64_t i = 0; i < tile_bins; ++i) {
      if (bins_per_week == 0) {
        const util::Timestamp mid =
            grid.bin_start(tile_begin + i) + grid.width() / 2;
        drift = user.drift(util::week_of(mid), app);
      }
      ma[i] = rate * act[bow] * boost[i] * drift * bin_hours;
      if (++bow == act.size()) {
        bow = 0;
        if (bins_per_week != 0) drift = user.drift(++week, app);
      }
    }
  }

  // --- stage 2.5: count-channel fills + bulk session counts ---------------
  // One wide kernel fill per app covers every bin's count word in this
  // tile; the dispatched poisson_counts kernel resolves each word to its
  // session count (exp_neg12 + one-word inversion, inverse-CDF normal in
  // the heavy regime) in six sequential app passes. The common night-time
  // bin dies here — its own stream is never generated, let alone consumed.
  const stats::kernels::Ops& ops = stats::kernels::active();
  const std::uint64_t key = util::derive_seed(user.seed, "v2/bins", 0);
  const std::uint64_t cw_block0 = tile_begin / 4;
  const std::uint64_t cw_offset = tile_begin - cw_block0 * 4;
  const std::uint64_t cw_blocks = (tile_end + 3) / 4 - cw_block0;
  const std::uint64_t cw_stride = cw_blocks * 4;
  std::vector<std::uint32_t>& cw = plan.cw;
  cw.resize(cw_stride * kAppCount);
  for (std::size_t a = 0; a < kAppCount; ++a) {
    ops.philox_fill(key, kV2CountChannel + a, cw_block0, cw.data() + a * cw_stride,
                    static_cast<std::size_t>(cw_blocks));
  }
  std::vector<std::uint8_t>& active = plan.active;
  std::vector<std::uint32_t>& cnt = plan.cnt;
  active.assign(tile_bins, 0);
  cnt.resize(tile_bins * kAppCount);
  std::uint64_t total_sessions = 0;
  for (std::size_t a = 0; a < kAppCount; ++a) {
    total_sessions +=
        ops.poisson_counts(means.data() + a * tile_bins, cw.data() + a * cw_stride + cw_offset,
                           cnt.data() + a * tile_bins, tile_bins);
  }
  for (std::size_t a = 0; a < kAppCount; ++a) {
    const std::uint32_t* ca = cnt.data() + a * tile_bins;
    for (std::uint64_t i = 0; i < tile_bins; ++i) {
      active[i] |= static_cast<std::uint8_t>(ca[i] != 0);
    }
  }
  return total_sessions;
}

void TraceGenerator::render_features_v2_tile(const UserProfile& user,
                                             std::uint64_t tile_begin,
                                             std::uint64_t tile_end,
                                             features::FeatureMatrix& matrix) const {
  V2Scratch& scratch = v2_scratch();
  const std::uint64_t total_sessions =
      detail::plan_v2_tile(config_, user, tile_begin, tile_end, scratch.plan);
  const std::uint64_t tile_bins = tile_end - tile_begin;
  const std::vector<std::uint32_t>& cnt = scratch.plan.cnt;
  const double effective_pool =
      std::max(4.0, config_.distinct_pool_factor * user.destination_pool_size);

  // --- stage 3: bulk word consumption per bin -----------------------------
  scratch.st_tcp.assign(tile_bins, 0);
  scratch.st_udp.assign(tile_bins, 0);
  scratch.st_dns.assign(tile_bins, 0);
  scratch.st_http.assign(tile_bins, 0);
  scratch.st_syn.assign(tile_bins, 0);
  scratch.st_draws.assign(tile_bins, 0);

  const detail::FootprintTables32& T = detail::footprint_tables32();
  detail::V2Cursor cur(util::derive_seed(user.seed, "v2/bins", 0), scratch.words);
  const auto no_values = [](AppKind, std::uint32_t, std::uint64_t) {};

  for (std::uint64_t i = 0; i < tile_bins; ++i) {
    if (!scratch.plan.active[i]) continue;  // staging rows stay zero; no stream touched
    std::array<std::uint64_t, kAppCount> s;
    for (std::size_t a = 0; a < kAppCount; ++a) s[a] = cnt[a * tile_bins + i];
    const detail::V2BinTotals t =
        detail::draw_v2_bin_totals(T, cur, tile_begin + i, s, no_values);

    const std::uint64_t s_web = s[index_of(AppKind::Web)];
    const std::uint64_t s_dns = s[index_of(AppKind::Dns)];
    const std::uint64_t s_mail = s[index_of(AppKind::Mail)];
    const std::uint64_t s_inter = s[index_of(AppKind::Interactive)];
    const std::uint64_t s_upd = s[index_of(AppKind::Update)];
    const std::uint64_t n_tcp = t.web_objects + s_mail + s_inter + t.update_fetches;
    const std::uint64_t n_dns = s_web + t.web_domain_extra + s_dns + t.dns_extra +
                                t.mail_hits + t.interactive_hits + s_upd;
    scratch.st_tcp[i] = static_cast<std::uint32_t>(n_tcp);
    scratch.st_udp[i] = static_cast<std::uint32_t>(n_dns + t.p2p_peers);
    scratch.st_dns[i] = static_cast<std::uint32_t>(n_dns);
    scratch.st_http[i] = static_cast<std::uint32_t>(t.web_objects - t.web_https);
    scratch.st_syn[i] =
        static_cast<std::uint32_t>(n_tcp + t.web_syn_extra + t.update_retrans);
    scratch.st_draws[i] = static_cast<std::uint32_t>(
        t.web_objects + s_web + s_dns + s_mail + t.p2p_peers + s_inter + 2 * s_upd);
  }

  // --- stage 4: float post-processing (shared helper) ---------------------
  finalize_bins(user, effective_pool, scratch.st_tcp, scratch.st_udp, scratch.st_dns,
                scratch.st_http, scratch.st_syn, scratch.st_draws, tile_begin, matrix);

  static obs::Counter bins_rendered =
      obs::MetricsRegistry::global().counter("tracegen.bins_rendered");
  static obs::Counter sessions_sampled =
      obs::MetricsRegistry::global().counter("tracegen.sessions_sampled");
  static obs::Counter v2_tiles =
      obs::MetricsRegistry::global().counter("tracegen.v2_tiles_rendered");
  bins_rendered.add(tile_bins);
  sessions_sampled.add(total_sessions);
  v2_tiles.inc();
}

features::FeatureMatrix TraceGenerator::generate_features_v2(const UserProfile& user) const {
  const util::BinGrid grid = config_.grid;
  const util::Duration horizon = config_.horizon();
  features::FeatureMatrix matrix;
  for (auto& s : matrix.series) s = features::BinnedSeries(grid, horizon);

  const std::uint64_t bins = grid.bin_count(horizon);
  const std::uint64_t tile = config_.v2_bin_tile == 0 ? bins : config_.v2_bin_tile;
  for (std::uint64_t b = 0; b < bins; b += tile) {
    render_features_v2_tile(user, b, std::min(bins, b + tile), matrix);
  }
  return matrix;
}

}  // namespace monohids::trace
