// Feature renderer of the counter-mode scenario contract (API_TOUR §16).
//
// A tile of bins renders in four stages:
//
//   1. rate tables: activity per bin-of-week (the diurnal curve is weekly
//      periodic, so one week covers any horizon, built from one day of
//      daily levels when the grid divides the day) and the episode boost
//      of every bin in the tile (plan_v2_tile);
//   2. session-count means per (app, bin), and one count-channel word per
//      (app, bin) resolved to a session count by the dispatched
//      poisson_counts kernel — a bin with no sessions ends here;
//   3. per active bin, the merged totals drawn from the bin's own stream
//      (draw_v2_bin_totals), tallied into integer staging rows;
//   4. float post-processing: widening the staging rows, then the
//      resolver-cache / distinct-destination math per bin (finalize_bins).
//
// Draw-key contract (see also trace/v2_contract.hpp). All streams share
// one key, derive_seed(user.seed, "v2/bins", 0), and EVERY draw consumes
// exactly one 32-bit Philox word:
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
// binomials. An active bin costs O(apps + tail sessions) words instead of
// O(sessions + objects), and the only serial FP work is the short
// inversion walks.
//
// Episode boosts come from a serial Philox stream (key derive_seed(
// user.seed, "v2/episodes", 0), stream 0) stepped from bin 0 with the
// pinned EpisodeProcess semantics. Because streams never interact, any
// tile partition / thread / shard / SIMD back-end renders the identical
// matrix.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "stats/kernels.hpp"
#include "stats/sampling.hpp"
#include "trace/activity.hpp"
#include "trace/episode_process.hpp"
#include "trace/generator.hpp"
#include "trace/v2_contract.hpp"

namespace monohids::trace {

const detail::FootprintTables32& detail::footprint_tables32() {
  static const FootprintTables32 tables;
  return tables;
}

namespace {

/// std::round(x), inline for +0 <= x < 2^52: there i = (int64)x is
/// floor(x), x - i is exact, and rounding half away from zero adds one iff
/// that fraction is at least 0.5. One unsigned compare on the bits selects
/// exactly that range (negative doubles have the sign bit set, NaN and
/// infinities a larger exponent); everything else defers to std::round.
double round_nonneg(double x) noexcept {
  if (std::bit_cast<std::uint64_t>(x) < std::bit_cast<std::uint64_t>(0x1.0p52)) [[likely]] {
    const auto i = static_cast<std::int64_t>(x);
    return static_cast<double>(i + (x - static_cast<double>(i) >= 0.5 ? 1 : 0));
  }
  return std::round(x);
}

/// pow(base, d) for small integer draw counts d: distinct-draw totals
/// repeat heavily across bins, so memoizing them removes most of the
/// remaining libm cost. The memo lives in the per-thread scratch and is
/// cleared only when the base (a per-user constant) changes, so the tiles
/// of one user share it and no tile allocates.
struct PowMemo {
  static constexpr std::size_t kSize = 4096;
  double base = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values;  // -1 marks an entry not computed yet

  void rebase(double new_base) {
    if (new_base == base) return;
    base = new_base;
    values.assign(kSize, -1.0);
  }

  double pow(double draws) {
    const auto d = static_cast<std::uint64_t>(draws);
    if (draws != static_cast<double>(d) || d >= kSize) return std::pow(base, draws);
    if (values[d] < 0.0) values[d] = std::pow(base, draws);
    return values[d];
  }
};

// Stage 4: widens the integer staging tallies into the matrix rows
// [first_bin, first_bin + n) and applies the resolver-cache /
// distinct-destination math.
void finalize_bins(const UserProfile& user, double effective_pool,
                   std::span<const std::uint32_t> st_tcp,
                   std::span<const std::uint32_t> st_udp,
                   std::span<const std::uint32_t> st_dns,
                   std::span<const std::uint32_t> st_http,
                   std::span<const std::uint32_t> st_syn,
                   std::span<const std::uint32_t> st_draws, std::uint64_t first_bin,
                   PowMemo& pow_memo, features::FeatureMatrix& matrix) {
  using features::FeatureKind;
  const std::uint64_t n = st_tcp.size();
  // TCP/HTTP/SYN are pure (exact) widenings of their staging tallies.
  const auto widen = [&](std::span<const std::uint32_t> tallies, FeatureKind feature) {
    double* out = matrix.of(feature).values_mut().data() + first_bin;
    for (std::uint64_t i = 0; i < n; ++i) out[i] = static_cast<double>(tallies[i]);
  };
  widen(st_tcp, FeatureKind::TcpConnections);
  widen(st_http, FeatureKind::HttpConnections);
  widen(st_syn, FeatureKind::TcpSyn);

  // The resolver-cache and distinct-destination math rounds per bin, in
  // double. Both rounded values are nonnegative.
  double* out_udp = matrix.of(FeatureKind::UdpConnections).values_mut().data() + first_bin;
  double* out_dns = matrix.of(FeatureKind::DnsConnections).values_mut().data() + first_bin;
  double* out_distinct =
      matrix.of(FeatureKind::DistinctConnections).values_mut().data() + first_bin;
  pow_memo.rebase(1.0 - 1.0 / effective_pool);
  for (std::uint64_t b = 0; b < n; ++b) {
    double dns = static_cast<double>(st_dns[b]);
    double udp = static_cast<double>(st_udp[b]);
    double draws = static_cast<double>(st_draws[b]);
    const double cached = round_nonneg(dns * user.dns_cache_hit);
    dns -= cached;
    udp -= cached;
    draws = std::max(0.0, draws - cached);
    out_dns[b] = dns;
    out_udp[b] = udp;
    double distinct = 0.0;
    if (draws != 0.0) distinct = effective_pool * (1.0 - pow_memo.pow(draws));
    out_distinct[b] = round_nonneg(distinct);
  }
}

/// Per-thread scratch reused across tile renders (fleet mode renders
/// millions of tiles; none of these should allocate per tile).
struct V2Scratch {
  detail::V2TilePlan plan;
  std::vector<std::uint32_t> words;   // cursor buffer
  std::vector<std::uint32_t> st_tcp, st_udp, st_dns, st_http, st_syn, st_draws;
  PowMemo pow_memo;
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

  // --- stage 1: rate tables ----------------------------------------------
  // activity_at is the daily curve times the weekend damping. When the
  // grid divides the day, bin i's midpoint has the same time of day as
  // bin (i mod bins-per-day)'s, so one day of daily_activity calls serves
  // the week and only the weekend predicate runs per bin; other grids
  // evaluate the daily curve per bin. The product is the one activity_at
  // forms, so act[i] is activity_at at bin i's midpoint either way.
  std::vector<double>& act = plan.act;
  act.resize(bins_per_week != 0 ? std::min(bins_per_week, bins) : bins);
  const util::Duration half_bin = grid.width() / 2;
  std::vector<double>& daily = plan.daily;
  daily.resize(util::kMicrosPerDay % grid.width() == 0
                   ? std::min<std::uint64_t>(util::kMicrosPerDay / grid.width(), act.size())
                   : act.size());
  for (std::uint64_t d = 0; d < daily.size(); ++d) {
    daily[d] = daily_activity(user.diurnal, grid.bin_start(d) + half_bin);
  }
  const util::Timestamp weekend_offset = weekend_clock_offset(user.diurnal);
  const double weekend_factor = user.diurnal.weekend_factor;
  for (std::uint64_t i = 0, d = 0; i < act.size(); ++i) {
    const bool weekend = util::is_weekend(grid.bin_start(i) + half_bin + weekend_offset);
    act[i] = weekend ? daily[d] * weekend_factor : daily[d];
    if (++d == daily.size()) d = 0;
  }

  // Episode boosts: the serial v2 episode stream stepped from bin 0 with
  // the pinned semantics, recording only this tile's bins. Re-stepping the
  // prefix costs ~1 word per idle bin — negligible next to rendering.
  std::vector<double>& boost = plan.boost;
  boost.resize(tile_bins);
  {
    EpisodeProcess episodes(
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
  // Each app's sweep ORs its non-zero counts into the bin's active flag.
  for (std::size_t a = 0; a < kAppCount; ++a) {
    total_sessions +=
        ops.poisson_counts(means.data() + a * tile_bins, cw.data() + a * cw_stride + cw_offset,
                           cnt.data() + a * tile_bins, active.data(), tile_bins);
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
                scratch.st_http, scratch.st_syn, scratch.st_draws, tile_begin,
                scratch.pow_memo, matrix);

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

features::FeatureMatrix TraceGenerator::generate_features(const UserProfile& user) const {
  const util::BinGrid grid = config_.grid;
  const util::Duration horizon = config_.horizon();
  features::FeatureMatrix matrix;
  for (auto& s : matrix.series) s = features::BinnedSeries(grid, horizon);
  render_features_v2_tile(user, 0, grid.bin_count(horizon), matrix);
  return matrix;
}

}  // namespace monohids::trace
