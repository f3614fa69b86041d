// Internal pieces of the counter-mode scenario contract (API_TOUR §16),
// shared by the feature renderer (v2_features.cpp) and the packet renderer
// (v2_packets.cpp): the draw tables, the stream cursor, the per-tile
// session-count plan, the per-bin totals draw and the packet-channel
// engine.
//
// Stream layout. Every stream is keyed derive_seed(user.seed, "v2/bins", 0)
// and every stream id names one (channel, index) pair:
//
//   - bin streams, id = bin index b (< 2^32): bin b's totals draws
//     (draw_v2_bin_totals below);
//   - count channels, id = kV2CountChannel + app: word b is bin b's session
//     count of that app;
//   - split channels, id = kV2SplitChannel + b: how bin b's merged totals
//     divide over its sessions (packet path only);
//   - packet channels, id = kV2PacketChannel + b: bin b's per-packet detail
//     (destinations, gaps, arrival offsets; packet path only).
//
// The feature renderer reads only the first two, so the packet path adds
// channels without changing a single feature byte.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "stats/kernels.hpp"
#include "stats/sampling.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace monohids::trace::detail {

/// Stream id of app a's count channel (word b = bin b's session-count
/// draw). Offset past the 32-bit bin-index space so count channels and bin
/// streams never collide on any horizon.
inline constexpr std::uint64_t kV2CountChannel = std::uint64_t{1} << 32;
/// Stream id base of the per-bin split channels.
inline constexpr std::uint64_t kV2SplitChannel = std::uint64_t{2} << 32;
/// Stream id base of the per-bin packet channels.
inline constexpr std::uint64_t kV2PacketChannel = std::uint64_t{3} << 32;

/// Value sink that ignores every value (the feature renderer's default: it
/// consumes totals only).
struct NoValueSink {
  void operator()(std::uint32_t, std::uint64_t) const noexcept {}
};

/// Exact sampler for the SUM of S iid capped-Pareto counts, in O(support)
/// words instead of O(S). The feature matrix only consumes per-bin totals
/// (total web objects, total P2P peers, total update fetches), so the
/// per-session count draws collapse into the value HISTOGRAM: (k_1 ...
/// k_cap) ~ Multinomial(S, p_v), sampled as the standard chain of
/// conditional binomials k_v ~ Binomial(S - k_1 - ... - k_(v-1),
/// P(X = v) / P(X >= v)). The head values (1..head) cover all but a few
/// percent of the mass for the shapes in use, so the chain stops there and
/// the remaining sessions — all conditioned on X > head — draw their value
/// individually from the rescaled tail of the same word-space table.
///
/// The value probabilities come straight from the 32-bit word-space
/// boundaries (P(X >= v+1) = (boundary(v-1) + 1) / 2^32), so the marginal
/// distribution of the total matches the per-draw table path exactly (up
/// to the documented binomial normal-approximation regime).
class ParetoSumTable {
 public:
  ParetoSumTable(const stats::batch::ParetoCountTable& table, std::uint32_t head)
      : table_(&table), head_(head), cap_(table.cap()) {
    MONOHIDS_EXPECT(head >= 1 && head + 1 < cap_, "Pareto-sum head out of range");
    tail_bound_ = table.boundary(head - 1);  // words <= bound mean X > head
    double p_ge_v = 1.0;                     // P(X >= 1)
    head_binom_.reserve(head);
    for (std::uint32_t v = 1; v <= head; ++v) {
      const double p_ge_next =
          static_cast<double>(table.boundary(v - 1) + 1) * 0x1.0p-32;
      head_binom_.emplace_back((p_ge_v - p_ge_next) / p_ge_v);
      p_ge_v = p_ge_next;
    }
  }

  /// Draws the histogram from the word source (head conditional-binomial
  /// words while sessions remain, then one word per X > head session) and
  /// accumulates the total count and the min(value, 12) total (the web
  /// domain-extras sufficient statistic; callers that don't need it ignore
  /// it). Word footprint: at most head + (# sessions with X > head).
  ///
  /// `on_values(value, count)` sees the histogram as it is drawn: once per
  /// head value with its session count (possibly 0), then once per tail
  /// session with count 1. The packet renderer rebuilds per-session values
  /// from it; the feature renderer passes the no-op default.
  template <typename WordSource, typename ValueSink = NoValueSink>
  void sample(WordSource& next_word, std::uint64_t sessions, std::uint64_t& total,
              std::uint64_t& min12_total, ValueSink&& on_values = {}) const {
    std::uint64_t rem = sessions;
    for (std::uint32_t v = 1; v <= head_ && rem != 0; ++v) {
      const std::uint64_t k = head_binom_[v - 1].sample(next_word(), rem);
      on_values(v, k);
      total += k * v;
      min12_total += k * std::min<std::uint64_t>(v, 12);
      rem -= k;
    }
    for (std::uint64_t s = 0; s < rem; ++s) {
      // Rescale the word into the X > head region of the table's word
      // space, then resume the boundary scan past the head.
      const std::uint64_t scaled =
          (static_cast<std::uint64_t>(next_word()) * (tail_bound_ + 1)) >> 32;
      std::uint32_t k = head_ + 1;
      while (k < cap_ && scaled <= table_->boundary(k - 1)) ++k;
      on_values(k, 1);
      total += k;
      min12_total += std::min<std::uint32_t>(k, 12);
    }
  }

 private:
  const stats::batch::ParetoCountTable* table_;
  std::uint32_t head_, cap_;
  std::uint64_t tail_bound_;
  std::vector<stats::batch::BinomialCdf> head_binom_;
};

/// The session footprint model's draw tables: raw 32-bit Philox words,
/// EVERY draw exactly one word. Every draw is a capped Pareto count, a
/// Poisson count or a Bernoulli pass, and three reductions make each one
/// word (all exact in distribution; the feature matrix only consumes
/// per-bin totals):
///
///  - Poisson sums merge: domain extras, DNS lookup bursts and update
///    retransmissions are sums of independent per-session Poissons, which
///    is Poisson of the summed mean. The summed means are integer-granular
///    (an integer sufficient statistic times a model constant), so one
///    precomputed threshold row per integer covers every bin
///    (stats::batch::PoissonSumCdf — the draw is an integer row scan);
///    past the row cap the mean clears stats::batch::kNormalCutoff32 and
///    the draw switches to the one-word inverse-CDF normal.
///  - Bernoulli passes merge: per-object HTTPS and SYN-retransmission
///    tests and per-session mail/interactive DNS refreshes become one
///    Binomial(n, p) word (stats::batch::BinomialCdf, same row-scan
///    grain).
///  - Per-session Pareto counts merge: the session-count sums become
///    chained-binomial multinomial histograms (ParetoSumTable) past a
///    small direct-draw regime.
struct FootprintTables32 {
  stats::batch::ParetoCountTable web_objects{2.6, 40};
  stats::batch::ParetoCountTable p2p_peers{1.55, 600};
  stats::batch::ParetoCountTable update_fetches{2.1, 100};

  /// Multinomial-head sizes: P(X > head) is ~2.7% for the web-object shape
  /// and ~4% / ~1.3% for the heavier P2P / update shapes with head 8, so
  /// the per-draw tail stays a few percent of sessions.
  ParetoSumTable web_objects_sum{web_objects, 3};
  ParetoSumTable p2p_peers_sum{p2p_peers, 8};
  ParetoSumTable update_fetches_sum{update_fetches, 8};

  /// Below this session count the renderer draws Pareto counts directly
  /// (one word per session): the multinomial chain's fixed head words
  /// would cost more than the sessions themselves.
  static constexpr std::uint64_t kParetoDirectCap = 8;

  /// Poisson-sum draw tables, one threshold row per integer sufficient
  /// statistic (index 0 encodes mean 0 — callers index unconditionally):
  ///  - web domain extras: mean m/5 with m = sum of min(objects, 12);
  ///    rows up to m = 59 (m >= 60 means mean >= kNormalCutoff32),
  ///  - background DNS lookup extras: mean 0.6 * S over S sessions,
  ///  - update SYN retransmissions: mean 0.02 * F over F total fetches.
  stats::batch::PoissonSumCdf domain_sum{1.0 / 5.0, 60};
  stats::batch::PoissonSumCdf dns_sum{0.6, 20};
  stats::batch::PoissonSumCdf update_sum{0.02, 600};

  stats::batch::BinomialCdf https_045{0.45};
  stats::batch::BinomialCdf syn_retrans_003{0.03};
  stats::batch::BinomialCdf mail_dns_020{0.2};
  stats::batch::BinomialCdf interactive_dns_030{0.3};
};

/// The process-wide table set (immutable after construction, so sharing
/// across generator threads is free). Defined in v2_features.cpp.
[[nodiscard]] const FootprintTables32& footprint_tables32();

/// Cursor over one (user, bin) Philox stream, backed by a reused scratch
/// buffer filled in whole blocks through the dispatched philox_fill kernel.
/// operator() hands out one word at a time (the table samplers' word
/// source); take(n) hands out a run of words.
///
/// The buffer carries a logical end (not the vector's size), so per-bin
/// resets never touch memory and refills never memset: the vector only
/// grows to the high-water mark of the busiest bin and stays there. reset()
/// takes the caller's word estimate so a typical bin is served by ONE
/// kernel fill (the whole point — one wide SIMD pass instead of a cascade
/// of small serial fills). take(n) pointers are valid only until the next
/// cursor call (a refill may reallocate) — callers copy what they need
/// across draws.
class V2Cursor {
 public:
  V2Cursor(std::uint64_t key, std::vector<std::uint32_t>& scratch) noexcept
      : ops_(&stats::kernels::active()), key_(key), buf_(&scratch) {}

  void reset(std::uint64_t stream, std::size_t expect_words) {
    stream_ = stream;
    pos_ = 0;
    end_ = 0;
    fill(std::max<std::size_t>(expect_words, 8));
  }

  std::uint32_t operator()() {
    if (pos_ == end_) [[unlikely]]
      refill(1);
    return (*buf_)[pos_++];
  }

  const std::uint32_t* take(std::size_t n) {
    if (end_ - pos_ < n) [[unlikely]]
      refill(n - (end_ - pos_));
    const std::uint32_t* p = buf_->data() + pos_;
    pos_ += n;
    return p;
  }

 private:
  void refill(std::size_t want) {
    // The estimate undershot: grow by at least a buffer's worth (capped) so
    // pathological bins don't degrade into tiny serial fills.
    fill(std::max(want, std::min<std::size_t>(std::max<std::size_t>(end_, 64), 8192)));
  }

  void fill(std::size_t words) {
    // Round up to whole 4-block vector groups: the AVX2 kernel falls back
    // to scalar for sub-group remainders, and the extra words are free
    // determinism-wise (they sit at fixed counter positions whether or not
    // a bin ever reads them).
    const std::size_t blocks = ((words + 3) / 4 + 3) & ~std::size_t{3};
    if (buf_->size() < end_ + blocks * 4) {
      buf_->resize(std::max(end_ + blocks * 4, buf_->size() * 2));
    }
    ops_->philox_fill(key_, stream_, end_ / 4, buf_->data() + end_, blocks);
    end_ += blocks * 4;
  }

  const stats::kernels::Ops* ops_;
  std::uint64_t key_;
  std::uint64_t stream_ = 0;
  std::vector<std::uint32_t>* buf_;
  std::size_t pos_ = 0;  // next word to hand out
  std::size_t end_ = 0;  // filled words (logical size; <= buf_->size())
};

/// Session counts of a run of bins (stages 1–2.5 of the v2 renderer).
struct V2TilePlan {
  std::vector<double> daily;          // daily activity per bin of the day
  std::vector<double> act;            // activity per bin of the week
  std::vector<double> boost;
  std::vector<double> means;          // session-count means, app-major
  std::vector<std::uint32_t> cw;      // count-channel words, app-major
  std::vector<std::uint32_t> cnt;     // session counts, app-major
  std::vector<std::uint8_t> active;   // per-bin any-app-fired flags
};

/// Fills plan.cnt (app-major, tile_end - tile_begin bins per app) and
/// plan.active for bins [tile_begin, tile_end) and returns the sessions
/// drawn. Defined in v2_features.cpp.
std::uint64_t plan_v2_tile(const GeneratorConfig& config, const UserProfile& user,
                           std::uint64_t tile_begin, std::uint64_t tile_end,
                           V2TilePlan& plan);

/// One bin's merged totals, drawn from its bin stream.
struct V2BinTotals {
  std::uint64_t web_objects = 0;
  std::uint64_t web_min12 = 0;  ///< sum of min(objects, 12) over web sessions
  std::uint64_t web_domain_extra = 0;
  std::uint64_t web_https = 0;
  std::uint64_t web_syn_extra = 0;
  std::uint64_t dns_extra = 0;
  std::uint64_t mail_hits = 0;
  std::uint64_t p2p_peers = 0;
  std::uint64_t interactive_hits = 0;
  std::uint64_t update_fetches = 0;  ///< including the 4 base fetches per session
  std::uint64_t update_retrans = 0;
};

/// Draws bin `bin`'s totals from its stream, given the bin's session counts
/// (`sessions[index_of(app)]`). Stream layout, one word per draw, in app
/// order:
///   1. Web: object-count words — S direct Pareto-count words when S <=
///      kParetoDirectCap, else the ParetoSumTable chained-binomial
///      histogram; then ONE merged domain-extras Poisson word (mean = sum
///      of min(objects, 12) / 5), one Binomial HTTPS word over total
///      objects, one Binomial SYN-retransmission word;
///   2. Dns: one merged lookup-extras Poisson word (mean 0.6 * S);
///   3. Mail: one Binomial DNS-refresh word;
///   4. P2p: peer-count words (direct / ParetoSumTable as above);
///   5. Interactive: one Binomial DNS-refresh word;
///   6. Update: fetch-count words (direct / ParetoSumTable), then one
///      merged retransmission Poisson word (mean 0.02 * total fetches).
///
/// `on_value(app, value, count)` sees every Pareto value as drawn (web
/// objects, P2P peers, update fetches past the four base fetches): per
/// session in session order up to kParetoDirectCap sessions, as the
/// histogram past it. The feature renderer passes a no-op.
template <typename ValueSink>
[[gnu::always_inline]] inline V2BinTotals draw_v2_bin_totals(const FootprintTables32& T, V2Cursor& cur, std::uint64_t bin,
                               const std::array<std::uint64_t, kAppCount>& sessions,
                               ValueSink&& on_value) {
  constexpr std::uint64_t kDirect = FootprintTables32::kParetoDirectCap;
  const std::uint64_t s_web = sessions[index_of(AppKind::Web)];
  const std::uint64_t s_dns = sessions[index_of(AppKind::Dns)];
  const std::uint64_t s_mail = sessions[index_of(AppKind::Mail)];
  const std::uint64_t s_p2p = sessions[index_of(AppKind::P2p)];
  const std::uint64_t s_inter = sessions[index_of(AppKind::Interactive)];
  const std::uint64_t s_upd = sessions[index_of(AppKind::Update)];

  // Exact-ish word estimate from the known counts (merged draws are one
  // word each; only the multinomial tails are random). Slightly generous
  // so a typical bin is served by the single reset() fill.
  std::size_t est = 8;
  est += s_web <= kDirect ? s_web : 4 + s_web / 16;
  est += s_p2p <= kDirect ? s_p2p : 10 + s_p2p / 8;
  est += s_upd <= kDirect ? s_upd : 10 + s_upd / 16;
  cur.reset(bin, est);

  const auto sink_of = [&on_value](AppKind app) {
    return [&on_value, app](std::uint32_t value, std::uint64_t count) {
      on_value(app, value, count);
    };
  };

  V2BinTotals t;
  if (const std::uint64_t S = s_web; S != 0) {
    if (S <= kDirect) {
      const std::uint64_t web_b0 = T.web_objects.boundary(0);
      const std::uint64_t web_b1 = T.web_objects.boundary(1);
      const std::uint64_t web_b2 = T.web_objects.boundary(2);
      const std::uint32_t* ow = cur.take(S);
      for (std::uint64_t s = 0; s < S; ++s) {
        const std::uint32_t w = ow[s];
        std::uint32_t o;
        if (w > web_b2) [[likely]]
          o = 1 + (w <= web_b0 ? 1u : 0u) + (w <= web_b1 ? 1u : 0u);
        else
          o = T.web_objects.count(w);
        on_value(AppKind::Web, o, 1);
        t.web_objects += o;
        t.web_min12 += std::min<std::uint32_t>(o, 12);
      }
    } else {
      T.web_objects_sum.sample(cur, S, t.web_objects, t.web_min12, sink_of(AppKind::Web));
    }
    // The merged domain draw needs only the sufficient statistic min12;
    // the Bernoulli passes over objects collapse to one Binomial word.
    t.web_domain_extra = T.domain_sum.sample(cur(), t.web_min12);
    t.web_https = T.https_045.sample(cur(), t.web_objects);
    t.web_syn_extra = T.syn_retrans_003.sample(cur(), t.web_objects);
  }
  if (s_dns != 0) t.dns_extra = T.dns_sum.sample(cur(), s_dns);
  if (s_mail != 0) t.mail_hits = T.mail_dns_020.sample(cur(), s_mail);
  if (const std::uint64_t S = s_p2p; S != 0) {
    if (S <= kDirect) {
      const std::uint32_t* pw = cur.take(S);
      for (std::uint64_t s = 0; s < S; ++s) {
        const std::uint32_t peers = T.p2p_peers.count_fast(pw[s]);
        on_value(AppKind::P2p, peers, 1);
        t.p2p_peers += peers;
      }
    } else {
      std::uint64_t unused = 0;
      T.p2p_peers_sum.sample(cur, S, t.p2p_peers, unused, sink_of(AppKind::P2p));
    }
  }
  if (s_inter != 0) t.interactive_hits = T.interactive_dns_030.sample(cur(), s_inter);
  if (const std::uint64_t S = s_upd; S != 0) {
    std::uint64_t pareto_fetches = 0;
    if (S <= kDirect) {
      const std::uint32_t* fw = cur.take(S);
      for (std::uint64_t s = 0; s < S; ++s) {
        const std::uint32_t f = T.update_fetches.count_fast(fw[s]);
        on_value(AppKind::Update, f, 1);
        pareto_fetches += f;
      }
    } else {
      std::uint64_t unused = 0;
      T.update_fetches_sum.sample(cur, S, pareto_fetches, unused, sink_of(AppKind::Update));
    }
    t.update_fetches = 4 * S + pareto_fetches;
    t.update_retrans = T.update_sum.sample(cur(), t.update_fetches);
  }
  return t;
}

/// The packet channel of one bin as an emit_session_packets engine: every
/// draw is one Philox word of stream kV2PacketChannel + bin, and source
/// ports come from a per-bin allocator instead of the stream.
///
/// Port allocation is what keeps the packet path's connection counts exact:
/// no two flows that are live at the same time may share a 5-tuple, or the
/// flow table would fold the second into the first. Within a bin, each
/// protocol hands out consecutive ports of the bin's block. Bins rotate
/// through `phases` disjoint blocks of the 49152–65535 range, with enough
/// phases that a block is reused only after every flow that held it has
/// expired: the last packet of a bin's sessions lies inside the bin, and a
/// UDP flow stays in the flow table for at most its idle timeout plus one
/// sweep interval (kFlowLinger, the FlowTableConfig defaults) after it.
class V2PacketDraws {
 public:
  static constexpr util::Duration kFlowLinger = 90 * util::kMicrosPerSecond;

  V2PacketDraws(std::uint64_t key, std::uint64_t bin, util::Duration bin_width) noexcept
      : rng_(key, kV2PacketChannel + bin) {
    const std::uint64_t phases = std::min<std::uint64_t>(
        2 + static_cast<std::uint64_t>(kFlowLinger / bin_width), kPortRange);
    block_ = static_cast<std::uint32_t>(kPortRange / phases);
    base_ = static_cast<std::uint32_t>(kFirstPort + (bin % phases) * block_);
  }

  std::uint32_t operator()() noexcept { return rng_(); }
  double uniform01() noexcept { return rng_.uniform01(); }

  /// Uniform integer in [lo, hi] from one word: floor(w * span / 2^32)
  /// (multiply-shift; the 2^-32-scale bias is far below anything the
  /// model resolves). The span is split into 32-bit halves so ranges past
  /// 2^32 (offsets in bins longer than 71 minutes) cannot overflow.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept {
    const std::uint64_t span = hi - lo + 1;
    const std::uint64_t w = rng_();
    return lo + w * (span >> 32) + ((w * (span & 0xFFFFFFFFu)) >> 32);
  }

  std::uint16_t ephemeral_port(net::Protocol protocol) noexcept {
    std::uint32_t& next = protocol == net::Protocol::Tcp ? next_tcp_ : next_udp_;
    return static_cast<std::uint16_t>(base_ + next++ % block_);
  }

 private:
  static constexpr std::uint64_t kFirstPort = 49152;
  static constexpr std::uint64_t kPortRange = 65536 - kFirstPort;

  util::Philox4x32 rng_;
  std::uint32_t base_ = 0;
  std::uint32_t block_ = 1;
  std::uint32_t next_tcp_ = 0;
  std::uint32_t next_udp_ = 0;
};

/// Renders the v2 contract's packets for a run of bins: the same session
/// counts and merged totals as the feature renderer, split over sessions on
/// the split channels and rendered on the packet channels. Every packet of
/// a bin's sessions lies inside the bin, so the bins render independently.
/// Defined in v2_packets.cpp.
class V2PacketRenderer {
 public:
  V2PacketRenderer(const GeneratorConfig& config, const UserProfile& user,
                   const DestinationPools& pools, std::uint64_t first_bin,
                   std::uint64_t end_bin);

  /// Appends bin `bin`'s packets (unsorted) to `out`; first_bin <= bin <
  /// end_bin.
  void render_bin(std::uint64_t bin, std::vector<net::PacketRecord>& out);

 private:
  struct Session {
    AppKind kind;
    SessionFootprint footprint;
  };

  const GeneratorConfig* config_;
  const UserProfile* user_;
  const DestinationPools* pools_;
  std::uint64_t key_;
  std::uint64_t first_bin_;
  std::uint64_t bins_;
  V2TilePlan plan_;
  std::vector<std::uint32_t> words_;
  std::array<std::vector<std::uint32_t>, kAppCount> values_;
  std::vector<Session> sessions_;
  std::vector<std::uint64_t> cumulative_;
  std::vector<std::uint32_t> shares_;
};

}  // namespace monohids::trace::detail
