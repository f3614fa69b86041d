// Precomputed draw tables for the batched generation pipeline.
//
// Every footprint draw in apps.cpp bottoms out in one of three shapes: a
// capped Pareto count (pow), a small-mean Poisson count (exp + product
// chain) or a Bernoulli test against a fixed probability. All of their
// libm-dependent constants are fixed by the model, so they are computed
// once per process and reduced to exact integer thresholds on the raw
// engine words (see stats/sampling.hpp's batch API for the exactness
// argument). The batched bin loop then contains no libm calls at all.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "stats/sampling.hpp"

namespace monohids::trace::detail {

struct FootprintTables {
  // Capped Pareto counts: web page objects, P2P peers, update fetches.
  stats::batch::ParetoCountTable web_objects{2.6, 40};
  stats::batch::ParetoCountTable p2p_peers{1.55, 600};
  stats::batch::ParetoCountTable update_fetches{2.1, 100};

  // Web per-page domain count: 1 + Poisson(min(objects, 12) / 5), one row
  // per possible object count.
  double web_domain_limit[41];
  std::uint64_t web_domain_threshold[41];

  // Background DNS burst: 1 + Poisson(0.6).
  double dns_limit;
  std::uint64_t dns_threshold;

  // Update SYN retransmissions: Poisson(fetches * 0.02), fetches in 5..104.
  double update_syn_limit[105];
  std::uint64_t update_syn_threshold[105];

  // Bernoulli thresholds: HTTPS share, SYN retransmission, mail DNS
  // refresh, interactive DNS refresh.
  std::uint64_t https_045;
  std::uint64_t syn_retrans_003;
  std::uint64_t mail_dns_020;
  std::uint64_t interactive_dns_030;

  FootprintTables() {
    using stats::batch::bernoulli_threshold;
    using stats::batch::knuth_zero_threshold;
    for (std::uint32_t objects = 1; objects <= 40; ++objects) {
      web_domain_limit[objects] =
          std::exp(-(std::min<double>(objects, 12.0) / 5.0));
      web_domain_threshold[objects] = knuth_zero_threshold(web_domain_limit[objects]);
    }
    dns_limit = std::exp(-0.6);
    dns_threshold = knuth_zero_threshold(dns_limit);
    for (std::uint32_t fetches = 5; fetches <= 104; ++fetches) {
      update_syn_limit[fetches] = std::exp(-(static_cast<double>(fetches) * 0.02));
      update_syn_threshold[fetches] = knuth_zero_threshold(update_syn_limit[fetches]);
    }
    https_045 = bernoulli_threshold(0.45);
    syn_retrans_003 = bernoulli_threshold(0.03);
    mail_dns_020 = bernoulli_threshold(0.2);
    interactive_dns_030 = bernoulli_threshold(0.3);
  }
};

/// The process-wide table set (immutable after construction, so sharing
/// across generator threads is free).
[[nodiscard]] const FootprintTables& footprint_tables();

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

/// The same footprint model in the v2 counter-mode draw grain: raw 32-bit
/// Philox words, EVERY draw exactly one word. Three reductions get it
/// there (all exact in distribution; the feature matrix only consumes
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
  stats::batch::ParetoCountTable web_objects{2.6, 40, 32};
  stats::batch::ParetoCountTable p2p_peers{1.55, 600, 32};
  stats::batch::ParetoCountTable update_fetches{2.1, 100, 32};

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

/// The process-wide v2 table set.
[[nodiscard]] const FootprintTables32& footprint_tables32();

}  // namespace monohids::trace::detail
