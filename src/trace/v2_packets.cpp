// Packet renderer of the v2 counter-mode scenario contract.
//
// A bin's packets are built from exactly the draws its feature row is built
// from — the count-channel session counts and the bin stream's merged
// totals (draw_v2_bin_totals) — so extract_features over the packets
// reproduces generate_features' TCP, UDP, DNS, HTTP and SYN counts in every
// bin. The merged totals are split over the bin's sessions on the bin's
// split channel:
//
//   - Pareto values (web objects, P2P peers, update fetches) are already
//     per session up to kParetoDirectCap sessions; past it the histogram's
//     values are shuffled over the sessions;
//   - HTTPS and SYN-retransmission totals pick random subsets of the
//     objects (one word per object, selection sampling);
//   - domain, DNS-extra and update-retransmission Poisson totals split
//     multinomially, each unit landing on a session with probability
//     proportional to that session's Poisson mean;
//   - mail and interactive DNS refreshes pick random subsets of sessions;
//   - the resolver cache drops exactly round(dns * dns_cache_hit) of the
//     bin's lookups, the count finalize_bins subtracts.
//
// Sessions then render through emit_session_packets on the bin's packet
// channel, each placed at a uniform offset that keeps all of its packets
// inside the bin. The distinct-destination feature stays statistical: the
// feature path computes it from an expectation formula, not from picks.
#include <algorithm>
#include <cmath>

#include "trace/v2_contract.hpp"
#include "util/error.hpp"

namespace monohids::trace::detail {

namespace {

/// One word of the split channel scaled to [0, n).
std::uint64_t below(util::Philox4x32& rng, std::uint64_t n) {
  return (static_cast<std::uint64_t>(rng()) * n) >> 32;
}

/// Selection sampling: walks `n` items in order and marks exactly `k` of
/// them, one word per item; `on_item(index, selected)` sees every item.
template <typename OnItem>
void select_subset(util::Philox4x32& rng, std::uint64_t n, std::uint64_t k,
                   OnItem&& on_item) {
  for (std::uint64_t i = 0; i < n; ++i) {
    // Select with probability k / (n - i): always once k reaches n - i,
    // never once k is 0, so exactly k items are marked.
    const bool selected = (static_cast<std::uint64_t>(rng()) * (n - i)) < (k << 32);
    if (selected) --k;
    on_item(i, selected);
  }
}

/// Adds `units` to `counts`, each landing on index s with probability
/// weight[s] / total; `cumulative` holds the running weight sums.
void split_multinomial(util::Philox4x32& rng, std::uint64_t units,
                       const std::vector<std::uint64_t>& cumulative,
                       std::vector<std::uint32_t>& counts) {
  const std::uint64_t total = cumulative.back();
  for (std::uint64_t u = 0; u < units; ++u) {
    const std::uint64_t at = below(rng, total);
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), at);
    ++counts[static_cast<std::size_t>(it - cumulative.begin())];
  }
}

}  // namespace

V2PacketRenderer::V2PacketRenderer(const GeneratorConfig& config, const UserProfile& user,
                                   const DestinationPools& pools, std::uint64_t first_bin,
                                   std::uint64_t end_bin)
    : config_(&config),
      user_(&user),
      pools_(&pools),
      key_(util::derive_seed(user.seed, "v2/bins", 0)),
      first_bin_(first_bin),
      bins_(end_bin - first_bin) {
  plan_v2_tile(config, user, first_bin, end_bin, plan_);
}

void V2PacketRenderer::render_bin(std::uint64_t bin, std::vector<net::PacketRecord>& out) {
  MONOHIDS_EXPECT(bin >= first_bin_ && bin - first_bin_ < bins_, "bin outside the renderer");
  const std::uint64_t i = bin - first_bin_;
  if (!plan_.active[i]) return;

  std::array<std::uint64_t, kAppCount> s;
  for (std::size_t a = 0; a < kAppCount; ++a) s[a] = plan_.cnt[a * bins_ + i];
  for (auto& v : values_) v.clear();
  V2Cursor cur(key_, words_);
  const auto record = [this](AppKind app, std::uint32_t value, std::uint64_t n) {
    values_[index_of(app)].insert(values_[index_of(app)].end(), n, value);
  };
  const V2BinTotals t = draw_v2_bin_totals(footprint_tables32(), cur, bin, s, record);

  util::Philox4x32 split(key_, kV2SplitChannel + bin);
  constexpr std::uint64_t kDirect = FootprintTables32::kParetoDirectCap;
  // Past the direct cap the values arrive as a histogram: deal them out to
  // the sessions in a uniformly random order.
  const auto per_session = [&](AppKind app) -> std::vector<std::uint32_t>& {
    std::vector<std::uint32_t>& v = values_[index_of(app)];
    if (v.size() > kDirect) {
      for (std::size_t j = v.size() - 1; j > 0; --j) {
        std::swap(v[j], v[below(split, j + 1)]);
      }
    }
    return v;
  };
  // Multinomial split of `units` over sessions_[first, end): each unit
  // lands on a session with probability proportional to weight(session),
  // and credit(footprint, k) hands a session its share k.
  const auto split_units = [&](std::uint64_t units, std::size_t first, auto&& weight,
                               auto&& credit) {
    if (units == 0) return;
    cumulative_.clear();
    std::uint64_t acc = 0;
    for (std::size_t j = first; j < sessions_.size(); ++j) {
      cumulative_.push_back(acc += weight(sessions_[j].footprint));
    }
    shares_.assign(cumulative_.size(), 0);
    split_multinomial(split, units, cumulative_, shares_);
    for (std::size_t j = 0; j < shares_.size(); ++j) {
      credit(sessions_[first + j].footprint, shares_[j]);
    }
  };
  const auto credit_lookups = [](SessionFootprint& f, std::uint32_t k) {
    f.dns_connections += k;
    f.udp_connections += k;
  };
  // Selection sampling over `items` numbered session by session from
  // sessions_[first] on, count_of(footprint) of them per session: marks
  // exactly k, handing each one's session to mark(footprint).
  const auto select_items = [&](std::size_t first, std::uint64_t items, std::uint64_t k,
                                auto&& count_of, auto&& mark) {
    std::size_t owner = first;
    std::uint64_t owner_end = 0;
    select_subset(split, items, k, [&](std::uint64_t item, bool selected) {
      while (item >= owner_end) owner_end += count_of(sessions_[owner++].footprint);
      if (selected) mark(sessions_[owner - 1].footprint);
    });
  };
  const auto add_sessions = [&](AppKind kind, std::uint64_t n, SessionFootprint f) {
    sessions_.insert(sessions_.end(), n, Session{kind, f});
  };

  sessions_.clear();
  {  // Web: objects, then domain extras, HTTPS objects, SYN retransmissions.
    const std::size_t first = sessions_.size();
    for (const std::uint32_t o : per_session(AppKind::Web)) {
      add_sessions(AppKind::Web, 1, {.tcp_connections = o, .udp_connections = 1,
                                     .dns_connections = 1, .http_connections = o,
                                     .syn_packets = o});
    }
    // A session's domain-extras mean is min(objects, 12) / 5.
    const auto domain_weight = [](const SessionFootprint& f) {
      return std::min<std::uint64_t>(f.tcp_connections, 12);
    };
    split_units(t.web_domain_extra, first, domain_weight, credit_lookups);
    const auto objects = [](const SessionFootprint& f) { return f.tcp_connections; };
    select_items(first, t.web_objects, t.web_https, objects,
                 [](SessionFootprint& f) { --f.http_connections; });
    select_items(first, t.web_objects, t.web_syn_extra, objects,
                 [](SessionFootprint& f) { ++f.syn_packets; });
  }
  {  // Dns: one lookup each plus the extras, split evenly.
    const std::size_t first = sessions_.size();
    add_sessions(AppKind::Dns, s[index_of(AppKind::Dns)],
                 {.udp_connections = 1, .dns_connections = 1});
    split_units(
        t.dns_extra, first, [](const SessionFootprint&) { return std::uint64_t{1}; },
        credit_lookups);
  }
  // Mail and Interactive: one connection each; `hits` of them refresh DNS.
  const auto single_connection = [&](AppKind kind, std::uint64_t hits) {
    const std::size_t first = sessions_.size();
    add_sessions(kind, s[index_of(kind)], {.tcp_connections = 1, .syn_packets = 1});
    select_items(
        first, s[index_of(kind)], hits, [](const SessionFootprint&) { return 1u; },
        [&](SessionFootprint& f) { credit_lookups(f, 1); });
  };
  single_connection(AppKind::Mail, t.mail_hits);
  for (const std::uint32_t peers : per_session(AppKind::P2p)) {
    add_sessions(AppKind::P2p, 1, {.udp_connections = peers});
  }
  single_connection(AppKind::Interactive, t.interactive_hits);
  {  // Update: 4 + Pareto fetches, retransmissions split by fetch count.
    const std::size_t first = sessions_.size();
    for (const std::uint32_t f : per_session(AppKind::Update)) {
      add_sessions(AppKind::Update, 1, {.tcp_connections = 4 + f, .udp_connections = 1,
                                        .dns_connections = 1, .syn_packets = 4 + f});
    }
    split_units(
        t.update_retrans, first,
        [](const SessionFootprint& f) { return std::uint64_t{f.tcp_connections}; },
        [](SessionFootprint& f, std::uint32_t k) { f.syn_packets += k; });
  }

  {  // Resolver cache: drop exactly the lookups finalize_bins subtracts.
    std::uint64_t lookups = 0;
    for (const Session& x : sessions_) lookups += x.footprint.dns_connections;
    const auto cached = static_cast<std::uint64_t>(
        std::round(static_cast<double>(lookups) * user_->dns_cache_hit));
    select_items(
        0, lookups, cached, [](const SessionFootprint& f) { return f.dns_connections; },
        [](SessionFootprint& f) {
          --f.dns_connections;
          --f.udp_connections;
        });
  }

  // Render each session at offset 0, then slide it to a uniform offset that
  // keeps its last packet inside the bin.
  const util::Duration width = config_->grid.width();
  const util::Timestamp bin_start = config_->grid.bin_start(bin);
  V2PacketDraws draws(key_, bin, width);
  for (const Session& x : sessions_) {
    const std::size_t begin = out.size();
    emit_session_packets(x.kind, x.footprint, 0, user_->address, *pools_, draws, out);
    if (out.size() == begin) continue;  // every lookup answered from cache
    util::Timestamp span = 0;
    for (std::size_t j = begin; j < out.size(); ++j) span = std::max(span, out[j].timestamp);
    const util::Timestamp shift =
        bin_start + (span < width ? draws.uniform_int(0, width - 1 - span) : 0);
    for (std::size_t j = begin; j < out.size(); ++j) out[j].timestamp += shift;
  }
}

}  // namespace monohids::trace::detail
