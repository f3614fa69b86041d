// Greenwald–Khanna ε-approximate quantile sketch (SIGMOD 2001).
//
// Complements P²: one GK sketch answers *all* quantile queries with rank
// error at most ε·n using O((1/ε)·log(ε·n)) space — the right tool when a
// host tracks both the 99th and 99.9th percentile of a feature, or when the
// central console wants mergeable compact summaries instead of shipping
// full distributions.
//
// Fleet-mode surface (sim/fleet.hpp): hosts summarize each week's bin
// counts with from_sorted(), the console folds host summaries into pooled
// group sketches with merge() (the ε-rank guarantee survives any merge
// tree — see the differential suite), sweeps quantile grids with
// quantile_batch() (one stats::kernels merge-scan over the rank
// envelope instead of a scan per query), and ships summaries across
// processes with serialize()/deserialize().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

namespace monohids::stats {

class GkSketch {
 public:
  /// `epsilon` in (0, 0.5): maximum rank error as a fraction of n.
  explicit GkSketch(double epsilon);

  void add(double value);

  /// Builds a sketch of an already-sorted (ascending) stream in one pass:
  /// run-length tuples with zero rank uncertainty, compressed once to the
  /// ε band. Orders of magnitude faster than add()-ing value by value (no
  /// per-insert search) and tighter (delta = 0 everywhere), with the same
  /// ε-rank guarantee. The fleet reducer's construction path.
  [[nodiscard]] static GkSketch from_sorted(std::span<const double> sorted, double epsilon);

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] std::size_t tuple_count() const noexcept { return tuples_.size(); }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }

  /// Value whose rank is within ε·n of ceil(q·n). Requires n > 0.
  [[nodiscard]] double quantile(double q) const;

  /// Batched quantile(): out[j] = quantile(qs[j]) for an ascending batch,
  /// answered by one merge-scan of the query ranks against the sketch's
  /// monotone rank envelope (stats::kernels::rank_sorted) —
  /// O(tuples + |qs|) instead of O(tuples·|qs|). Results
  /// are identical to per-call quantile() query for query.
  void quantile_batch(std::span<const double> qs, std::span<double> out) const;

  /// Folds `other` into this sketch: afterwards this summarizes the union
  /// of both input streams. Both sketches must share the same ε; the
  /// merged sketch keeps the ε-rank guarantee (tuple uncertainties are
  /// recombined from both rank envelopes, then compressed to the ε band),
  /// so summaries can be folded in any shape — pairwise, tree, or the
  /// fleet console's left-fold over hosts of a group. Deterministic: the
  /// result depends only on (this, other) contents, with value ties taken
  /// from this sketch first.
  void merge(const GkSketch& other);

  /// Writes a portable binary image (magic, version, ε, n, tuples).
  void serialize(std::ostream& out) const;

  /// Reads a serialize()d image; throws util::InputError on truncated or
  /// corrupt input (bad magic/version, non-finite or descending values,
  /// inconsistent rank bookkeeping, a tuple with g + delta above the band
  /// max(1, ⌊2εn⌋)). The round-trip is exact: the restored sketch answers
  /// every query identically.
  [[nodiscard]] static GkSketch deserialize(std::istream& in);

  /// Heap footprint of the summary (the fleet's per-host memory accounting).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return tuples_.capacity() * sizeof(Tuple);
  }

 private:
  struct Tuple {
    double value;
    std::uint64_t g;      // rank gap to predecessor
    std::uint64_t delta;  // rank uncertainty
  };

  void compress();

  double epsilon_;
  std::uint64_t n_ = 0;
  std::vector<Tuple> tuples_;  // sorted by value
};

}  // namespace monohids::stats
