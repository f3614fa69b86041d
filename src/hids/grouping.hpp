// Grouping policies (paper §4: the second policy component).
//
// A Grouper partitions the user population; all hosts in a group share one
// threshold computed from their pooled traffic. The paper's three scenarios:
//   - Homogeneous: one group (the IT monoculture),
//   - Full diversity: every host its own group,
//   - Partial diversity: a small number of groups; the paper's heuristic
//     splits the top 15% "heavy" users from the bottom 85% at the Fig. 1
//     knee and subdivides each side into 4 quantile groups (8-partial).
// Two alternative groupers (k-means, equal frequency) implement the paper's
// future-work question of whether the partial-diversity result is robust to
// the grouping method.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stats/empirical.hpp"
#include "util/rng.hpp"

namespace monohids::hids {

/// Partition of users into groups.
struct GroupAssignment {
  std::vector<std::uint32_t> group_of_user;  // user index -> group id
  std::uint32_t group_count = 0;

  [[nodiscard]] std::vector<std::vector<std::uint32_t>> members() const;
};

class Grouper {
 public:
  virtual ~Grouper() = default;

  /// Partitions users given their per-user training distributions.
  [[nodiscard]] virtual GroupAssignment assign(
      std::span<const stats::EmpiricalDistribution> users) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Identity string for memoization (sim::AnalysisCache): two groupers
  /// with the same cache_key MUST produce identical partitions on identical
  /// input. Defaults to name(); parameterized groupers whose display name
  /// omits configuration override it to append every parameter, printed
  /// round-trip exactly (max_digits10).
  [[nodiscard]] virtual std::string cache_key() const { return name(); }
};

/// Everybody in one group — the monoculture baseline.
class HomogeneousGrouper final : public Grouper {
 public:
  [[nodiscard]] GroupAssignment assign(
      std::span<const stats::EmpiricalDistribution> users) const override;
  [[nodiscard]] std::string name() const override { return "homogeneous"; }
};

/// Every user their own group.
class FullDiversityGrouper final : public Grouper {
 public:
  [[nodiscard]] GroupAssignment assign(
      std::span<const stats::EmpiricalDistribution> users) const override;
  [[nodiscard]] std::string name() const override { return "full-diversity"; }
};

/// The paper's partial-diversity heuristic: order users by the
/// `pivot_quantile` of their training distribution, split at
/// `top_fraction`, then subdivide the heavy side into `top_groups` and the
/// light side into `bottom_groups` equal-frequency groups
/// (defaults reproduce the paper's 8-partial policy).
class KneePartialGrouper final : public Grouper {
 public:
  explicit KneePartialGrouper(double top_fraction = 0.15, std::uint32_t top_groups = 4,
                              std::uint32_t bottom_groups = 4, double pivot_quantile = 0.99);
  [[nodiscard]] GroupAssignment assign(
      std::span<const stats::EmpiricalDistribution> users) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;

 private:
  double top_fraction_;
  std::uint32_t top_groups_;
  std::uint32_t bottom_groups_;
  double pivot_quantile_;
};

/// k-means over log10 of the pivot-quantile values (the paper tried this
/// and found no natural separation; provided for the ablation).
class KMeansGrouper final : public Grouper {
 public:
  KMeansGrouper(std::uint32_t k, double pivot_quantile = 0.99, std::uint64_t seed = 17);
  [[nodiscard]] GroupAssignment assign(
      std::span<const stats::EmpiricalDistribution> users) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;

 private:
  std::uint32_t k_;
  double pivot_quantile_;
  std::uint64_t seed_;
};

/// k equal-frequency buckets of the pivot-quantile ordering.
class EqualFrequencyGrouper final : public Grouper {
 public:
  explicit EqualFrequencyGrouper(std::uint32_t k, double pivot_quantile = 0.99);
  [[nodiscard]] GroupAssignment assign(
      std::span<const stats::EmpiricalDistribution> users) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string cache_key() const override;

 private:
  std::uint32_t k_;
  double pivot_quantile_;
};

}  // namespace monohids::hids
