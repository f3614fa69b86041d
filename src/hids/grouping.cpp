#include "hids/grouping.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "stats/kmeans.hpp"
#include "util/error.hpp"

namespace monohids::hids {

std::vector<std::vector<std::uint32_t>> GroupAssignment::members() const {
  std::vector<std::vector<std::uint32_t>> out(group_count);
  for (std::uint32_t u = 0; u < group_of_user.size(); ++u) {
    MONOHIDS_EXPECT(group_of_user[u] < group_count, "group id out of range");
    out[group_of_user[u]].push_back(u);
  }
  return out;
}

GroupAssignment HomogeneousGrouper::assign(
    std::span<const stats::EmpiricalDistribution> users) const {
  MONOHIDS_EXPECT(!users.empty(), "empty population");
  GroupAssignment a;
  a.group_of_user.assign(users.size(), 0);
  a.group_count = 1;
  return a;
}

GroupAssignment FullDiversityGrouper::assign(
    std::span<const stats::EmpiricalDistribution> users) const {
  MONOHIDS_EXPECT(!users.empty(), "empty population");
  GroupAssignment a;
  a.group_of_user.resize(users.size());
  std::iota(a.group_of_user.begin(), a.group_of_user.end(), 0);
  a.group_count = static_cast<std::uint32_t>(users.size());
  return a;
}

namespace {

/// Users ordered ascending by the pivot quantile of their training data.
std::vector<std::uint32_t> order_by_quantile(
    std::span<const stats::EmpiricalDistribution> users, double pivot_quantile) {
  std::vector<std::uint32_t> order(users.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> pivot(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    pivot[i] = users[i].empty() ? 0.0 : users[i].quantile(pivot_quantile);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return pivot[a] < pivot[b]; });
  return order;
}

/// Splits `count` ordered slots into `groups` nearly equal chunks; returns
/// the group id of each slot position.
void chunk_assign(std::span<const std::uint32_t> ordered_users, std::uint32_t groups,
                  std::uint32_t first_group_id, std::vector<std::uint32_t>& group_of_user) {
  const std::size_t n = ordered_users.size();
  if (n == 0) return;
  const std::uint32_t effective = std::min<std::uint32_t>(groups, static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const auto g = static_cast<std::uint32_t>(i * effective / n);
    group_of_user[ordered_users[i]] = first_group_id + g;
  }
}

}  // namespace

KneePartialGrouper::KneePartialGrouper(double top_fraction, std::uint32_t top_groups,
                                       std::uint32_t bottom_groups, double pivot_quantile)
    : top_fraction_(top_fraction),
      top_groups_(top_groups),
      bottom_groups_(bottom_groups),
      pivot_quantile_(pivot_quantile) {
  MONOHIDS_EXPECT(top_fraction > 0.0 && top_fraction < 1.0, "top fraction must be in (0,1)");
  MONOHIDS_EXPECT(top_groups > 0 && bottom_groups > 0, "group counts must be positive");
  MONOHIDS_EXPECT(pivot_quantile > 0.0 && pivot_quantile < 1.0,
                  "pivot quantile must be in (0,1)");
}

GroupAssignment KneePartialGrouper::assign(
    std::span<const stats::EmpiricalDistribution> users) const {
  MONOHIDS_EXPECT(!users.empty(), "empty population");
  const auto order = order_by_quantile(users, pivot_quantile_);

  const auto n = users.size();
  const auto top_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(top_fraction_ * static_cast<double>(n))));
  const std::size_t bottom_count = n - top_count;

  GroupAssignment a;
  a.group_of_user.assign(n, 0);
  const std::span<const std::uint32_t> ordered(order);
  // bottom 85% first (group ids 0..bottom_groups-1), then top 15%
  chunk_assign(ordered.first(bottom_count), bottom_groups_, 0, a.group_of_user);
  chunk_assign(ordered.subspan(bottom_count), top_groups_,
               std::min<std::uint32_t>(bottom_groups_,
                                       static_cast<std::uint32_t>(bottom_count)),
               a.group_of_user);
  a.group_count = *std::max_element(a.group_of_user.begin(), a.group_of_user.end()) + 1;
  return a;
}

std::string KneePartialGrouper::name() const {
  std::ostringstream os;
  os << (top_groups_ + bottom_groups_) << "-partial";
  return os.str();
}

std::string KneePartialGrouper::cache_key() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);  // keys must not round
  os << name() << "(top=" << top_fraction_ << ",tg=" << top_groups_
     << ",bg=" << bottom_groups_ << ",q=" << pivot_quantile_ << ')';
  return os.str();
}

KMeansGrouper::KMeansGrouper(std::uint32_t k, double pivot_quantile, std::uint64_t seed)
    : k_(k), pivot_quantile_(pivot_quantile), seed_(seed) {
  MONOHIDS_EXPECT(k > 0, "k must be positive");
}

GroupAssignment KMeansGrouper::assign(
    std::span<const stats::EmpiricalDistribution> users) const {
  MONOHIDS_EXPECT(users.size() >= k_, "fewer users than clusters");
  std::vector<std::vector<double>> points;
  points.reserve(users.size());
  for (const auto& u : users) {
    const double q = u.empty() ? 0.0 : u.quantile(pivot_quantile_);
    points.push_back({std::log10(std::max(1.0, q))});  // cluster in log space
  }
  util::Xoshiro256 rng(seed_);
  const auto result = stats::kmeans(points, k_, rng);

  GroupAssignment a;
  a.group_of_user = result.assignment;
  a.group_count = k_;
  return a;
}

std::string KMeansGrouper::name() const {
  std::ostringstream os;
  os << "kmeans-" << k_;
  return os.str();
}

std::string KMeansGrouper::cache_key() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);  // keys must not round
  os << name() << "(q=" << pivot_quantile_ << ",seed=" << seed_ << ')';
  return os.str();
}

EqualFrequencyGrouper::EqualFrequencyGrouper(std::uint32_t k, double pivot_quantile)
    : k_(k), pivot_quantile_(pivot_quantile) {
  MONOHIDS_EXPECT(k > 0, "k must be positive");
}

GroupAssignment EqualFrequencyGrouper::assign(
    std::span<const stats::EmpiricalDistribution> users) const {
  MONOHIDS_EXPECT(!users.empty(), "empty population");
  const auto order = order_by_quantile(users, pivot_quantile_);
  GroupAssignment a;
  a.group_of_user.assign(users.size(), 0);
  chunk_assign(order, k_, 0, a.group_of_user);
  a.group_count = *std::max_element(a.group_of_user.begin(), a.group_of_user.end()) + 1;
  return a;
}

std::string EqualFrequencyGrouper::name() const {
  std::ostringstream os;
  os << "equal-freq-" << k_;
  return os.str();
}

std::string EqualFrequencyGrouper::cache_key() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);  // keys must not round
  os << name() << "(q=" << pivot_quantile_ << ')';
  return os.str();
}

}  // namespace monohids::hids
