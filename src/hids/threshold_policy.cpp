#include "hids/threshold_policy.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace monohids::hids {

namespace {

GroupAssignment group_population(std::span<const stats::EmpiricalDistribution> training_users,
                                 const Grouper& grouper) {
  MONOHIDS_EXPECT(!training_users.empty(), "empty population");
  GroupAssignment groups = grouper.assign(training_users);
  MONOHIDS_EXPECT(groups.group_of_user.size() == training_users.size(),
                  "grouper returned the wrong population size");
  return groups;
}

/// The pooled distribution of `members`: their runs merged into one owning
/// distribution (copies of the members are pointer copies).
stats::EmpiricalDistribution pool_members(
    std::span<const stats::EmpiricalDistribution> training_users,
    std::span<const std::uint32_t> members) {
  std::vector<stats::EmpiricalDistribution> parts;
  parts.reserve(members.size());
  for (std::uint32_t u : members) parts.push_back(training_users[u]);
  return stats::EmpiricalDistribution::merge(parts);
}

/// groups.members(), with every group checked to be non-empty.
std::vector<std::vector<std::uint32_t>> members_of(const GroupAssignment& groups) {
  auto members = groups.members();
  for (const auto& m : members) MONOHIDS_EXPECT(!m.empty(), "grouper produced an empty group");
  return members;
}

/// Hands every user their group's threshold.
void fill_user_thresholds(ThresholdAssignment& out) {
  out.threshold_of_user.resize(out.groups.group_of_user.size());
  for (std::size_t u = 0; u < out.threshold_of_user.size(); ++u) {
    out.threshold_of_user[u] = out.threshold_of_group[out.groups.group_of_user[u]];
  }
}

}  // namespace

ThresholdAssignment assign_thresholds(
    std::span<const stats::EmpiricalDistribution> training_users, const Grouper& grouper,
    const ThresholdHeuristic& heuristic, const AttackModel* attack, unsigned threads) {
  ThresholdAssignment out;
  out.groups = group_population(training_users, grouper);
  out.threshold_of_group.resize(out.groups.group_count);
  const auto members = members_of(out.groups);
  // Groups are independent (each pools its own members and runs the
  // heuristic on the pooled distribution), so they shard across threads;
  // each shard writes only threshold_of_group[g].
  util::parallel_for(
      out.groups.group_count,
      [&](std::size_t g) {
        out.threshold_of_group[g] =
            members[g].size() == 1
                ? heuristic.compute(training_users[members[g].front()], attack)
                : heuristic.compute(pool_members(training_users, members[g]), attack);
      },
      threads);
  fill_user_thresholds(out);
  return out;
}

PooledCurves pooled_curves(std::span<const stats::EmpiricalDistribution> training_users,
                           const Grouper& grouper, const AttackModel& attack,
                           unsigned threads) {
  PooledCurves out;
  out.groups = group_population(training_users, grouper);
  out.hull_of_group.resize(out.groups.group_count);
  const auto members = members_of(out.groups);
  // Full diversity means one sweep per host, so the groups shard across
  // threads; each shard writes only hull_of_group[g].
  util::parallel_for(
      out.groups.group_count,
      [&](std::size_t g) {
        out.hull_of_group[g] = utility_hull(
            members[g].size() == 1
                ? operating_curve(training_users[members[g].front()], attack)
                : operating_curve(pool_members(training_users, members[g]), attack));
      },
      threads);
  return out;
}

ThresholdAssignment select_thresholds(
    std::span<const stats::EmpiricalDistribution> training_users, const PooledCurves& curves,
    const UtilityHeuristic& heuristic) {
  MONOHIDS_EXPECT(curves.groups.group_of_user.size() == training_users.size() &&
                      curves.hull_of_group.size() == curves.groups.group_count,
                  "pooled curves cover a different population");
  ThresholdAssignment out;
  out.groups = curves.groups;
  out.threshold_of_group.resize(out.groups.group_count);
  // A few dozen hull points per group: too little work to fan out.
  for (std::size_t g = 0; g < out.groups.group_count; ++g) {
    out.threshold_of_group[g] = heuristic.select(curves.hull_of_group[g]);
  }
  fill_user_thresholds(out);
  return out;
}

std::vector<std::uint32_t> best_users(const ThresholdAssignment& assignment,
                                      std::size_t count,
                                      std::span<const double> tiebreak) {
  MONOHIDS_EXPECT(tiebreak.empty() || tiebreak.size() == assignment.threshold_of_user.size(),
                  "tiebreak vector must match the population");
  std::vector<std::uint32_t> order(assignment.threshold_of_user.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double ta = assignment.threshold_of_user[a];
    const double tb = assignment.threshold_of_user[b];
    if (ta != tb) return ta < tb;
    if (!tiebreak.empty() && tiebreak[a] != tiebreak[b]) return tiebreak[a] < tiebreak[b];
    return a < b;
  });
  order.resize(std::min(count, order.size()));
  return order;
}

}  // namespace monohids::hids
