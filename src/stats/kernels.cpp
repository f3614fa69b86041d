#include "stats/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/logging.hpp"

namespace monohids::stats::kernels {

namespace {

std::atomic<const Ops*> g_active{nullptr};

const Ops* best_available() noexcept {
  if (const Ops* avx2 = ops_for(Backend::Avx2)) return avx2;
  return detail::scalar_ops();
}

/// Startup selection: MONOHIDS_SIMD override first, then the best back-end
/// the CPU supports. An unavailable or unknown override logs a warning and
/// falls through to detection, so a stale env var can never break a run.
const Ops* detect() noexcept {
  if (const char* env = std::getenv("MONOHIDS_SIMD"); env != nullptr && *env != '\0') {
    const std::string_view requested(env);
    Backend backend = Backend::Scalar;
    bool known = true;
    if (requested == "scalar") backend = Backend::Scalar;
    else if (requested == "avx2") backend = Backend::Avx2;
    else known = false;
    if (known) {
      if (const Ops* ops = ops_for(backend)) return ops;
      MONOHIDS_LOG(Warn, "kernels")
          << "MONOHIDS_SIMD=" << requested
          << " requested but that back-end is unavailable on this host; "
             "using runtime detection";
    } else {
      MONOHIDS_LOG(Warn, "kernels")
          << "unknown MONOHIDS_SIMD value '" << requested
          << "' (want scalar|avx2); using runtime detection";
    }
  }
  return best_available();
}

}  // namespace

const Ops& active() noexcept {
  const Ops* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // Benign race: detect() is idempotent and every thread stores the same
    // pointer for a given environment.
    ops = detect();
    g_active.store(ops, std::memory_order_release);
  }
  return *ops;
}

Backend active_backend() noexcept {
  const Ops* ops = &active();
  if (ops == detail::avx2_ops() && ops != nullptr) return Backend::Avx2;
  return Backend::Scalar;
}

const Ops* ops_for(Backend backend) noexcept {
  switch (backend) {
    case Backend::Scalar:
      return detail::scalar_ops();
    case Backend::Avx2:
      return detail::cpu_supports_avx2() ? detail::avx2_ops() : nullptr;
  }
  return nullptr;
}

bool backend_available(Backend backend) noexcept { return ops_for(backend) != nullptr; }

std::string_view backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::Scalar:
      return "scalar";
    case Backend::Avx2:
      return "avx2";
  }
  return "unknown";
}

bool force_backend(Backend backend) noexcept {
  const Ops* ops = ops_for(backend);
  if (ops == nullptr) return false;
  g_active.store(ops, std::memory_order_release);
  return true;
}

void reset_backend() noexcept { g_active.store(detect(), std::memory_order_release); }

namespace {

/// Ascending-sweep strategy crossover of rank_sorted and rank_grid: a
/// merge-scan touches ~n + t samples, per-query binary search ~t*(log2 n +
/// 1) dependent loads. Binary wins for sparse sweeps over large arenas —
/// e.g. a few hundred candidate thresholds against a 200k-sample pooled
/// arena — while the merge-scan wins on dense per-user sweeps. Both
/// strategies return the same exact integer ranks; this is purely a cost
/// model and never changes results.
constexpr bool sweep_prefers_binary(std::size_t n, std::size_t t) noexcept {
  if (n < 2048) return false;  // small arenas stay cache-resident either way
  const auto log2n = static_cast<std::size_t>(std::bit_width(n));
  return t * (log2n + 1) < n;
}

}  // namespace

void rank_sorted(std::span<const double> arena, std::span<const double> xs, double shift,
                 std::uint32_t* out) {
  if (sweep_prefers_binary(arena.size(), xs.size())) {
    rank_unsorted(arena, xs, shift, out);
    return;
  }
  const double* a = arena.data();
  const std::size_t n = arena.size();
  std::size_t i = 0;
  for (std::size_t j = 0; j < xs.size(); ++j) {
    const double q = xs[j] - shift;
    while (i < n && a[i] <= q) ++i;
    out[j] = static_cast<std::uint32_t>(i);
  }
}

void rank_unsorted(std::span<const double> arena, std::span<const double> xs, double shift,
                   std::uint32_t* out) {
  for (std::size_t j = 0; j < xs.size(); ++j) {
    const auto it = std::upper_bound(arena.begin(), arena.end(), xs[j] - shift);
    out[j] = static_cast<std::uint32_t>(it - arena.begin());
  }
}

void rank_grid(std::span<const double> arena, std::span<const double> thresholds,
               std::span<const double> sizes, std::uint32_t* ranks) {
  const std::size_t T = thresholds.size();
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    rank_sorted(arena, thresholds, sizes[s], ranks + s * T);
  }
}

namespace {

/// Largest value the counting sweeps will histogram. Traffic-count features
/// stay far below this; anything bigger falls back to comparison sorting.
constexpr double kCountingMax = 65535.0;

/// True when `v` round-trips through a small unsigned integer without
/// changing its bit pattern (rejects fractions, negatives, out-of-range
/// values and the -0.0 edge case, whose emitted +0.0 would compare equal
/// but differ bitwise).
inline bool is_small_count(double v, std::uint32_t& out) noexcept {
  if (!(v >= 0.0) || v > kCountingMax) return false;
  const auto u = static_cast<std::uint32_t>(v);
  if (static_cast<double>(u) != v) return false;
  if (v == 0.0 && std::signbit(v)) return false;
  out = u;
  return true;
}

thread_local std::vector<std::uint32_t> t_histogram;

}  // namespace

bool sort_counts(std::vector<double>& samples) noexcept {
  if (samples.size() < 64) return false;  // std::sort wins on tiny inputs
  std::uint32_t max_value = 0;
  // Validation pass first: the histogram pass must not run on data that
  // bails halfway through (the caller would std::sort a clean buffer).
  for (double v : samples) {
    std::uint32_t u;
    if (!is_small_count(v, u)) return false;
    if (u > max_value) max_value = u;
  }
  auto& hist = t_histogram;
  hist.assign(static_cast<std::size_t>(max_value) + 1, 0);
  for (double v : samples) ++hist[static_cast<std::uint32_t>(v)];
  std::size_t i = 0;
  for (std::size_t value = 0; value <= max_value; ++value) {
    const double d = static_cast<double>(value);
    for (std::uint32_t c = hist[value]; c != 0; --c) samples[i++] = d;
  }
  return true;
}

bool counting_merge(std::span<const std::span<const double>> parts,
                    std::vector<double>& out) {
  std::size_t total = 0;
  std::uint32_t max_value = 0;
  for (const auto& p : parts) {
    total += p.size();
    if (p.empty()) continue;
    // Ascending parts: front/back bound the whole span, so one check per
    // part rejects negative or oversized data before the element scan.
    std::uint32_t u;
    if (!is_small_count(p.front(), u) || !is_small_count(p.back(), u)) return false;
    if (u > max_value) max_value = u;
  }
  if (total < 256) return false;  // heap merge wins on tiny pools
  auto& hist = t_histogram;
  hist.assign(static_cast<std::size_t>(max_value) + 1, 0);
  for (const auto& p : parts) {
    for (double v : p) {
      std::uint32_t u;
      if (!is_small_count(v, u)) return false;  // interior fraction/-0.0: bail
      ++hist[u];
    }
  }
  out.clear();
  out.reserve(total);
  for (std::size_t value = 0; value <= max_value; ++value) {
    const double d = static_cast<double>(value);
    for (std::uint32_t c = hist[value]; c != 0; --c) out.push_back(d);
  }
  return true;
}

bool build_rank_table(std::span<const double> sorted_arena,
                      std::vector<std::uint32_t>& cum) {
  cum.clear();
  const std::size_t n = sorted_arena.size();
  if (n < 64) return false;  // per-query binary search is already cheap
  // Ascending arena: front/back bound the value range, so two checks reject
  // negative or oversized data before the element scan.
  std::uint32_t u;
  if (!is_small_count(sorted_arena.front(), u) ||
      !is_small_count(sorted_arena.back(), u)) {
    return false;
  }
  cum.assign(static_cast<std::size_t>(u) + 1, 0);
  for (double v : sorted_arena) {
    std::uint32_t uv;
    if (!is_small_count(v, uv)) {  // interior fraction or -0.0: bail
      cum.clear();
      return false;
    }
    ++cum[uv];
  }
  std::uint32_t acc = 0;
  for (std::uint32_t& c : cum) {
    acc += c;
    c = acc;
  }
  return true;
}

namespace detail {

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The AVX2 TU also emits FMA (exact fused ops, matching the scalar
  // back-end's std::fma), so both feature bits gate the dispatch.
  return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

}  // namespace detail

}  // namespace monohids::stats::kernels
