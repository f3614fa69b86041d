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

/// Ascending-sweep strategy crossover of rank_sorted: a merge-scan touches
/// ~n + t values, per-query binary search ~t*(log2 n + 1) dependent loads.
/// Binary wins for sparse sweeps over large arenas, the merge-scan on dense
/// sweeps. Both strategies return the same exact integer ranks; this is
/// purely a cost model and never changes results.
constexpr bool sweep_prefers_binary(std::size_t n, std::size_t t) noexcept {
  if (n < 2048) return false;  // small arenas stay cache-resident either way
  const auto log2n = static_cast<std::size_t>(std::bit_width(n));
  return t * (log2n + 1) < n;
}

}  // namespace

void rank_sorted(std::span<const double> arena, std::span<const double> xs,
                 std::uint32_t* out) {
  if (sweep_prefers_binary(arena.size(), xs.size())) {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      const auto it = std::upper_bound(arena.begin(), arena.end(), xs[j]);
      out[j] = static_cast<std::uint32_t>(it - arena.begin());
    }
    return;
  }
  const double* a = arena.data();
  const std::size_t n = arena.size();
  std::size_t i = 0;
  for (std::size_t j = 0; j < xs.size(); ++j) {
    while (i < n && a[i] <= xs[j]) ++i;
    out[j] = static_cast<std::uint32_t>(i);
  }
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
