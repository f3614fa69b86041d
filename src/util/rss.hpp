// Process memory accounting for benches and the fleet pipeline.
//
// The fleet mode's whole point is a bounded peak RSS, so the number must be
// observable from inside the process: benches emit it in their JSON, the
// fleet build publishes it as an obs gauge after every wave, and CI gates
// on it. Readings come from /proc/self/status on Linux with a getrusage
// fallback elsewhere; platforms with neither report 0 (callers treat 0 as
// "unknown", never as "no memory").
#pragma once

#include <cstdint>

namespace monohids::util {

/// High-water-mark resident set size of this process in KiB (VmHWM), or 0
/// when the platform exposes no reading.
[[nodiscard]] std::uint64_t peak_rss_kib() noexcept;

/// Current resident set size in KiB (VmRSS), or 0 when unavailable.
[[nodiscard]] std::uint64_t current_rss_kib() noexcept;

}  // namespace monohids::util
