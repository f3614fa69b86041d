// In-memory span recorder for the traced benchmark runs.
//
// A span is (name, parent, thread, start, end). Spans nest on one thread
// through a thread-local "current span"; work handed to another thread
// names its parent explicitly. Nothing is recorded while tracing is off, so
// the same layer-call code serves the untraced verification replicas.
// Spans live in memory until take(); reduce() turns them into per-name self
// and inclusive times, and write_chrome_trace() dumps them for viewing in
// chrome://tracing or Perfetto.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e::spans {

struct Span {
  const char* name = "";
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

namespace detail {

inline std::atomic<bool> g_enabled{false};
inline std::mutex g_mutex;
inline std::vector<Span> g_spans;
inline std::atomic<std::uint32_t> g_next_thread{0};
inline thread_local std::int64_t t_current = -1;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::uint32_t thread_index() {
  thread_local const std::uint32_t index = g_next_thread.fetch_add(1);
  return index;
}

}  // namespace detail

inline void enable(bool on) { detail::g_enabled.store(on); }
[[nodiscard]] inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// RAII span. `name` must outlive the recorder (string literals).
class Scope {
 public:
  explicit Scope(const char* name) : Scope(name, detail::t_current) {}
  Scope(const char* name, std::int64_t parent) {
    if (!enabled()) return;
    Span span{name, parent, detail::thread_index(), detail::now_ns(), 0};
    {
      const std::lock_guard<std::mutex> lock(detail::g_mutex);
      id_ = static_cast<std::int64_t>(detail::g_spans.size());
      detail::g_spans.push_back(span);
    }
    saved_ = detail::t_current;
    detail::t_current = id_;
  }
  ~Scope() {
    if (id_ < 0) return;
    const std::int64_t end = detail::now_ns();
    detail::t_current = saved_;
    const std::lock_guard<std::mutex> lock(detail::g_mutex);
    detail::g_spans[static_cast<std::size_t>(id_)].end_ns = end;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  std::int64_t id_ = -1;
  std::int64_t saved_ = -1;
};

/// Moves out every span recorded so far. Call only while no span is open.
[[nodiscard]] inline std::vector<Span> take() {
  const std::lock_guard<std::mutex> lock(detail::g_mutex);
  return std::exchange(detail::g_spans, {});
}

/// Appends a take() result to `all`, rebasing its parent indices.
inline void append(std::vector<Span>& all, const std::vector<Span>& batch) {
  const auto offset = static_cast<std::int64_t>(all.size());
  for (Span s : batch) {
    if (s.parent >= 0) s.parent += offset;
    all.push_back(s);
  }
}

struct Totals {
  double self_ms = 0.0;       ///< duration minus the part covered by child spans
  double inclusive_ms = 0.0;  ///< plain duration
};

/// Per-name totals over `spans`. Children that ran in parallel on other
/// threads cover their parent's interval once (their union is subtracted).
[[nodiscard]] inline std::map<std::string, Totals> reduce(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    Totals& t = totals[s.name];
    t.inclusive_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return totals;
}

/// Writes `spans` as Chrome trace-event JSON (complete "X" events, times in
/// microseconds relative to the first span).
inline void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3);
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace e2e::spans
