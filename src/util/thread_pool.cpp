#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace monohids::util {

namespace {

/// Set for the lifetime of a worker's loop; lets parallel_for detect that
/// it is already running inside the pool.
thread_local bool t_on_worker_thread = false;

/// Pool metrics, shared by every ThreadPool instance (the shared() pool does
/// nearly all the work; standalone test pools fold into the same series).
/// Tasks here are coarse parallel_for shards, so per-task accounting —
/// a gauge move on submit/pop, two clock reads and a histogram observe per
/// task — is far off the per-index hot path.
struct PoolMetrics {
  obs::Gauge queue_depth;
  obs::Counter tasks;
  obs::Counter busy_us;
  obs::Histogram task_ms;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m{
      obs::MetricsRegistry::global().gauge("threadpool.queue_depth"),
      obs::MetricsRegistry::global().counter("threadpool.tasks_total"),
      obs::MetricsRegistry::global().counter("threadpool.busy_micros_total"),
      obs::MetricsRegistry::global().histogram("threadpool.task_ms",
                                               obs::latency_buckets_ms()),
  };
  return m;
}

/// Sweep-level counters, registered on the first parallel_for regardless of
/// which path it takes — on single-core hosts the pool itself may never be
/// built, and the serial fallback should still be visible on a dashboard.
/// `claims` counts the index ranges handed out (a serial loop is one), so
/// indices / claims is the mean range a shard ran per atomic claim.
struct SweepMetrics {
  obs::Counter sweeps;
  obs::Counter serial;
  obs::Counter indices;
  obs::Counter claims;
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics m{
      obs::MetricsRegistry::global().counter("threadpool.parallel_for_total"),
      obs::MetricsRegistry::global().counter("threadpool.parallel_for_serial_total"),
      obs::MetricsRegistry::global().counter("threadpool.parallel_for_indices_total"),
      obs::MetricsRegistry::global().counter("threadpool.parallel_for_claims_total"),
  };
  return m;
}

unsigned parse_env_threads() noexcept {
  const char* env = std::getenv("MONOHIDS_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == nullptr || *end != '\0' || value < 1 || value > 4096) return 0;
  return static_cast<unsigned>(value);
}

}  // namespace

unsigned default_thread_count() noexcept {
  // The env var is read once: a process-wide execution knob, not something
  // experiments toggle mid-run (they pass explicit `threads` for that).
  static const unsigned env_threads = parse_env_threads();
  if (env_threads > 0) return env_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned thread_count) {
  const unsigned n = thread_count == 0 ? 1 : thread_count;
  obs::MetricsRegistry::global().gauge("threadpool.workers").add(n);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
  obs::MetricsRegistry::global().gauge("threadpool.workers").sub(thread_count());
}

void ThreadPool::submit(std::function<void()> task) {
  MONOHIDS_EXPECT(task != nullptr, "cannot submit an empty task");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    MONOHIDS_EXPECT(!stopping_, "pool is shutting down");
    queue_.push_back(std::move(task));
  }
  pool_metrics().queue_depth.add(1);
  work_available_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    PoolMetrics& metrics = pool_metrics();
    metrics.queue_depth.sub(1);
    if constexpr (obs::kEnabled) {
      const std::uint64_t start = obs::now_us();
      task();
      const std::uint64_t elapsed = obs::now_us() - start;
      obs::TraceRing::global().record("pool.task", start, elapsed);
      metrics.tasks.inc();
      metrics.busy_us.add(elapsed);
      metrics.task_ms.observe(static_cast<double>(elapsed) / 1000.0);
    } else {
      task();
    }
  }
}

ThreadPool& ThreadPool::shared() {
  // Intentionally leaked: workers must outlive every static destructor that
  // could still issue a parallel_for, and the OS reclaims threads at exit.
  static ThreadPool* pool = new ThreadPool(default_thread_count());
  return *pool;
}

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker_thread; }

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned threads) {
  MONOHIDS_EXPECT(body != nullptr, "parallel_for needs a body");
  if (count == 0) return;

  const unsigned requested = threads == 0 ? default_thread_count() : threads;
  if constexpr (obs::kEnabled) {
    SweepMetrics& m = sweep_metrics();
    m.sweeps.inc();
    m.indices.add(count);
  }
  // Serial path: also taken for nested calls so pool workers never block on
  // tasks that only other (possibly busy) workers could run.
  if (requested <= 1 || count == 1 || ThreadPool::on_worker_thread()) {
    if constexpr (obs::kEnabled) {
      sweep_metrics().serial.inc();
      sweep_metrics().claims.inc();
    }
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  struct SweepState {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;                 // guards the three fields below
    std::condition_variable all_done;
    unsigned active = 0;
    std::exception_ptr first_error;
  };
  SweepState state;

  // The calling thread is one shard; the rest run on the shared pool.
  const std::size_t shards = count < requested ? count : requested;
  // Guided claims: a shard takes 1/(2 * shards) of what is left in one
  // atomic add, so the shared counter moves a few dozen times per sweep
  // instead of once per index, and neighbouring output slots are written
  // by one thread. Claims shrink as the sweep drains, which keeps the
  // tail balanced. The load can be stale, so a claim may reach past
  // `count` (or start there, once the sweep is done or failed); the range
  // is clipped to `count`. Each shard overshoots at most once, so the
  // counter stays below 2 * count.
  const auto shard = [&state, &body, count, shards] {
    std::uint64_t claims = 0;
    for (;;) {
      const std::size_t seen = state.next.load(std::memory_order_relaxed);
      if (seen >= count) break;
      const std::size_t take = std::max<std::size_t>(1, (count - seen) / (2 * shards));
      const std::size_t begin = state.next.fetch_add(take, std::memory_order_relaxed);
      if (begin >= count) break;
      ++claims;
      const std::size_t end = std::min(begin + take, count);
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(state.mutex);
          if (!state.first_error) state.first_error = std::current_exception();
        }
        // Abandon the rest of this range and park the counter past the end
        // so no shard claims another; ranges already claimed run out.
        state.next.store(count, std::memory_order_relaxed);
        break;
      }
    }
    if constexpr (obs::kEnabled) sweep_metrics().claims.add(claims);
  };

  const auto helpers = static_cast<unsigned>(shards - 1);
  state.active = helpers;
  for (unsigned h = 0; h < helpers; ++h) {
    ThreadPool::shared().submit([&state, shard] {
      shard();
      // Decrement and notify under the lock: once `active` reaches 0 the
      // caller may destroy `state`, so a helper must not touch it after
      // releasing the mutex.
      const std::lock_guard<std::mutex> lock(state.mutex);
      if (--state.active == 0) state.all_done.notify_one();
    });
  }

  shard();

  std::unique_lock<std::mutex> lock(state.mutex);
  state.all_done.wait(lock, [&state] { return state.active == 0; });
  if (state.first_error) std::rethrow_exception(state.first_error);
}

}  // namespace monohids::util
