// Parallel execution substrate: a thread pool plus index-sharded loops.
//
// Per-host behavioral detection is embarrassingly parallel: every host has
// its own trace, distributions and thresholds, so scenario generation,
// feature extraction and threshold/ROC sweeps all reduce to "run f(i) for
// i in [0, n) and collect results by index". parallel_for / parallel_map
// are that primitive. Determinism is preserved by construction: each index
// computes from its own inputs (per-user RNG streams are derived, not
// shared — see rng.hpp) and writes only slot i of a pre-sized output, so
// the result is identical for any thread count, and `threads = 1` executes
// the exact serial loop on the calling thread (no pool involvement,
// byte-for-byte the pre-parallel behavior).
//
// Thread-count resolution, everywhere a `threads` knob appears:
//   threads >= 1  -> use exactly that many shards,
//   threads == 0  -> default_thread_count(): the MONOHIDS_THREADS
//                    environment variable if set, else
//                    std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace monohids::util {

/// Shard count used when a `threads` knob is 0 ("auto"): MONOHIDS_THREADS
/// if set to a positive integer, else hardware_concurrency(), else 1.
[[nodiscard]] unsigned default_thread_count() noexcept;

/// Fixed-size worker pool running tasks in FIFO order. parallel_for
/// schedules on a process-wide shared() instance; standalone pools exist
/// mainly for tests.
class ThreadPool {
 public:
  /// Spawns `thread_count` workers (at least 1).
  explicit ThreadPool(unsigned thread_count);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Executes any still-queued tasks, then joins the workers.
  ~ThreadPool();

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues one task. Tasks must not throw out of the pool — wrap bodies
  /// that can throw (parallel_for captures exceptions itself).
  void submit(std::function<void()> task);

  /// The process-wide pool, created on first use and sized by
  /// default_thread_count(). Tasks submitted here must never block on
  /// other pool tasks (parallel_for's caller does the waiting instead).
  static ThreadPool& shared();

  /// True when the calling thread is a pool worker. parallel_for uses this
  /// to degrade nested parallelism to a serial inner loop rather than
  /// deadlocking the pool on itself.
  [[nodiscard]] static bool on_worker_thread() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Runs body(i) for every i in [0, count), sharded over `threads` workers
/// (0 = default_thread_count()). Shards claim guided index ranges: each
/// claim takes 1/(2 × shards) of the indices still unclaimed (at least
/// one) in one atomic add, so the shared counter moves a few dozen times
/// per sweep rather than once per index, neighbouring output slots are
/// written by one thread, and the shrinking tail claims still balance
/// uneven per-index cost. Bodies still run once per index; bodies for
/// distinct indices run concurrently and must not share mutable state
/// except through disjoint output slots. threads <= 1 (or nested
/// invocation from a pool worker) runs the plain serial loop on the
/// calling thread. The first exception thrown by any body is rethrown on
/// the calling thread after all shards stop: the rest of the throwing
/// shard's range and every unclaimed index are abandoned, and ranges
/// other shards already hold run out.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned threads = 0);

/// parallel_for that collects fn(i) into a pre-sized vector, preserving
/// index order regardless of execution order. The result type must be
/// default-constructible and movable.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t count, Fn&& fn, unsigned threads = 0)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using Result = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<Result> out(count);
  parallel_for(
      count, [&](std::size_t i) { out[i] = fn(i); }, threads);
  return out;
}

}  // namespace monohids::util
