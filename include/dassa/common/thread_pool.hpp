// DASSA common: fixed-size thread pool with parallel_for.
//
// HAEE's ApplyMT (paper Algorithm 1) is one fork-join per Apply: a
// static split of the cells across threads, per-thread result vectors
// and a prefix merge. Every Apply with more than one thread runs it on
// this pool: inside each MiniMPI rank (ranks are themselves threads, so
// each rank owns its pool and sibling ranks never contend for a shared
// threading runtime) and in the single-node pipelines alike.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "dassa/common/error.hpp"
#include "dassa/common/sync.hpp"

namespace dassa {

/// A fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (must be >= 1). Workers inherit the
  /// creating thread's trace rank label (HAEE builds its ApplyMT pool
  /// inside a MiniMPI rank thread, so worker spans land in that rank's
  /// chrome-trace lane); pass `inherit_trace_rank = false` for pools
  /// shared across ranks, e.g. io_pool().
  explicit ThreadPool(std::size_t num_threads,
                      bool inherit_trace_rank = true);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Tasks queued plus tasks currently executing. The telemetry
  /// sampler exports this as the io.pool queue-depth gauge.
  [[nodiscard]] std::size_t queue_depth() const {
    MutexLock lock(mu_);
    return tasks_.size() + in_flight_;
  }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Static-schedule parallel for over [0, n): the range is split into
  /// size() contiguous chunks and `body(thread_index, begin, end)` runs
  /// once per chunk, mirroring `omp for schedule(static)`. Blocks until
  /// all chunks complete. Exceptions thrown by `body` are rethrown on
  /// the calling thread (first one wins).
  void parallel_for(
      std::size_t n,
      const std::function<void(std::size_t thread_index, std::size_t begin,
                               std::size_t end)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  std::queue<std::function<void()>> tasks_ DASSA_GUARDED_BY(mu_);
  CondVar cv_task_;
  CondVar cv_idle_;
  std::size_t in_flight_ DASSA_GUARDED_BY(mu_) = 0;
  bool stop_ DASSA_GUARDED_BY(mu_) = false;
};

}  // namespace dassa
