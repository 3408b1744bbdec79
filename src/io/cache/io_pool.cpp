#include <algorithm>
#include <thread>

#include "dassa/common/metrics.hpp"
#include "dassa/common/thread_pool.hpp"
#include "dassa/io/chunk_cache.hpp"

namespace dassa::io {

ThreadPool& io_pool() {
  // The pool is shared by every Dash5File across all MiniMPI ranks, so
  // its workers must not inherit whichever rank happened to construct it
  // first: their trace spans stay in the unranked lane.
  static ThreadPool pool(
      [] {
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        return static_cast<std::size_t>(std::clamp(hw / 2, 2u, 8u));
      }(),
      /*inherit_trace_rank=*/false);
  static const bool gauges_registered = [] {
    global_metrics().register_gauge("io.pool.queue_depth", [] {
      return static_cast<double>(io_pool().queue_depth());
    });
    global_metrics().register_gauge("io.pool.threads", [] {
      return static_cast<double>(io_pool().size());
    });
    return true;
  }();
  (void)gauges_registered;
  return pool;
}

}  // namespace dassa::io
