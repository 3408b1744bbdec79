// MiniMPI internals: the world of mailboxes shared by all rank threads.
// Private to src/mpi; not installed as a public header.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <cstdint>
#include <vector>

#include "dassa/common/sync.hpp"
#include "dassa/mpi/comm.hpp"
#include "dassa/mpi/cost_model.hpp"

namespace dassa::mpi::detail {

/// One in-flight message. It owns its payload: MiniMPI ranks are
/// threads, and a payload passing from one owner to the next is what
/// keeps MPI's no-shared-memory discipline.
struct Message {
  int src = 0;   ///< sender rank in the COMMUNICATOR's numbering
  int tag = 0;
  std::int64_t context = 0;  ///< communicator context id (0 = world)
  Payload payload;
};

/// Per-rank message queue with (src, tag) matching. FIFO per matching
/// key, which gives MPI's non-overtaking guarantee.
class Mailbox {
 public:
  void put(Message msg);

  /// Block until a message matching (src, tag, context) is available
  /// (or the world aborts), then remove and return the earliest match.
  Message take(int src, int tag, std::int64_t context,
               const std::atomic<bool>& aborted);

  /// Wake any blocked take() so it can observe an abort.
  void interrupt();

 private:
  Mutex mu_;
  CondVar cv_;
  std::deque<Message> queue_ DASSA_GUARDED_BY(mu_);
};

/// Shared state of one MiniMPI execution: p mailboxes + cost model.
class World {
 public:
  World(int size, const CostParams& params);

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] const CostParams& cost_params() const { return params_; }
  [[nodiscard]] Mailbox& mailbox(int rank) {
    return *boxes_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const std::atomic<bool>& aborted() const { return aborted_; }

  /// Fresh communicator context ids for split().
  [[nodiscard]] std::int64_t next_context() {
    return next_context_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Mark the world as failed and wake all blocked receivers.
  void abort();

 private:
  int size_;
  CostParams params_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::atomic<bool> aborted_{false};
  std::atomic<std::int64_t> next_context_{1};
};

}  // namespace dassa::mpi::detail
