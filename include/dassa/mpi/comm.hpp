// MiniMPI: communicator with typed point-to-point and collective
// operations.
//
// MiniMPI is this reproduction's stand-in for MPI on a cluster (see
// DESIGN.md, substitution table). Ranks are threads; each rank owns a
// mailbox of typed, tagged messages. A message owns its payload and
// hands it to exactly one receiver, so ranks share nothing implicitly
// -- exactly the discipline MPI imposes. Collectives are implemented on
// top of point-to-point with the textbook algorithms (binomial-tree
// broadcast/reduce, dissemination barrier, pairwise all-to-all), so the
// *message counts* the paper reasons about fall out of the
// implementation rather than being asserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "dassa/common/error.hpp"
#include "dassa/mpi/cost_model.hpp"

namespace dassa::mpi {

namespace detail {
class World;

/// One message body: an owned std::vector<T> of trivially copyable
/// elements. A send puts its vector in and the receiver moves it back
/// out, so a payload is written once, by its sender. The shared_ptr
/// only erases the element type; a payload has one owner at a time,
/// the sender's and then the receiver's.
class Payload {
 public:
  Payload() = default;

  template <typename T>
  explicit Payload(std::vector<T> v)
      : size_bytes_(v.size() * sizeof(T)),
        type_(&typeid(T)),
        clone_(&clone_as<T>) {
    static_assert(std::is_trivially_copyable_v<T>);
    owner_ = std::make_shared<std::vector<T>>(std::move(v));
  }

  [[nodiscard]] std::size_t size_bytes() const { return size_bytes_; }

  /// A payload holding a copy of this one's elements (a broadcast
  /// forwards one to each child).
  [[nodiscard]] Payload clone() const {
    DASSA_CHECK(clone_ != nullptr, "cloning an empty payload");
    return clone_(owner_.get());
  }

  /// The body as the std::vector<T> it was sent as, moved out.
  template <typename T>
  [[nodiscard]] std::vector<T> take() && {
    DASSA_CHECK(type_ != nullptr && *type_ == typeid(T),
                "message received as another element type than it was sent");
    return std::move(*static_cast<std::vector<T>*>(owner_.get()));
  }

 private:
  template <typename T>
  static Payload clone_as(const void* v) {
    return Payload(*static_cast<const std::vector<T>*>(v));
  }

  std::shared_ptr<void> owner_;
  std::size_t size_bytes_ = 0;
  const std::type_info* type_ = nullptr;
  Payload (*clone_)(const void*) = nullptr;
};
}  // namespace detail

/// A communicator bound to one rank of a MiniMPI world. Obtained from
/// Runtime::run(); never constructed directly. All methods are called
/// from the owning rank's thread only.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  // ---- point to point ------------------------------------------------

  /// Blocking buffered send of a typed buffer to `dest` with `tag`
  /// (user tags must be >= 0). Completes locally once the payload is
  /// copied into the destination mailbox (MPI_Bsend semantics).
  template <typename T>
  void send(std::span<const T> data, int dest, int tag) {
    DASSA_CHECK(tag >= 0, "user message tags must be non-negative");
    post(detail::Payload(std::vector<T>(data.begin(), data.end())), dest,
         tag);
  }

  /// Blocking receive of a typed buffer from `src` with `tag`. The
  /// message length determines the result size; the sent buffer is
  /// moved out, not copied. `T` must be the element type it was sent as.
  template <typename T>
  [[nodiscard]] std::vector<T> recv(int src, int tag) {
    DASSA_CHECK(tag >= 0, "user message tags must be non-negative");
    return fetch(src, tag).template take<T>();
  }

  // ---- collectives ----------------------------------------------------

  /// Dissemination barrier: ceil(log2 p) rounds of pairwise messages.
  void barrier();

  /// Binomial-tree broadcast of `data` from `root` to all ranks.
  /// On non-root ranks `data` is resized and overwritten.
  template <typename T>
  void bcast(std::vector<T>& data, int root) {
    detail::Payload body;
    if (rank_ == root) body = detail::Payload(std::move(data));
    bcast_payload(body, root);
    data = std::move(body).template take<T>();
  }

  /// Gather variable-length contributions to `root`. Returns the
  /// per-rank contributions (indexed by rank) on root, empty elsewhere.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> gatherv(std::span<const T> mine,
                                                    int root) {
    std::vector<detail::Payload> got = gatherv_payloads(
        detail::Payload(std::vector<T>(mine.begin(), mine.end())), root);
    std::vector<std::vector<T>> out(got.size());
    for (std::size_t r = 0; r < got.size(); ++r) {
      out[r] = std::move(got[r]).template take<T>();
    }
    return out;
  }

  /// Allgather: every rank receives every rank's contribution.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> allgatherv(
      std::span<const T> mine) {
    auto gathered = gatherv(mine, 0);
    // Broadcast the concatenation + lengths from root.
    std::vector<std::uint64_t> lens(static_cast<std::size_t>(size()), 0);
    std::vector<T> flat;
    if (rank_ == 0) {
      for (int r = 0; r < size(); ++r) {
        lens[static_cast<std::size_t>(r)] =
            gathered[static_cast<std::size_t>(r)].size();
        flat.insert(flat.end(), gathered[static_cast<std::size_t>(r)].begin(),
                    gathered[static_cast<std::size_t>(r)].end());
      }
    }
    bcast(lens, 0);
    bcast(flat, 0);
    std::vector<std::vector<T>> out(static_cast<std::size_t>(size()));
    std::size_t off = 0;
    for (int r = 0; r < size(); ++r) {
      auto& dst = out[static_cast<std::size_t>(r)];
      dst.assign(flat.begin() + static_cast<std::ptrdiff_t>(off),
                 flat.begin() + static_cast<std::ptrdiff_t>(
                                    off + lens[static_cast<std::size_t>(r)]));
      off += lens[static_cast<std::size_t>(r)];
    }
    return out;
  }

  /// Scatter equal-size chunks from root: rank r receives
  /// all[r*per : (r+1)*per]. `all` is only read on root.
  template <typename T>
  [[nodiscard]] std::vector<T> scatter(std::span<const T> all,
                                       std::size_t per, int root) {
    std::vector<detail::Payload> parts;
    if (rank_ == root) {
      DASSA_CHECK(all.size() >= per * static_cast<std::size_t>(size()),
                  "scatter source too small");
      for (std::size_t r = 0; r < static_cast<std::size_t>(size()); ++r) {
        const auto first = all.begin() + static_cast<std::ptrdiff_t>(r * per);
        parts.emplace_back(
            std::vector<T>(first, first + static_cast<std::ptrdiff_t>(per)));
      }
    }
    return scatter_payloads(std::move(parts), root).template take<T>();
  }

  /// Pairwise-exchange all-to-all with per-destination variable-length
  /// payloads: `per_dest[r]` is sent to rank r; returns the payloads
  /// received, indexed by source rank. This is the data-exchange step of
  /// the communication-avoiding read (paper Fig. 5b). Each buffer moves
  /// to its receiver uncopied, and the caller's own block
  /// (`per_dest[rank()]`) is handed straight back without entering the
  /// exchange.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> alltoallv(
      std::vector<std::vector<T>> per_dest) {
    DASSA_CHECK(per_dest.size() == static_cast<std::size_t>(size()),
                "alltoallv needs one payload per rank");
    const auto self = static_cast<std::size_t>(rank_);
    std::vector<detail::Payload> out(per_dest.size());
    for (std::size_t r = 0; r < per_dest.size(); ++r) {
      if (r != self) out[r] = detail::Payload(std::move(per_dest[r]));
    }
    std::vector<detail::Payload> got = alltoallv_payloads(std::move(out));
    std::vector<std::vector<T>> in(got.size());
    for (std::size_t r = 0; r < got.size(); ++r) {
      in[r] = r == self ? std::move(per_dest[r])
                        : std::move(got[r]).template take<T>();
    }
    return in;
  }

  /// Binomial-tree reduction of one value per rank to root, then (for
  /// allreduce) broadcast of the result. `op` must be associative.
  template <typename T>
  [[nodiscard]] T reduce(T value, const std::function<T(T, T)>& op,
                         int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Reduce to rank 0 via binomial tree on relative ranks, then move
    // to root if different.
    const int p = size();
    const int rel = (rank_ - root + p) % p;
    T acc = value;
    for (int mask = 1; mask < p; mask <<= 1) {
      if ((rel & mask) != 0) {
        const int dst = ((rel - mask) + root) % p;
        post(detail::Payload(std::vector<T>{acc}), dst, kReduceTag);
        break;
      }
      const int src_rel = rel + mask;
      if (src_rel < p) {
        const int src = (src_rel + root) % p;
        const std::vector<T> got = fetch(src, kReduceTag).template take<T>();
        DASSA_CHECK(got.size() == 1, "reduce expects one value per rank");
        acc = op(acc, got.front());
      }
    }
    return acc;  // meaningful on root only
  }

  template <typename T>
  [[nodiscard]] T allreduce(T value, const std::function<T(T, T)>& op) {
    T result = reduce<T>(value, op, 0);
    std::vector<T> box(1, result);
    bcast(box, 0);
    return box.front();
  }

  /// Split the communicator MPI_Comm_split-style: ranks with equal
  /// `color` form a sub-communicator, ordered by `key` (ties broken by
  /// parent rank). Collective: all ranks must call with their values.
  /// The returned Comm addresses only the ranks of the same color; its
  /// operations run over the parent world, so it remains valid while
  /// the parent world lives.
  [[nodiscard]] Comm split(int color, int key);

  // ---- instrumentation ------------------------------------------------

  /// Communication statistics accumulated by this rank so far.
  [[nodiscard]] const CommStats& stats() const { return stats_; }

  /// Charge additional modeled seconds to this rank (used by the I/O
  /// layer to account for storage latency under the same model).
  void charge_modeled_seconds(double seconds) {
    stats_.modeled_seconds += seconds;
  }

  /// The world's cost-model parameters.
  [[nodiscard]] const CostParams& cost_params() const;

 private:
  friend class Runtime;
  friend class detail::World;
  Comm(detail::World* world, int rank)
      : world_(world), world_rank_(rank), rank_(rank) {}

  /// World rank of communicator-local rank `local`.
  [[nodiscard]] int to_world(int local) const {
    return group_.empty() ? local : group_[static_cast<std::size_t>(local)];
  }

  // Internal tags for collectives live in a reserved range so they can
  // never collide with user tags (which must be >= 0).
  static constexpr int kBarrierTag = -1;
  static constexpr int kBcastTag = -2;
  static constexpr int kGatherTag = -3;
  static constexpr int kScatterTag = -4;
  static constexpr int kAlltoallTag = -5;
  static constexpr int kReduceTag = -6;

  /// The one send and the one receive every operation goes through.
  void post(detail::Payload body, int dest, int tag);
  [[nodiscard]] detail::Payload fetch(int src, int tag);

  /// Collective cores over payloads; see the typed wrappers above.
  void bcast_payload(detail::Payload& body, int root);
  [[nodiscard]] std::vector<detail::Payload> gatherv_payloads(
      detail::Payload mine, int root);
  [[nodiscard]] detail::Payload scatter_payloads(
      std::vector<detail::Payload> parts, int root);
  /// Pairwise exchange of `per_dest[r]` to every rank r != rank();
  /// returns the received payloads by source (own slot empty).
  [[nodiscard]] std::vector<detail::Payload> alltoallv_payloads(
      std::vector<detail::Payload> per_dest);

  detail::World* world_;
  int world_rank_;          ///< this rank's id in the world
  int rank_;                ///< this rank's id in THIS communicator
  std::vector<int> group_;  ///< member world ranks (empty = world comm)
  std::int64_t context_ = 0;
  int split_epoch_ = 0;  ///< per-communicator split() call counter
  CommStats stats_;
};

}  // namespace dassa::mpi
