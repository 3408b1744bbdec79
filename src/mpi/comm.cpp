#include "dassa/mpi/comm.hpp"

#include "dassa/common/counters.hpp"
#include "dassa/common/trace.hpp"
#include "world.hpp"

namespace dassa::mpi {

int Comm::size() const {
  return group_.empty() ? world_->size()
                        : static_cast<int>(group_.size());
}

namespace {
/// (color, key, world_rank) triple exchanged during split.
struct SplitEntry {
  int color;
  int key;
  int world_rank;
};
}  // namespace

Comm Comm::split(int color, int key) {
  // Collective exchange of (color, key, world rank) over THIS
  // communicator, then each rank derives its group locally.
  const SplitEntry mine{color, key, world_rank_};
  const auto all = allgatherv(std::span<const SplitEntry>(&mine, 1));

  std::vector<SplitEntry> members;
  for (const auto& per_rank : all) {
    for (const SplitEntry& e : per_rank) {
      if (e.color == color) members.push_back(e);
    }
  }
  std::sort(members.begin(), members.end(),
            [](const SplitEntry& a, const SplitEntry& b) {
              return a.key != b.key ? a.key < b.key
                                    : a.world_rank < b.world_rank;
            });

  Comm sub(world_, world_rank_);
  sub.group_.reserve(members.size());
  int local = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    sub.group_.push_back(members[i].world_rank);
    if (members[i].world_rank == world_rank_) local = static_cast<int>(i);
  }
  DASSA_CHECK(local >= 0, "split lost the calling rank");
  sub.rank_ = local;
  // A context id all group members agree on without extra messages:
  // every member computes it from the same shared state. Use the lowest
  // member's world rank combined with a per-call sequence number drawn
  // collectively (the max of next_context() over the group would race;
  // instead fold the parent context, the group's first member, and the
  // parent's collective position into one value).
  sub.context_ = (context_ + 1) * 1000003 +
                 static_cast<std::int64_t>(sub.group_.front()) * 131 +
                 static_cast<std::int64_t>(split_epoch_);
  ++split_epoch_;
  return sub;
}

const CostParams& Comm::cost_params() const { return world_->cost_params(); }

void Comm::send_bytes(const std::byte* data, std::size_t n, int dest,
                      int tag) {
  DASSA_CHECK(dest >= 0 && dest < size(), "destination rank out of range");
  detail::Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.context = context_;
  msg.payload.assign(data, data + n);
  world_->mailbox(to_world(dest)).put(std::move(msg));

  stats_.p2p_sends += 1;
  stats_.bytes_sent += n;
  stats_.modeled_seconds += world_->cost_params().message_cost(n);
  static Counter& msgs = global_counters().counter(counters::kMpiP2pMsgs);
  static Counter& bytes = global_counters().counter(counters::kMpiP2pBytes);
  msgs.add();
  bytes.add(n);
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag) {
  DASSA_CHECK(src >= 0 && src < size(), "source rank out of range");
  detail::Message msg = world_->mailbox(world_rank_)
                            .take(src, tag, context_, world_->aborted());
  stats_.p2p_recvs += 1;
  stats_.bytes_received += msg.payload.size();
  stats_.modeled_seconds +=
      world_->cost_params().message_cost(msg.payload.size());
  return std::move(msg.payload);
}

void Comm::barrier() {
  DASSA_TRACE_SPAN("mpi", "mpi.barrier");
  // Dissemination barrier: in round k every rank signals the rank
  // 2^k ahead and waits for the rank 2^k behind; ceil(log2 p) rounds.
  const int p = size();
  if (rank_ == 0) global_counters().add(counters::kMpiBarriers);
  const std::byte token{0};
  for (int dist = 1; dist < p; dist <<= 1) {
    const int dst = (rank_ + dist) % p;
    const int src = (rank_ - dist + p) % p;
    send_bytes(&token, 1, dst, kBarrierTag);
    (void)recv_bytes(src, kBarrierTag);
  }
}

void Comm::bcast_bytes(std::vector<std::byte>& data, int root) {
  DASSA_TRACE_SPAN("mpi", "mpi.bcast");
  // Binomial tree on relative ranks: root sends to relative ranks
  // 1, 2, 4, ...; each receiver forwards down its subtree. log2(p)
  // rounds, p-1 messages total.
  const int p = size();
  DASSA_CHECK(root >= 0 && root < p, "broadcast root out of range");
  if (rank_ == root) {
    global_counters().add(counters::kMpiBcasts);
    global_counters().add(counters::kMpiBcastBytes, data.size());
  }
  const int rel = (rank_ - root + p) % p;

  // Receive from parent (the rank that differs in the highest set bit).
  if (rel != 0) {
    int high = 1;
    while (high <= rel) high <<= 1;
    high >>= 1;
    const int parent_rel = rel - high;
    const int parent = (parent_rel + root) % p;
    data = recv_bytes(parent, kBcastTag);
  }
  // Forward to children: rel + mask for each mask above rel's high bit.
  int mask = 1;
  while (mask <= rel) mask <<= 1;
  for (; mask < p; mask <<= 1) {
    const int child_rel = rel + mask;
    if (child_rel < p) {
      const int child = (child_rel + root) % p;
      send_bytes(data.data(), data.size(), child, kBcastTag);
    }
  }
}

std::vector<std::vector<std::byte>> Comm::gatherv_bytes(
    std::vector<std::byte> mine, int root) {
  DASSA_TRACE_SPAN("mpi", "mpi.gatherv");
  const int p = size();
  DASSA_CHECK(root >= 0 && root < p, "gather root out of range");
  std::vector<std::vector<std::byte>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(p));
    out[static_cast<std::size_t>(root)] = std::move(mine);
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = recv_bytes(r, kGatherTag);
    }
  } else {
    send_bytes(mine.data(), mine.size(), root, kGatherTag);
  }
  return out;
}

std::vector<std::byte> Comm::scatter_bytes(const std::vector<std::byte>& all,
                                           std::size_t per_bytes, int root) {
  DASSA_TRACE_SPAN("mpi", "mpi.scatter");
  const int p = size();
  DASSA_CHECK(root >= 0 && root < p, "scatter root out of range");
  if (rank_ == root) {
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      send_bytes(all.data() + static_cast<std::size_t>(r) * per_bytes,
                 per_bytes, r, kScatterTag);
    }
    const std::size_t off = static_cast<std::size_t>(root) * per_bytes;
    return {all.begin() + static_cast<std::ptrdiff_t>(off),
            all.begin() + static_cast<std::ptrdiff_t>(off + per_bytes)};
  }
  return recv_bytes(root, kScatterTag);
}

std::vector<std::vector<std::byte>> Comm::alltoallv_bytes(
    const std::vector<std::vector<std::byte>>& per_dest) {
  DASSA_TRACE_SPAN("mpi", "mpi.alltoallv");
  // Pairwise exchange: in step s, send to (rank+s) mod p and receive
  // from (rank-s) mod p. Eager buffered sends make this deadlock-free,
  // and each rank issues exactly p-1 sends -- the O(n/p)-exchange
  // structure the communication-avoiding read relies on.
  const int p = size();
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  if (rank_ == 0) global_counters().add(counters::kMpiAlltoalls);
  std::size_t my_bytes = 0;
  for (const auto& v : per_dest) my_bytes += v.size();
  global_counters().add(counters::kMpiAlltoallBytes, my_bytes);

  out[static_cast<std::size_t>(rank_)] =
      per_dest[static_cast<std::size_t>(rank_)];
  for (int step = 1; step < p; ++step) {
    const int dst = (rank_ + step) % p;
    const int src = (rank_ - step + p) % p;
    const auto& payload = per_dest[static_cast<std::size_t>(dst)];
    send_bytes(payload.data(), payload.size(), dst, kAlltoallTag);
    out[static_cast<std::size_t>(src)] = recv_bytes(src, kAlltoallTag);
  }
  return out;
}

}  // namespace dassa::mpi
