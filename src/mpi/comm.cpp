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

void Comm::post(detail::Payload body, int dest, int tag) {
  DASSA_CHECK(dest >= 0 && dest < size(), "destination rank out of range");
  const std::size_t n = body.size_bytes();
  detail::Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.context = context_;
  msg.payload = std::move(body);
  world_->mailbox(to_world(dest)).put(std::move(msg));

  stats_.p2p_sends += 1;
  stats_.bytes_sent += n;
  stats_.modeled_seconds += world_->cost_params().message_cost(n);
  static Counter& msgs = global_counters().counter(counters::kMpiP2pMsgs);
  static Counter& bytes = global_counters().counter(counters::kMpiP2pBytes);
  msgs.add();
  bytes.add(n);
}

detail::Payload Comm::fetch(int src, int tag) {
  DASSA_CHECK(src >= 0 && src < size(), "source rank out of range");
  detail::Message msg = world_->mailbox(world_rank_)
                            .take(src, tag, context_, world_->aborted());
  const std::size_t n = msg.payload.size_bytes();
  stats_.p2p_recvs += 1;
  stats_.bytes_received += n;
  stats_.modeled_seconds += world_->cost_params().message_cost(n);
  return std::move(msg.payload);
}

void Comm::barrier() {
  DASSA_TRACE_SPAN("mpi", "mpi.barrier");
  // Dissemination barrier: in round k every rank signals the rank
  // 2^k ahead and waits for the rank 2^k behind; ceil(log2 p) rounds.
  const int p = size();
  if (rank_ == 0) global_counters().add(counters::kMpiBarriers);
  for (int dist = 1; dist < p; dist <<= 1) {
    const int dst = (rank_ + dist) % p;
    const int src = (rank_ - dist + p) % p;
    post(detail::Payload(std::vector<std::byte>{std::byte{0}}), dst,
         kBarrierTag);
    (void)fetch(src, kBarrierTag);
  }
}

void Comm::bcast_payload(detail::Payload& body, int root) {
  DASSA_TRACE_SPAN("mpi", "mpi.bcast");
  // Binomial tree on relative ranks: root sends to relative ranks
  // 1, 2, 4, ...; each receiver forwards down its subtree. log2(p)
  // rounds, p-1 messages total.
  const int p = size();
  DASSA_CHECK(root >= 0 && root < p, "broadcast root out of range");
  if (rank_ == root) {
    global_counters().add(counters::kMpiBcasts);
    global_counters().add(counters::kMpiBcastBytes, body.size_bytes());
  }
  const int rel = (rank_ - root + p) % p;

  // Receive from parent (the rank that differs in the highest set bit).
  if (rel != 0) {
    int high = 1;
    while (high <= rel) high <<= 1;
    high >>= 1;
    const int parent_rel = rel - high;
    const int parent = (parent_rel + root) % p;
    body = fetch(parent, kBcastTag);
  }
  // Forward to children: rel + mask for each mask above rel's high bit.
  int mask = 1;
  while (mask <= rel) mask <<= 1;
  for (; mask < p; mask <<= 1) {
    const int child_rel = rel + mask;
    if (child_rel < p) {
      const int child = (child_rel + root) % p;
      post(body.clone(), child, kBcastTag);
    }
  }
}

std::vector<detail::Payload> Comm::gatherv_payloads(detail::Payload mine,
                                                   int root) {
  DASSA_TRACE_SPAN("mpi", "mpi.gatherv");
  const int p = size();
  DASSA_CHECK(root >= 0 && root < p, "gather root out of range");
  std::vector<detail::Payload> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(p));
    out[static_cast<std::size_t>(root)] = std::move(mine);
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = fetch(r, kGatherTag);
    }
  } else {
    post(std::move(mine), root, kGatherTag);
  }
  return out;
}

detail::Payload Comm::scatter_payloads(std::vector<detail::Payload> parts,
                                       int root) {
  DASSA_TRACE_SPAN("mpi", "mpi.scatter");
  const int p = size();
  DASSA_CHECK(root >= 0 && root < p, "scatter root out of range");
  if (rank_ == root) {
    DASSA_CHECK(parts.size() == static_cast<std::size_t>(p),
                "scatter needs one part per rank");
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      post(std::move(parts[static_cast<std::size_t>(r)]), r, kScatterTag);
    }
    return std::move(parts[static_cast<std::size_t>(root)]);
  }
  return fetch(root, kScatterTag);
}

std::vector<detail::Payload> Comm::alltoallv_payloads(
    std::vector<detail::Payload> per_dest) {
  DASSA_TRACE_SPAN("mpi", "mpi.alltoallv");
  // Pairwise exchange: in step s, send to (rank+s) mod p and receive
  // from (rank-s) mod p. Eager buffered sends make this deadlock-free,
  // and each rank issues exactly p-1 sends -- the O(n/p)-exchange
  // structure the communication-avoiding read relies on. Only bytes
  // that cross ranks are counted: the caller keeps its own block.
  const int p = size();
  DASSA_CHECK(per_dest.size() == static_cast<std::size_t>(p),
              "alltoallv needs one payload per rank");
  std::vector<detail::Payload> out(static_cast<std::size_t>(p));
  if (rank_ == 0) global_counters().add(counters::kMpiAlltoalls);
  std::size_t sent_bytes = 0;
  for (int step = 1; step < p; ++step) {
    const int dst = (rank_ + step) % p;
    const int src = (rank_ - step + p) % p;
    detail::Payload& payload = per_dest[static_cast<std::size_t>(dst)];
    sent_bytes += payload.size_bytes();
    post(std::move(payload), dst, kAlltoallTag);
    out[static_cast<std::size_t>(src)] = fetch(src, kAlltoallTag);
  }
  global_counters().add(counters::kMpiAlltoallBytes, sent_bytes);
  return out;
}

}  // namespace dassa::mpi
