#include "dassa/mpi/telemetry.hpp"

#include <utility>

#include "dassa/common/error.hpp"

namespace dassa::mpi {

double CounterAggregate::imbalance(int world_size) const {
  DASSA_CHECK(world_size > 0, "imbalance needs a positive world size");
  if (sum == 0) return 1.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(world_size);
  return static_cast<double>(max) / mean;
}

ClusterTelemetry reduce_telemetry(Comm& comm, const RankTelemetry& mine,
                                  int root) {
  const std::vector<std::byte> payload = encode_snapshot(mine);
  std::vector<std::vector<std::byte>> gathered =
      comm.gatherv<std::byte>(payload, root);

  ClusterTelemetry cluster;
  cluster.world_size = comm.size();
  if (comm.rank() != root) return cluster;

  DASSA_CHECK(gathered.size() == static_cast<std::size_t>(comm.size()),
              "telemetry gather returned wrong rank count");
  cluster.per_rank.reserve(gathered.size());
  for (const auto& raw : gathered) {
    cluster.per_rank.push_back(decode_snapshot(raw));
  }

  // Union of counter names: a counter a rank never charged counts as
  // zero there, so min/max stay meaningful across heterogeneous ranks.
  for (const RankTelemetry& rt : cluster.per_rank) {
    for (const auto& [name, _] : rt.counters) cluster.counters[name];
  }
  for (auto& [name, agg] : cluster.counters) {
    bool first = true;
    for (int r = 0; r < cluster.world_size; ++r) {
      const auto& counters =
          cluster.per_rank[static_cast<std::size_t>(r)].counters;
      const auto it = counters.find(name);
      const std::uint64_t v = it == counters.end() ? 0 : it->second;
      agg.sum += v;
      if (first || v < agg.min) {
        agg.min = v;
        agg.min_rank = r;
      }
      if (first || v > agg.max) {
        agg.max = v;
        agg.max_rank = r;
      }
      first = false;
    }
  }

  for (const RankTelemetry& rt : cluster.per_rank) {
    for (const auto& [name, h] : rt.hists) {
      cluster.hists[name].merge(h);
    }
  }
  return cluster;
}

}  // namespace dassa::mpi
