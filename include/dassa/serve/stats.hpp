// Live introspection: the kStats protocol (docs/SERVING.md).
//
// A running daemon's telemetry used to be post-mortem only -- JSONL
// written at exit, inspected by das_health. kStats closes that gap:
// any client can send a one-byte kStatsRequest frame over the audited
// socket layer and get back the process's metrics snapshot
// (snapshot_metrics(): every counter, every gauge, and the exact
// 64-bucket contents and [min, max] of every latency histogram).
// das_serve answers it inline on its main socket; das_ingest exposes a
// dedicated StatsListener. das_top polls either, diffs consecutive
// snapshots, and renders the live view.
//
// A kStatsOk frame is the kStatsOk type byte followed by the snapshot
// codec's bytes (metrics.hpp: versioned, strictly validated). Every
// violation is dassa::FormatError.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dassa/common/metrics.hpp"
#include "dassa/common/sync.hpp"
#include "dassa/serve/protocol.hpp"
#include "dassa/serve/socket.hpp"

namespace dassa::serve {

/// A kStats reply: the process's metrics snapshot.
using StatsSnapshot = MetricsSnapshot;

[[nodiscard]] std::vector<std::byte> encode_stats_request();
[[nodiscard]] std::vector<std::byte> encode_stats(const StatsSnapshot& s);

/// Validate a received kStatsRequest frame (exactly one type byte).
void decode_stats_request(const std::vector<std::byte>& frame);

/// Decode a kStatsOk frame; throws FormatError on a wrong type byte or
/// anything decode_snapshot() refuses.
[[nodiscard]] StatsSnapshot decode_stats(const std::vector<std::byte>& frame);

/// One kStats round trip on an established connection (das_top's poll
/// body). Throws IoError if the daemon vanished, FormatError on a
/// malformed reply, StateError if the daemon refused the request.
[[nodiscard]] StatsSnapshot fetch_stats(Connection& conn);

/// A stats-only endpoint for daemons whose primary socket speaks some
/// other protocol (das_ingest): accepts connections on its own path
/// and answers kStatsRequest frames, refusing anything else with a
/// typed kBadRequest so a confused client gets an explicit answer, not
/// a hangup. Reuses the audited Listener/Connection layer -- no raw
/// socket syscalls (no-naked-socket holds).
class StatsListener {
 public:
  explicit StatsListener(std::string socket_path);
  ~StatsListener();

  StatsListener(const StatsListener&) = delete;
  StatsListener& operator=(const StatsListener&) = delete;

  void start();
  /// Idempotent; joins the accept loop and every connection thread.
  void stop();

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Connection slots currently tracked (live plus finished-but-not-
  /// yet-reaped). Reaping runs on every accept, so this stays bounded
  /// by the live-client count no matter how many short-lived pollers
  /// come and go -- the property the listener tests pin.
  [[nodiscard]] std::size_t tracked_connections();

 private:
  /// One accepted stats client: its service thread, the connection
  /// (shutdown() from stop() unblocks the thread), and the flag the
  /// thread raises on exit so accept_loop can reap the slot.
  struct ConnSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop();
  /// Join and erase every slot whose thread has finished. Without
  /// this, a long-lived daemon scraped by repeated short-lived clients
  /// (das_top --once, Prometheus) accumulates joinable threads until
  /// stop().
  void reap_finished() DASSA_REQUIRES(conns_mu_);

  std::string path_;
  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  Mutex conns_mu_;
  std::vector<ConnSlot> conns_ DASSA_GUARDED_BY(conns_mu_);
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace dassa::serve
