#include "dassa/serve/stats.hpp"

#include <span>
#include <utility>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/log.hpp"

namespace dassa::serve {

std::vector<std::byte> encode_stats_request() {
  return {std::byte{static_cast<std::uint8_t>(MsgType::kStatsRequest)}};
}

void decode_stats_request(const std::vector<std::byte>& frame) {
  if (frame.empty()) throw FormatError("empty serve frame");
  if (static_cast<MsgType>(frame[0]) != MsgType::kStatsRequest) {
    throw FormatError("unexpected serve message type (want stats request)");
  }
  if (frame.size() != 1) {
    throw FormatError("trailing bytes after stats message");
  }
}

std::vector<std::byte> encode_stats(const StatsSnapshot& s) {
  std::vector<std::byte> frame = encode_snapshot(s);
  frame.insert(frame.begin(),
               std::byte{static_cast<std::uint8_t>(MsgType::kStatsOk)});
  DASSA_CHECK(frame.size() <= kMaxFrameBytes,
              "stats snapshot exceeds the serve frame limit");
  return frame;
}

StatsSnapshot decode_stats(const std::vector<std::byte>& frame) {
  if (frame.empty()) throw FormatError("empty serve frame");
  if (static_cast<MsgType>(frame[0]) != MsgType::kStatsOk) {
    throw FormatError("unexpected serve message type (want stats snapshot)");
  }
  return decode_snapshot(std::span(frame).subspan(1));
}

StatsSnapshot fetch_stats(Connection& conn) {
  conn.send_frame(encode_stats_request());
  const auto reply = conn.recv_frame();
  if (!reply) {
    throw IoError("daemon closed the connection mid stats poll");
  }
  if (!reply->empty() &&
      static_cast<MsgType>((*reply)[0]) == MsgType::kError) {
    const ReadResponse resp = decode_response(*reply);
    throw StateError("stats request refused: " + resp.error);
  }
  return decode_stats(*reply);
}

StatsListener::StatsListener(std::string socket_path)
    : path_(std::move(socket_path)) {
  DASSA_CHECK(!path_.empty(), "stats listener needs a socket path");
}

StatsListener::~StatsListener() { stop(); }

void StatsListener::start() {
  DASSA_CHECK(!started_.exchange(true), "stats listener started twice");
  listener_ = std::make_unique<Listener>(path_);
  accept_thread_ = std::thread([this] { accept_loop(); });
  DASSA_SLOG(kInfo, "stats.listen").field("socket", path_)
      << "answering kStats";
}

void StatsListener::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // start() may have thrown between marking started_ and binding the
  // socket (bad path), leaving no listener and no accept thread --
  // stop() (via the destructor, during unwinding) must still be safe.
  if (listener_) listener_->shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<ConnSlot> slots;
  {
    MutexLock lock(conns_mu_);
    for (auto& s : conns_) s.conn->shutdown();
    slots.swap(conns_);
  }
  for (auto& s : slots) s.thread.join();
}

std::size_t StatsListener::tracked_connections() {
  MutexLock lock(conns_mu_);
  return conns_.size();
}

void StatsListener::reap_finished() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done->load()) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

/// Body of one stats client's service thread: answer kStatsRequest
/// frames until the peer hangs up (or stop() shuts the socket down).
void serve_stats_connection(Connection& client) {
  while (true) {
    std::optional<std::vector<std::byte>> frame;
    try {
      frame = client.recv_frame();
    } catch (const Error&) {
      return;  // torn frame / vanished peer
    }
    if (!frame) return;  // clean end-of-stream
    std::vector<std::byte> reply;
    try {
      decode_stats_request(*frame);
      global_counters().add(counters::kStatsRequests);
      reply = encode_stats(snapshot_metrics());
    } catch (const Error& e) {
      global_counters().add(counters::kStatsBadFrames);
      ReadResponse refusal;
      refusal.ok = false;
      refusal.code = ErrorCode::kBadRequest;
      refusal.error = e.what();
      reply = encode_response(refusal);
    }
    try {
      client.send_frame(reply);
    } catch (const Error&) {
      return;  // peer gone before the reply landed
    }
  }
}

}  // namespace

void StatsListener::accept_loop() {
  while (true) {
    std::optional<Connection> conn;
    try {
      conn = listener_->accept();
    } catch (const Error& e) {
      DASSA_SLOG(kError, "stats.accept_error") << e.what();
      continue;
    }
    if (!conn) return;  // listener shut down
    global_counters().add(counters::kStatsConnections);
    ConnSlot slot;
    slot.conn = std::make_shared<Connection>(std::move(*conn));
    slot.done = std::make_shared<std::atomic<bool>>(false);
    slot.thread = std::thread([client = slot.conn, done = slot.done] {
      serve_stats_connection(*client);
      done->store(true);
    });
    MutexLock lock(conns_mu_);
    reap_finished();
    conns_.push_back(std::move(slot));
  }
}

}  // namespace dassa::serve
