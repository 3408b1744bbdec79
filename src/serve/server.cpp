#include "dassa/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <utility>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/das/search.hpp"
#include "dassa/io/kv.hpp"
#include "dassa/serve/batcher.hpp"
#include "dassa/serve/stats.hpp"

namespace dassa::serve {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

Server::Server(ServeConfig cfg)
    : cfg_(std::move(cfg)),
      queue_(cfg_.queue_capacity,
             QueueCounterNames{counters::kServeQueuePushed,
                               counters::kServeQueuePopped,
                               counters::kServeQueuePushBlocked,
                               counters::kServeQueuePeakDepth}),
      groups_(std::max<std::size_t>(2 * cfg_.workers, 4)),
      h_request_(global_metrics().histogram(lat::kRequest)),
      h_queue_wait_(global_metrics().histogram(lat::kQueueWait)),
      h_coalesce_(global_metrics().histogram(lat::kCoalesce)),
      h_decode_(global_metrics().histogram(lat::kDecode)),
      h_write_(global_metrics().histogram(lat::kWrite)) {
  DASSA_CHECK(!cfg_.socket_path.empty(), "serve needs a socket path");
  DASSA_CHECK(cfg_.workers >= 1, "serve needs at least one worker");
  DASSA_CHECK(cfg_.max_batch >= 1, "max_batch must be at least 1");
  vca_ = ends_with(cfg_.archive, ".vca") ? io::Vca::load(cfg_.archive)
                                         : io::Vca::build({cfg_.archive});
  const std::string sidecar = io::IntervalIndex::sidecar_path(cfg_.archive);
  if (ends_with(cfg_.archive, ".vca") && std::filesystem::exists(sidecar)) {
    index_ = io::IntervalIndex::load(sidecar);
    has_time_index_ = true;
  } else {
    // No persisted sidecar: derive the index from member headers so
    // time-addressed requests still work, and say so -- a republisher
    // should be writing the sidecar (das_repack --save-vca, ingest).
    try {
      index_ = das::build_interval_index(vca_);
      has_time_index_ = true;
      global_counters().add(counters::kIoIndexFallbacks);
      DASSA_SLOG(kWarn, "serve.index_fallback")
              .field("archive", cfg_.archive)
          << "no .tix sidecar; built the time-interval index from "
             "member headers";
    } catch (const Error& e) {
      // Archive without timestamps/rate: serve column requests only.
      DASSA_SLOG(kWarn, "serve.no_time_index")
              .field("archive", cfg_.archive)
          << "time-addressed requests disabled: " << e.what();
    }
  }
}

Server::~Server() { stop(); }

void Server::start() {
  DASSA_CHECK(!started_.exchange(true), "server started twice");
  // The admission-queue depth gauge rides in every telemetry sample
  // and every kStats snapshot; stop() re-points it at a constant so a
  // late stats poll can never call into a dead server.
  global_metrics().register_gauge("serve.queue.depth", [this] {
    return static_cast<double>(queue_.depth());
  });
  listener_ = std::make_unique<Listener>(cfg_.socket_path);
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  worker_threads_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
  DASSA_SLOG(kInfo, "serve.start")
          .field("socket", cfg_.socket_path)
          .field("workers", static_cast<std::uint64_t>(cfg_.workers))
      << "serving " << cfg_.archive;
}

void Server::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // Drain order matters: stop admitting, finish what was admitted,
  // then wake the readers so they observe end-of-stream.
  listener_->shutdown();
  accept_thread_.join();
  queue_.close();           // readers' pushes now return false
  dispatch_thread_.join();  // drains the admission queue into groups
  groups_.close();
  for (auto& w : worker_threads_) w.join();
  std::vector<std::thread> readers;
  {
    MutexLock lock(readers_mu_);
    for (auto& c : clients_) c->conn.shutdown();
    readers.swap(reader_threads_);
  }
  for (auto& r : readers) r.join();
  {
    MutexLock lock(readers_mu_);
    clients_.clear();
  }
  global_metrics().register_gauge("serve.queue.depth", [] { return 0.0; });
  DASSA_SLOG(kInfo, "serve.stop").field("socket",
                                                       cfg_.socket_path)
      << "drained";
}

void Server::accept_loop() {
  while (true) {
    std::optional<Connection> conn;
    try {
      conn = listener_->accept();
    } catch (const Error& e) {
      DASSA_SLOG(kError, "serve.accept_error")
          << e.what();
      continue;
    }
    if (!conn) return;  // listener shut down
    global_counters().add(counters::kServeConnections);
    auto client = std::make_shared<ClientConn>();
    client->conn = std::move(*conn);
    client->client_id = next_client_id_.fetch_add(1);
    MutexLock lock(readers_mu_);
    clients_.push_back(client);
    reader_threads_.emplace_back(
        [this, client = std::move(client)] { reader_loop(client); });
  }
}

void Server::reader_loop(std::shared_ptr<ClientConn> client) {
  while (true) {
    std::optional<std::vector<std::byte>> frame;
    try {
      frame = client->conn.recv_frame();
    } catch (const Error&) {
      return;  // torn frame / vanished peer: nothing to reply to
    }
    if (!frame) return;  // clean end-of-stream
    const std::uint64_t received_ns =
        cfg_.request_tracing ? now_ns() : 0;

    // Stats polls are answered inline, never queued: a monitor must be
    // able to sample a server whose admission queue is the problem.
    if (!frame->empty() &&
        static_cast<MsgType>((*frame)[0]) == MsgType::kStatsRequest) {
      try {
        decode_stats_request(*frame);
      } catch (const Error& e) {
        global_counters().add(counters::kStatsBadFrames);
        send_error(*client, 0, ErrorCode::kBadRequest, e.what());
        continue;
      }
      global_counters().add(counters::kStatsRequests);
      const std::vector<std::byte> reply = encode_stats(snapshot_metrics());
      try {
        MutexLock lock(client->write_mu);
        client->conn.send_frame(reply);
      } catch (const Error&) {
        return;  // peer gone
      }
      continue;
    }
    static Counter& requests =
        global_counters().counter(counters::kServeRequests);
    requests.add();

    ReadRequest req;
    try {
      req = decode_request(*frame);
    } catch (const Error& e) {
      send_error(*client, 0, ErrorCode::kBadRequest, e.what());
      continue;
    }
    Slab2D slab;
    try {
      slab = resolve(req);
    } catch (const Error& e) {
      const ErrorCode code = dynamic_cast<const InvalidArgument*>(&e)
                                 ? ErrorCode::kOutOfRange
                                 : ErrorCode::kBadRequest;
      send_error(*client, req.id, code, e.what());
      continue;
    }
    if (slab.empty()) {
      send_error(*client, req.id, ErrorCode::kEmptyRange,
                 "requested window selects no samples");
      continue;
    }
    Job job;
    job.req = req;
    job.slab = slab;
    job.conn = client;
    job.request_seq = next_request_seq_.fetch_add(1);
    job.received_ns = received_ns;
    job.admit_ns = now_ns();
    if (!queue_.push(std::move(job))) {
      // Shutting down: refuse, but keep reading until the peer hangs
      // up so its remaining requests each get an explicit answer.
      send_error(*client, req.id, ErrorCode::kShuttingDown,
                 "server is draining");
    }
  }
}

Slab2D Server::resolve(const ReadRequest& req) const {
  const Shape2D shape = vca_.shape();
  Slab2D slab;
  slab.row_off = req.row_off;
  slab.row_cnt = req.row_cnt == 0 ? shape.rows - std::min(req.row_off,
                                                          shape.rows)
                                  : req.row_cnt;
  if (req.addressing == Addressing::kColumns) {
    slab.col_off = req.col_off;
    slab.col_cnt =
        req.col_cnt == 0 ? shape.cols - std::min(req.col_off, shape.cols)
                         : req.col_cnt;
  } else {
    if (!has_time_index_) {
      throw FormatError("archive has no time index; address by columns");
    }
    if (req.begin_s >= req.end_s) {
      throw FormatError("time window must satisfy begin < end");
    }
    const double rate =
        vca_.global_meta().get_f64(io::meta::kSamplingFrequencyHz);
    std::size_t lo = shape.cols;
    std::size_t hi = 0;
    for (const io::IntervalEntry& e : index_.query(req.begin_s, req.end_s)) {
      const double off_b =
          static_cast<double>(std::max(req.begin_s - e.begin_s,
                                       std::int64_t{0})) * rate;
      const double off_e =
          static_cast<double>(req.end_s - e.begin_s) * rate;
      const std::size_t b =
          e.col_start + std::min(static_cast<std::size_t>(off_b), e.cols);
      const std::size_t x =
          e.col_start +
          std::min(static_cast<std::size_t>(std::ceil(off_e)), e.cols);
      lo = std::min(lo, b);
      hi = std::max(hi, x);
    }
    if (hi <= lo) return Slab2D{slab.row_off, 0, slab.row_cnt, 0};
    slab.col_off = lo;
    slab.col_cnt = hi - lo;
  }
  slab.validate_against(shape);  // InvalidArgument -> kOutOfRange
  return slab;
}

void Server::dispatch_loop() {
  while (true) {
    std::optional<Job> first = queue_.pop();
    if (!first) return;  // closed and drained
    if (cfg_.request_tracing) first->dequeued_ns = now_ns();
    std::vector<Job> batch;
    batch.push_back(std::move(*first));
    if (cfg_.batching && cfg_.max_batch > 1) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(cfg_.coalesce_window_us);
      while (batch.size() < cfg_.max_batch) {
        std::optional<Job> next = queue_.try_pop_until(deadline);
        if (!next) break;  // window elapsed, or closed and drained
        if (cfg_.request_tracing) next->dequeued_ns = now_ns();
        batch.push_back(std::move(*next));
      }
    }
    dispatch_round(std::move(batch));
  }
}

void Server::dispatch_round(std::vector<Job> batch) {
  if (cfg_.request_tracing) {
    // One clock read covers the round: every member leaves the
    // coalesce hold at the same instant, by construction.
    const std::uint64_t grouped = now_ns();
    for (Job& j : batch) j.grouped_ns = grouped;
  }
  std::vector<Slab2D> slabs;
  slabs.reserve(batch.size());
  for (const Job& j : batch) slabs.push_back(j.slab);
  std::vector<BatchGroup> groups =
      cfg_.batching ? coalesce(slabs, cfg_.gap_cols)
                    : [&] {
                        std::vector<BatchGroup> singles;
                        for (std::size_t i = 0; i < slabs.size(); ++i) {
                          singles.push_back(BatchGroup{slabs[i], {i}});
                        }
                        return singles;
                      }();
  for (BatchGroup& g : groups) {
    static Counter& batch_groups =
        global_counters().counter(counters::kServeBatchGroups);
    static Counter& coalesced =
        global_counters().counter(counters::kServeBatchCoalesced);
    batch_groups.add();
    if (g.jobs.size() >= 2) coalesced.add(g.jobs.size());
    GroupWork work;
    work.span = g.span;
    work.jobs.reserve(g.jobs.size());
    for (const std::size_t i : g.jobs) work.jobs.push_back(std::move(batch[i]));
    groups_.push(std::move(work));  // uncounted internal hand-off
  }
}

void Server::worker_loop() {
  while (true) {
    std::optional<GroupWork> work = groups_.pop();
    if (!work) return;
    DASSA_TRACE_SPAN("serve", "serve.group");
    std::vector<double> span_data;
    const std::uint64_t decode_begin_ns =
        cfg_.request_tracing ? now_ns() : 0;
    try {
      span_data = vca_.read_slab(work->span);
      static Counter& union_reads =
          global_counters().counter(counters::kServeBatchUnionReads);
      union_reads.add();
    } catch (const Error& e) {
      for (const Job& j : work->jobs) {
        send_error(*j.conn, j.req.id, ErrorCode::kInternal, e.what());
      }
      continue;
    }
    const std::uint64_t decode_end_ns =
        cfg_.request_tracing ? now_ns() : 0;
    std::uint64_t write_begin_ns = decode_end_ns;
    for (const Job& j : work->jobs) {
      ReadResponse resp;
      resp.id = j.req.id;
      resp.ok = true;
      resp.row_off = j.slab.row_off;
      resp.col_off = j.slab.col_off;
      resp.shape = Shape2D{j.slab.row_cnt, j.slab.col_cnt};
      resp.data = slice_from_union(span_data, work->span, j.slab);
      send_response(*j.conn, resp);
      const std::uint64_t reply_ns = now_ns();
      h_request_.record_ns(reply_ns - j.admit_ns);
      if (cfg_.request_tracing) {
        record_request_trace(j, decode_begin_ns, decode_end_ns,
                             write_begin_ns, reply_ns);
        // The next batch member's write stage starts where this one's
        // reply landed, so each member is charged only its own slice
        // and socket write.
        write_begin_ns = reply_ns;
      }
    }
  }
}

void Server::record_request_trace(const Job& job,
                                  std::uint64_t decode_begin_ns,
                                  std::uint64_t decode_end_ns,
                                  std::uint64_t write_begin_ns,
                                  std::uint64_t reply_ns) {
  // Stage boundaries are stamps of one monotonic clock taken in stage
  // order, so each difference is the time the request spent inside
  // that stage. Exactly one record per stage per answered request --
  // the counts-equal invariant the stats tests pin. Decode is shared
  // by every member of a batch, and write starts at the previous
  // member's reply stamp, so the interval a later member spends queued
  // behind its batch-mates' replies is deliberately charged to no
  // stage: stage values sum to at most the end-to-end latency, and
  // write p99 reflects single-reply cost, not batch position.
  const std::uint64_t queue_wait = job.dequeued_ns - job.admit_ns;
  const std::uint64_t coalesce = job.grouped_ns - job.dequeued_ns;
  const std::uint64_t decode = decode_end_ns - decode_begin_ns;
  const std::uint64_t write = reply_ns - write_begin_ns;
  h_queue_wait_.record_ns(queue_wait);
  h_coalesce_.record_ns(coalesce);
  h_decode_.record_ns(decode);
  h_write_.record_ns(write);
  const std::uint64_t total = reply_ns - job.admit_ns;
  if (cfg_.slow_ns != 0 && total > cfg_.slow_ns) {
    global_counters().add(counters::kServeSlowRequests);
    DASSA_SLOG(kWarn, "serve.slow_request")
        .field("request", job.request_seq)
        .field("client", job.conn->client_id)
        .field("client_req_id", job.req.id)
        .field("total_us", static_cast<double>(total) / 1e3)
        .field("admit_us",
               static_cast<double>(job.admit_ns - job.received_ns) / 1e3)
        .field("queue_wait_us", static_cast<double>(queue_wait) / 1e3)
        .field("coalesce_us", static_cast<double>(coalesce) / 1e3)
        .field("decode_us", static_cast<double>(decode) / 1e3)
        .field("write_us", static_cast<double>(write) / 1e3)
        << "end-to-end latency over the slow-request threshold";
  }
}

void Server::send_response(ClientConn& client, const ReadResponse& resp) {
  const std::vector<std::byte> frame = encode_response(resp);
  try {
    MutexLock lock(client.write_mu);
    client.conn.send_frame(frame);
  } catch (const Error&) {
    global_counters().add(counters::kServeErrors);
    return;  // peer is gone; its reader thread will notice EOF
  }
  static Counter& responses =
      global_counters().counter(counters::kServeResponses);
  responses.add();
}

void Server::send_error(ClientConn& client, std::uint64_t id, ErrorCode code,
                        const std::string& message) {
  global_counters().add(counters::kServeErrors);
  ReadResponse resp;
  resp.id = id;
  resp.ok = false;
  resp.code = code;
  resp.error = message;
  const std::vector<std::byte> frame = encode_response(resp);
  try {
    MutexLock lock(client.write_mu);
    client.conn.send_frame(frame);
  } catch (const Error&) {
    // Peer already gone; the refusal had no one to reach.
  }
}

}  // namespace dassa::serve
