// DASSA common: the canonical counter names.
//
// The paper's central performance arguments are *counting* arguments:
// O(n) broadcasts vs O(n/p) exchanges (Section IV-B), 16x fewer I/O
// calls under HAEE (Section VI-C), k-fold master-channel duplication
// (Section V-B). On this reproduction's single-node substrate those
// counts are measured exactly through the metrics registry
// (metrics.hpp), and reported by the benches next to wall time.
#pragma once

#include "dassa/common/metrics.hpp"

namespace dassa {

/// Canonical counter names used across DASSA, kept in one place so the
/// benches and the instrumented layers cannot drift apart.
namespace counters {
inline constexpr const char* kIoReadCalls = "io.read_calls";
inline constexpr const char* kIoReadBytes = "io.read_bytes";
inline constexpr const char* kIoWriteCalls = "io.write_calls";
inline constexpr const char* kIoWriteBytes = "io.write_bytes";
inline constexpr const char* kIoOpens = "io.opens";
inline constexpr const char* kIoSeeks = "io.seeks";
inline constexpr const char* kMpiP2pMsgs = "mpi.p2p_messages";
inline constexpr const char* kMpiP2pBytes = "mpi.p2p_bytes";
inline constexpr const char* kMpiBcasts = "mpi.broadcasts";
inline constexpr const char* kMpiBcastBytes = "mpi.broadcast_bytes";
inline constexpr const char* kMpiAlltoalls = "mpi.alltoalls";
inline constexpr const char* kMpiAlltoallBytes = "mpi.alltoall_bytes";
inline constexpr const char* kMpiBarriers = "mpi.barriers";
inline constexpr const char* kMemMasterChannelCopies =
    "mem.master_channel_copies";
inline constexpr const char* kMemPeakBytesModeled = "mem.peak_bytes_modeled";
// DSP cache statistics, charged by the FFT plan cache and the filter
// design caches on every lookup (dsp/stats.hpp).
inline constexpr const char* kDspFftPlanHits = "dsp.fft.plan_hits";
inline constexpr const char* kDspFftPlanMisses = "dsp.fft.plan_misses";
inline constexpr const char* kDspFftBytesAllocated =
    "dsp.fft.bytes_allocated";
inline constexpr const char* kDspButterDesignHits = "dsp.butter.design_hits";
inline constexpr const char* kDspButterDesignMisses =
    "dsp.butter.design_misses";
inline constexpr const char* kDspResampleDesignHits =
    "dsp.resample.design_hits";
inline constexpr const char* kDspResampleDesignMisses =
    "dsp.resample.design_misses";
// Storage engine statistics (DASH5 v3), charged by the codec pipeline
// and the chunk cache.
inline constexpr const char* kIoCodecEncodeCalls = "io.codec.encode_calls";
inline constexpr const char* kIoCodecDecodeCalls = "io.codec.decode_calls";
inline constexpr const char* kIoCodecBytesRaw = "io.codec.bytes_raw";
inline constexpr const char* kIoCodecBytesStored = "io.codec.bytes_stored";
inline constexpr const char* kIoCodecEncodeNs = "io.codec.encode_ns";
inline constexpr const char* kIoCodecDecodeNs = "io.codec.decode_ns";
inline constexpr const char* kIoCodecStoredRawChunks =
    "io.codec.stored_raw_chunks";
inline constexpr const char* kIoCacheHits = "io.cache.hits";
inline constexpr const char* kIoCacheMisses = "io.cache.misses";
inline constexpr const char* kIoCacheInserts = "io.cache.inserts";
inline constexpr const char* kIoCacheEvictions = "io.cache.evictions";
inline constexpr const char* kIoCachePeakBytes = "io.cache.peak_bytes";
inline constexpr const char* kIoCachePrefetchIssued =
    "io.cache.prefetch_issued";
// Parallel repack engine (src/io/repack.cpp): physical concatenation
// cost accounting. source_bytes is the raw element bytes a rank pulled
// out of member files and stored_bytes the compressed payload it
// contributed, so source_bytes / ranks ~ total source size is the
// O(n/p) scaling evidence the repack tests assert.
inline constexpr const char* kIoRepackRuns = "io.repack.runs";
inline constexpr const char* kIoRepackChunks = "io.repack.chunks_encoded";
inline constexpr const char* kIoRepackSourceBytes = "io.repack.source_bytes";
inline constexpr const char* kIoRepackStoredBytes = "io.repack.stored_bytes";
// HAEE engine statistics: distributed runs, rank-threads launched, and
// halo traffic, updated concurrently from MiniMPI rank threads (they
// double as TSan coverage of the registry).
inline constexpr const char* kHaeeRuns = "haee.runs";
inline constexpr const char* kHaeeRanksLaunched = "haee.ranks_launched";
inline constexpr const char* kHaeeHaloExchanges = "haee.halo_exchanges";
inline constexpr const char* kHaeeHaloOverlapReads =
    "haee.halo_overlap_reads";
// Tracer self-statistics, charged by the tracer as spans complete and
// threads register their span rings.
inline constexpr const char* kTraceSpansEmitted = "trace.spans_emitted";
inline constexpr const char* kTraceSpansDropped = "trace.spans_dropped";
inline constexpr const char* kTraceThreads = "trace.threads";
// Telemetry layer: progress counters charged by the compute kernels
// (rows/cells retired) so the sampler can tell "busy" from "stalled",
// and the sampler's own samples-taken count.
inline constexpr const char* kTelemetrySamples = "telemetry.samples";
inline constexpr const char* kTelemetryRowsProcessed =
    "telemetry.rows_processed";
inline constexpr const char* kTelemetryCellsProcessed =
    "telemetry.cells_processed";
// Streaming ingest subsystem (src/ingest/): spool admission, live-VCA
// growth, and sliding-window progress. Queue occupancy counters live
// under ingest.queue.* (pushed == popped after a clean drain is the
// no-drop invariant bench_ingest asserts); the instantaneous depth is
// the "ingest.queue.depth" gauge das_ingest registers.
inline constexpr const char* kIngestPolls = "ingest.polls";
inline constexpr const char* kIngestFilesAdmitted = "ingest.files_admitted";
inline constexpr const char* kIngestFilesQuarantined =
    "ingest.files_quarantined";
inline constexpr const char* kIngestVcaAppends = "ingest.vca_appends";
inline constexpr const char* kIngestWindows = "ingest.windows_processed";
inline constexpr const char* kIngestColsEmitted = "ingest.cols_emitted";
inline constexpr const char* kIngestEvents = "ingest.events_detected";
inline constexpr const char* kIngestQueuePushed = "ingest.queue.pushed";
inline constexpr const char* kIngestQueuePopped = "ingest.queue.popped";
inline constexpr const char* kIngestQueuePushBlocked =
    "ingest.queue.push_blocked";
inline constexpr const char* kIngestQueuePeakDepth =
    "ingest.queue.peak_depth";
// Time-interval index (src/io/interval_index.cpp): the sorted
// fence-pointer sidecar that makes VCA time-range lookups sub-linear.
// entry_touches counts comparator probes plus emitted entries, so the
// O(log n + k) shape of an indexed query is assertable against the
// linear fallback's n touches (tests/io/test_interval_index.cpp and
// the bench_serve index gate pin both).
inline constexpr const char* kIoIndexLoads = "io.index.loads";
inline constexpr const char* kIoIndexPublishes = "io.index.publishes";
inline constexpr const char* kIoIndexQueries = "io.index.queries";
inline constexpr const char* kIoIndexEntryTouches = "io.index.entry_touches";
inline constexpr const char* kIoIndexFallbacks = "io.index.fallbacks";
// Query-serving layer (src/serve/): connection admission, request /
// response accounting, and the shared-decode batcher. Queue occupancy
// lives under serve.queue.* (same no-drop invariant as ingest.queue.*,
// via the shared dassa::BoundedQueue); batch.coalesced counts requests
// that shared another request's union read -- the cache-share evidence
// bench_serve gates on.
inline constexpr const char* kServeConnections = "serve.connections";
inline constexpr const char* kServeRequests = "serve.requests";
inline constexpr const char* kServeResponses = "serve.responses";
inline constexpr const char* kServeErrors = "serve.errors";
inline constexpr const char* kServeBytesReceived = "serve.bytes_received";
inline constexpr const char* kServeBytesSent = "serve.bytes_sent";
inline constexpr const char* kServeQueuePushed = "serve.queue.pushed";
inline constexpr const char* kServeQueuePopped = "serve.queue.popped";
inline constexpr const char* kServeQueuePushBlocked =
    "serve.queue.push_blocked";
inline constexpr const char* kServeQueuePeakDepth =
    "serve.queue.peak_depth";
inline constexpr const char* kServeBatchGroups = "serve.batch.groups";
inline constexpr const char* kServeBatchCoalesced =
    "serve.batch.coalesced";
inline constexpr const char* kServeBatchUnionReads =
    "serve.batch.union_reads";
// Live introspection: requests whose end-to-end latency crossed the
// --slow-ms threshold (each also gets a structured serve.slow_request
// log record with its per-stage breakdown).
inline constexpr const char* kServeSlowRequests = "serve.slow_requests";
// kStats protocol (src/serve/stats.cpp): live snapshot requests
// answered over the audited socket layer, by both the das_serve main
// socket and the das_ingest stats listener. The stall rule excludes
// stats.* from progress so a poller never masks the stall it watches.
inline constexpr const char* kStatsConnections = "stats.connections";
inline constexpr const char* kStatsRequests = "stats.requests";
inline constexpr const char* kStatsBadFrames = "stats.bad_frames";
}  // namespace counters

}  // namespace dassa
