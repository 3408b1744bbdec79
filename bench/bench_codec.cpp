// Storage-engine benchmark: codec compression ratio and throughput on
// a realistic das_generate acquisition, plus the chunk-cache read
// speedup. Writes BENCH_codec.json at the current directory and, with
// --check, gates the acceptance criteria of the v3 engine:
//
//   * best-chain compression ratio >= 2.0 on quantized synthetic DAS
//     data (the interrogator-ADC case; docs/STORAGE.md explains why
//     full-entropy float mantissas are out of scope for any codec),
//   * cached re-read speedup >= 1.5x over decode-every-time,
//   * CRC-32 throughput >= kCrcFloorGbps (every stored chunk is
//     checked on read; the bytewise loop it replaced ran ~0.28 GiB/s),
//   * per-chain encode/decode throughput floors (kGates below) that
//     catch codec-kernel regressions. The floors are set well under
//     the best numbers this class of host produces, because shared
//     runners are noisy; the JSON records the actual measurements.
//
// Usage: bench_codec [--check] [--out BENCH_codec.json]
#include <algorithm>
#include <cstring>
#include <fstream>

#include "../src/io/serialize.hpp"
#include "bench_util.hpp"
#include "dassa/common/simd.hpp"
#include "dassa/io/chunk_cache.hpp"
#include "dassa/io/codec.hpp"
#include "dassa/io/dash5.hpp"

using namespace dassa;
using bench::BenchDir;
using bench::Table;

namespace {

struct ChainResult {
  std::string chain;
  double ratio = 0.0;        // v2 file bytes / v3 file bytes
  double encode_gbps = 0.0;  // raw GiB/s through encode_chain
  double decode_gbps = 0.0;
};

/// Per-chain throughput floors (GiB/s) for --check. Roughly half the
/// worst single run observed on the 2.1 GHz reference host, so noise
/// does not flake the gate but a real kernel regression (for example
/// reintroducing the per-element varint helper, docs/STORAGE.md) still
/// trips it. delta+lz encode is bounded by the LZ match-storm on delta
/// streams, not by the varint kernels — see the stage breakdown in
/// docs/STORAGE.md before "fixing" it here.
struct ChainGate {
  const char* chain;
  double min_encode_gbps;
  double min_decode_gbps;
};
constexpr ChainGate kGates[] = {
    {"shuffle", 4.0, 4.0},
    {"lz", 0.15, 0.30},
    {"delta+lz", 0.05, 0.08},
    {"shuffle+lz", 0.25, 0.50},
};

/// CRC-32 floor (GiB/s) for --check: the slicing-by-8 form measures
/// 1.1-1.4 GiB/s on the reference host, the bytewise loop ~0.27.
constexpr double kCrcFloorGbps = 0.5;

/// Best-of-`reps` GiB/s for one direction of a chain over `raw`.
template <typename F>
double best_gbps(std::size_t nbytes, int reps, F&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    body();
    const double s = timer.seconds();
    const double gbps =
        static_cast<double>(nbytes) / (s * 1024.0 * 1024.0 * 1024.0);
    if (gbps > best) best = gbps;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_codec.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_codec [--check] [--out FILE]\n";
      return 2;
    }
  }

  BenchDir dir("codec");

  // A das_generate-equivalent acquisition: the fig 1b synthetic scene,
  // f32 on disk, quantized to a 2^-7 LSB as an interrogator ADC would.
  const das::SynthDas synth = das::SynthDas::fig1b_scene(64, 500.0);
  das::AcquisitionSpec spec;
  spec.dir = dir.file("acq");
  spec.start = das::Timestamp::parse("170728224510");
  spec.file_count = 1;
  spec.seconds_per_file = 16384.0 / 500.0;  // 64 x 16384 samples
  spec.dtype = io::DType::kF32;
  spec.per_channel_metadata = false;
  spec.quantize_lsb = 0.0078125;
  const std::string v2_path = das::write_acquisition(synth, spec).front();
  const auto v2_bytes = std::filesystem::file_size(v2_path);

  const io::Dash5File v2(v2_path);
  const std::vector<double> data = v2.read_all();
  // The raw byte stream the codecs see: the on-disk f32 elements.
  std::vector<float> f32(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    f32[i] = static_cast<float>(data[i]);
  }
  std::vector<std::byte> raw(f32.size() * sizeof(float));
  std::memcpy(raw.data(), f32.data(), raw.size());

  io::Dash5Header header = io::Dash5File::read_header(v2_path);
  header.layout = io::Layout::kChunked;
  header.chunk = {16, 2048};

  bench::section("DASH5 v3 codec pipeline (64 x 16384 f32, quantized)");
  std::cout << "v2 source: " << v2_bytes << " bytes\n\n";
  Table table({"chain", "v3_bytes", "ratio", "enc_GiB/s", "dec_GiB/s"});

  std::vector<ChainResult> results;
  for (const char* chain : {"shuffle", "lz", "delta+lz", "shuffle+lz"}) {
    const io::CodecSpec codec = io::CodecSpec::parse(chain);
    header.codec = codec;
    const std::string v3_path =
        dir.file(std::string("v3_") + chain + ".dh5");
    io::dash5_write(v3_path, header, data);
    const auto v3_bytes = std::filesystem::file_size(v3_path);

    ChainResult r;
    r.chain = chain;
    r.ratio = static_cast<double>(v2_bytes) / static_cast<double>(v3_bytes);
    const std::vector<std::byte> enc = io::encode_chain(codec, raw, 4);
    r.encode_gbps = best_gbps(raw.size(), 5, [&] {
      (void)io::encode_chain(codec, raw, 4);
    });
    r.decode_gbps = best_gbps(raw.size(), 5, [&] {
      (void)io::decode_chain(codec, enc, 4, raw.size());
    });
    table.row(r.chain, static_cast<std::uint64_t>(v3_bytes), r.ratio,
              r.encode_gbps, r.decode_gbps);
    results.push_back(r);
  }

  double best_ratio = 0.0;
  for (const ChainResult& r : results) best_ratio = std::max(best_ratio, r.ratio);

  std::uint32_t crc = 0;
  const double crc_gbps = best_gbps(raw.size(), 5, [&] {
    crc ^= io::detail::crc32(raw.data(), raw.size());
  });
  bench::section("CRC-32 (checked on every stored chunk read)");
  Table crc_table({"bytes", "GiB/s", "crc"});
  crc_table.row(static_cast<std::uint64_t>(raw.size()), crc_gbps,
                static_cast<std::uint64_t>(crc));

  // Cached-read speedup: strided re-reads of the shuffle+lz file with
  // the chunk cache on (tiles decoded once) vs budget 0 (tiles decoded
  // on every access).
  const std::string v3_path = dir.file("v3_shuffle+lz.dh5");
  const std::size_t passes = 6;
  auto scan = [](const io::Dash5File& f) {
    const Shape2D shape = f.shape();
    for (std::size_t r0 = 0; r0 + 16 <= shape.rows; r0 += 16) {
      (void)f.read_slab({r0, 0, 16, shape.cols});
    }
  };
  const std::size_t default_budget = io::ChunkCache::global().budget();

  io::Dash5File warm_file(v3_path);
  scan(warm_file);  // warm the cache
  WallTimer warm_timer;
  for (std::size_t p = 0; p < passes; ++p) scan(warm_file);
  const double warm_s = warm_timer.seconds();

  io::ChunkCache::global().set_budget(0);
  io::Dash5File cold_file(v3_path);
  WallTimer cold_timer;
  for (std::size_t p = 0; p < passes; ++p) scan(cold_file);
  const double cold_s = cold_timer.seconds();
  io::ChunkCache::global().set_budget(default_budget);

  const double speedup = cold_s / warm_s;
  bench::section("chunk cache: repeated strided reads");
  Table cache_table({"mode", "seconds", "speedup"});
  cache_table.row("decode-always", cold_s, 1.0);
  cache_table.row("cached", warm_s, speedup);

  std::ofstream json(out_path, std::ios::trunc);
  json << "{\n  \"bench\": \"codec\",\n  \"simd_level\": \""
       << simd::level_name(simd::active_level()) << "\",\n  \"chains\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ChainResult& r = results[i];
    json << "    {\"chain\": \"" << r.chain << "\", \"ratio\": " << r.ratio
         << ", \"encode_gbps\": " << r.encode_gbps
         << ", \"decode_gbps\": " << r.decode_gbps << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"best_ratio\": " << best_ratio
       << ",\n  \"crc32_gbps\": " << crc_gbps
       << ",\n  \"cached_read_speedup\": " << speedup
       << ",\n  \"thresholds\": {\"ratio\": 2.0, \"speedup\": 1.5,"
       << " \"crc32_gbps\": " << kCrcFloorGbps << ","
       << " \"chain_gbps\": {";
  for (std::size_t i = 0; i < std::size(kGates); ++i) {
    json << "\"" << kGates[i].chain << "\": ["
         << kGates[i].min_encode_gbps << ", " << kGates[i].min_decode_gbps
         << "]" << (i + 1 < std::size(kGates) ? ", " : "");
  }
  json << "}}\n}\n";
  json.close();
  std::cout << "\nwrote " << out_path << "\n";

  if (check) {
    bool ok = true;
    if (best_ratio < 2.0) {
      std::cerr << "bench_codec CHECK FAILED: best compression ratio "
                << best_ratio << " < 2.0\n";
      ok = false;
    }
    if (speedup < 1.5) {
      std::cerr << "bench_codec CHECK FAILED: cached-read speedup "
                << speedup << " < 1.5\n";
      ok = false;
    }
    if (crc_gbps < kCrcFloorGbps) {
      std::cerr << "bench_codec CHECK FAILED: crc32 " << crc_gbps
                << " GiB/s < " << kCrcFloorGbps << "\n";
      ok = false;
    }
    for (const ChainGate& g : kGates) {
      const auto it = std::find_if(
          results.begin(), results.end(),
          [&](const ChainResult& r) { return r.chain == g.chain; });
      if (it == results.end()) {
        std::cerr << "bench_codec CHECK FAILED: gated chain " << g.chain
                  << " was not measured\n";
        ok = false;
        continue;
      }
      if (it->encode_gbps < g.min_encode_gbps) {
        std::cerr << "bench_codec CHECK FAILED: " << g.chain << " encode "
                  << it->encode_gbps << " GiB/s < " << g.min_encode_gbps
                  << "\n";
        ok = false;
      }
      if (it->decode_gbps < g.min_decode_gbps) {
        std::cerr << "bench_codec CHECK FAILED: " << g.chain << " decode "
                  << it->decode_gbps << " GiB/s < " << g.min_decode_gbps
                  << "\n";
        ok = false;
      }
    }
    if (!ok) return 1;
    std::cout << "bench_codec check passed: ratio " << best_ratio
              << " >= 2.0, cached-read speedup " << speedup
              << " >= 1.5, crc32 " << crc_gbps << " GiB/s >= "
              << kCrcFloorGbps << ", all chain throughput floors met\n";
  }
  return 0;
}
