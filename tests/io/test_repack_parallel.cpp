// Parallel repack engine tests: the MiniMPI concatenator must produce
// byte-identical files to the serial writer at every world size, over
// irregular mixed-version member sets, while each rank touches only
// ~1/p of the source bytes (the O(n/p) contract of the engine).
#include "dassa/io/repack.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>

#include "dassa/common/counters.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::io {
namespace {

using testing::TmpDir;

std::vector<std::byte> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> out(raw.size());
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

/// Member files with irregular column counts and deliberately mixed
/// storage: v2 contiguous, v2 chunked, and v3 compressed members in
/// one VCA, all f32 with ADC-style quantized samples so codec chains
/// have something to compress.
struct Fixture {
  Shape2D global;
  std::vector<std::string> files;

  Fixture(TmpDir& dir, std::size_t rows,
          const std::vector<std::size_t>& cols_per_file) {
    std::size_t total_cols = 0;
    for (std::size_t c : cols_per_file) total_cols += c;
    global = {rows, total_cols};
    std::mt19937_64 rng(20260809);
    std::normal_distribution<double> dist;

    for (std::size_t i = 0; i < cols_per_file.size(); ++i) {
      const Shape2D fshape{rows, cols_per_file[i]};
      std::vector<double> fdata(fshape.size());
      for (auto& v : fdata) {
        v = std::round(dist(rng) * 64.0) * 0.015625;
      }
      Dash5Header h;
      h.shape = fshape;
      h.dtype = DType::kF32;
      h.global.set(meta::kTimeStamp, "17072822451" + std::to_string(i));
      switch (i % 3) {
        case 0:  // v2 contiguous
          break;
        case 1:  // v2 chunked
          h.layout = Layout::kChunked;
          h.chunk = {8, 64};
          break;
        default:  // v3 compressed
          h.layout = Layout::kChunked;
          h.chunk = {8, 64};
          h.codec = CodecSpec::parse("shuffle+lz");
          break;
      }
      const std::string path = dir.file("part" + std::to_string(i) + ".dh5");
      dash5_write(path, h, fdata);
      files.push_back(path);
    }
  }

  /// The serial reference: the header the engine derives, fed through
  /// dash5_write with the merged (storage-rounded) array.
  [[nodiscard]] std::string write_reference(TmpDir& dir,
                                            const RepackOptions& opts) const {
    const Vca vca = Vca::build(files);
    Dash5Header header = Dash5File::read_header(files.front());
    header.shape = vca.shape();
    header.layout = Layout::kChunked;
    header.chunk = opts.chunk;
    header.codec = opts.codec;
    const std::vector<double> merged = vca.read_slab(
        Slab2D{0, 0, vca.shape().rows, vca.shape().cols});
    const std::string path = dir.file("reference.dh5");
    dash5_write(path, header, merged);
    return path;
  }
};

TEST(RepackParallel, ByteIdenticalToSerialAtEveryWorldSize) {
  TmpDir dir("repack_par");
  Fixture fx(dir, 24, {300, 157, 512, 31});
  RepackOptions opts;
  opts.codec = CodecSpec::parse("shuffle+lz");
  opts.chunk = {16, 256};  // does not divide 24 x 1000: pad path covered
  const std::vector<std::byte> want = slurp(fx.write_reference(dir, opts));

  for (const int ranks : {1, 2, 4}) {
    const std::string out =
        dir.file("par_r" + std::to_string(ranks) + ".dh5");
    const RepackReport report =
        parallel_repack(fx.files, out, opts, ranks);
    const std::vector<std::byte> got = slurp(out);
    ASSERT_EQ(want.size(), got.size()) << "ranks=" << ranks;
    EXPECT_TRUE(want == got) << "byte mismatch at ranks=" << ranks;
    EXPECT_EQ(report.out_bytes, got.size()) << "ranks=" << ranks;
    EXPECT_EQ(report.shape, fx.global);
  }
}

TEST(RepackParallel, ReadbackMatchesVcaView) {
  TmpDir dir("repack_par_read");
  Fixture fx(dir, 16, {100, 333, 67});
  RepackOptions opts;
  opts.codec = CodecSpec::parse("delta+lz");
  opts.chunk = {7, 100};
  const std::string out = dir.file("par.dh5");
  (void)parallel_repack(fx.files, out, opts, 3);

  const Vca vca = Vca::build(fx.files);
  const std::vector<double> want = vca.read_slab(
      Slab2D{0, 0, fx.global.rows, fx.global.cols});
  const Dash5File merged(out);
  ASSERT_EQ(merged.shape(), fx.global);
  const std::vector<double> got = merged.read_all();
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(double)));
}

TEST(RepackParallel, SourceBytesScaleAsOneOverP) {
  TmpDir dir("repack_par_cost");
  Fixture fx(dir, 32, {512, 512, 512, 512});
  RepackOptions opts;
  opts.codec = CodecSpec::parse("shuffle+lz");
  opts.chunk = {8, 256};
  const std::string out = dir.file("par.dh5");
  const int ranks = 4;
  const RepackReport report = parallel_repack(fx.files, out, opts, ranks);

  const std::uint64_t total_bytes =
      fx.global.size() * dtype_size(DType::kF32);
  std::uint64_t sum = 0;
  for (const std::uint64_t b : report.rank_source_bytes) sum += b;
  // Clamped tiles partition the source exactly once.
  EXPECT_EQ(sum, total_bytes);
  // Balanced grid: no rank reads more than its share plus one chunk.
  const std::uint64_t chunk_bytes =
      opts.chunk.rows * opts.chunk.cols * dtype_size(DType::kF32);
  const std::uint64_t fair = total_bytes / ranks;
  for (const std::uint64_t b : report.rank_source_bytes) {
    EXPECT_LE(b, fair + chunk_bytes);
  }
  std::uint64_t chunks = 0;
  for (const std::uint64_t c : report.rank_chunks) chunks += c;
  EXPECT_EQ(chunks, report.n_chunks);
}

TEST(RepackParallel, ChargesRepackCounters) {
  TmpDir dir("repack_par_counters");
  Fixture fx(dir, 8, {128, 64});
  RepackOptions opts;
  opts.codec = CodecSpec::parse("shuffle+lz");
  opts.chunk = {8, 64};
  const std::uint64_t runs0 =
      global_counters().get(counters::kIoRepackRuns);
  const std::uint64_t chunks0 =
      global_counters().get(counters::kIoRepackChunks);
  const std::uint64_t src0 =
      global_counters().get(counters::kIoRepackSourceBytes);

  const std::string out = dir.file("par.dh5");
  const RepackReport report = parallel_repack(fx.files, out, opts, 2);

  EXPECT_EQ(global_counters().get(counters::kIoRepackRuns), runs0 + 1);
  EXPECT_EQ(global_counters().get(counters::kIoRepackChunks),
            chunks0 + report.n_chunks);
  EXPECT_EQ(global_counters().get(counters::kIoRepackSourceBytes),
            src0 + fx.global.size() * dtype_size(DType::kF32));
}

TEST(RepackParallel, MoreRanksThanChunks) {
  TmpDir dir("repack_par_tiny");
  Fixture fx(dir, 4, {32, 17});
  RepackOptions opts;
  opts.codec = CodecSpec::parse("lz");
  opts.chunk = {4, 49};  // exactly one chunk
  const std::vector<std::byte> want = slurp(fx.write_reference(dir, opts));
  const std::string out = dir.file("par.dh5");
  const RepackReport report = parallel_repack(fx.files, out, opts, 4);
  EXPECT_EQ(report.n_chunks, 1u);
  EXPECT_TRUE(want == slurp(out));
}

TEST(RepackParallel, RejectsEmptyCodec) {
  TmpDir dir("repack_par_reject");
  Fixture fx(dir, 4, {32});
  RepackOptions opts;  // codec left empty
  EXPECT_THROW(
      (void)parallel_repack(fx.files, dir.file("out.dh5"), opts, 2),
      Error);
}

}  // namespace
}  // namespace dassa::io
