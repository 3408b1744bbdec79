// DASH5 v3 container tests: compressed chunked files must round-trip
// bit-exactly through every codec chain, dtype, and tile geometry
// (including non-divisible edge tiles), interoperate with the v2
// reader surface (VCA, slab selections), keep v2 output byte-stable,
// and exercise the chunk cache and readahead prefetcher.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/io/chunk_cache.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::io {
namespace {

using testing::TmpDir;

Dash5Header v3_header(Shape2D shape, ChunkShape chunk,
                      const std::string& codec, DType dtype = DType::kF64) {
  Dash5Header h;
  h.shape = shape;
  h.dtype = dtype;
  h.layout = Layout::kChunked;
  h.chunk = chunk;
  h.codec = CodecSpec::parse(codec);
  h.global.set("SamplingFrequency[Hz]", "500");
  return h;
}

/// Sample values exactly representable in f32, so f64 and f32 files
/// round-trip identically.
std::vector<double> sample_data(Shape2D shape) {
  std::vector<double> data(shape.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>((i * 37) % 4096) - 2048.0;
  }
  return data;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

TEST(Dash5V3Test, RoundtripsEveryChainDtypeAndGeometry) {
  TmpDir dir("v3");
  const char* const chains[] = {"none+lz", "shuffle", "delta", "lz",
                                "shuffle+lz", "delta+lz"};
  const Shape2D shapes[] = {{1, 1}, {3, 5}, {16, 64}, {7, 129}};
  const ChunkShape chunks[] = {{1, 1}, {2, 8}, {4, 48}, {16, 256}};
  int case_id = 0;
  for (const char* chain : chains) {
    for (const Shape2D shape : shapes) {
      for (const ChunkShape chunk : chunks) {
        for (const DType dtype : {DType::kF64, DType::kF32}) {
          const std::string path =
              dir.file("rt" + std::to_string(case_id++) + ".dh5");
          const std::vector<double> data = sample_data(shape);
          dash5_write(path, v3_header(shape, chunk, chain, dtype), data);
          Dash5File f(path);
          EXPECT_EQ(f.version(), 3);
          EXPECT_EQ(f.codec().str(), chain);
          EXPECT_EQ(f.shape(), shape);
          ASSERT_EQ(f.read_all(), data)
              << chain << " " << shape << " chunk " << chunk.rows << "x"
              << chunk.cols << " dtype " << static_cast<int>(dtype);
        }
      }
    }
  }
}

TEST(Dash5V3Test, SlabSelectionsMatchContiguousReference) {
  TmpDir dir("v3");
  const Shape2D shape{13, 101};
  const std::vector<double> data = sample_data(shape);
  dash5_write(dir.file("v3.dh5"), v3_header(shape, {4, 32}, "shuffle+lz"),
              data);
  Dash5Header ref_header;
  ref_header.shape = shape;
  dash5_write(dir.file("ref.dh5"), ref_header, data);

  Dash5File v3(dir.file("v3.dh5"));
  Dash5File ref(dir.file("ref.dh5"));
  const Slab2D slabs[] = {
      {0, 0, 13, 101},  // everything
      {0, 0, 1, 1},     // single element
      {3, 30, 2, 5},    // interior of one tile
      {2, 20, 9, 60},   // spans several tiles both ways
      {12, 96, 1, 5},   // bottom-right edge (padded tiles)
      {0, 31, 13, 2},   // tall sliver across a tile boundary
  };
  for (const Slab2D& slab : slabs) {
    EXPECT_EQ(v3.read_slab(slab), ref.read_slab(slab)) << slab;
  }
}

TEST(Dash5V3Test, StreamWriterProducesByteIdenticalFiles) {
  // The band-streaming writer must emit exactly the bytes of the
  // one-shot writer: same tile order, same codec output, same index.
  TmpDir dir("v3");
  const Shape2D shape{22, 130};  // partial final band, partial edge tiles
  const std::vector<double> data = sample_data(shape);
  const Dash5Header header = v3_header(shape, {8, 64}, "shuffle+lz");
  dash5_write(dir.file("oneshot.dh5"), header, data);

  Dash5StreamWriter w(dir.file("stream.dh5"), header);
  // Deliberately ragged appends: rows split mid-band and mid-row.
  std::size_t off = 0;
  const std::size_t pieces[] = {1, 129, 260, 7, 1000, 463};
  for (const std::size_t n : pieces) {
    w.append(std::span<const double>(data).subspan(off, n));
    off += n;
  }
  w.append(std::span<const double>(data).subspan(off));
  w.close();

  EXPECT_EQ(slurp(dir.file("stream.dh5")), slurp(dir.file("oneshot.dh5")));
}

TEST(Dash5V3Test, StreamWriterStillRefusesChunkedWithoutCodec) {
  TmpDir dir("v3");
  Dash5Header h = v3_header({4, 8}, {2, 4}, "none");
  EXPECT_TRUE(h.codec.empty());
  EXPECT_THROW(Dash5StreamWriter w(dir.file("x.dh5"), h), InvalidArgument);
}

TEST(Dash5V3Test, CodecWithContiguousLayoutIsRefused) {
  TmpDir dir("v3");
  Dash5Header h = v3_header({4, 8}, {2, 4}, "lz");
  h.layout = Layout::kContiguous;
  const std::vector<double> data(h.shape.size(), 1.0);
  EXPECT_THROW(dash5_write(dir.file("x.dh5"), h, data), InvalidArgument);
}

TEST(Dash5V3Test, ChunkIndexAccountsForEveryTile) {
  TmpDir dir("v3");
  const Shape2D shape{10, 100};  // 3x4 grid under 4x32 tiles
  dash5_write(dir.file("x.dh5"), v3_header(shape, {4, 32}, "shuffle+lz"),
              sample_data(shape));
  Dash5File f(dir.file("x.dh5"));
  ASSERT_EQ(f.chunk_index().size(), 12u);
  const std::uint64_t raw_each = 4 * 32 * sizeof(double);
  for (const ChunkIndexEntry& e : f.chunk_index()) {
    EXPECT_EQ(e.raw_size, raw_each);
    EXPECT_LE(e.codec, 1);
    EXPECT_GT(e.csize, 0u);
  }
}

TEST(Dash5V3Test, IncompressibleChunksFallBackToRawStorage) {
  // White-noise doubles do not compress; every chunk must carry the
  // raw flag and the file must not blow up past raw size + overhead.
  TmpDir dir("v3");
  const Shape2D shape{8, 64};
  std::vector<double> data(shape.size());
  std::uint64_t s = 0x243F6A8885A308D3ull;
  for (auto& v : data) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    std::memcpy(&v, &s, sizeof v);
    v = static_cast<double>(s >> 11) * 0x1p-53;  // full-entropy mantissa
  }
  dash5_write(dir.file("noise.dh5"), v3_header(shape, {8, 64}, "delta+lz"),
              data);
  Dash5File f(dir.file("noise.dh5"));
  ASSERT_EQ(f.chunk_index().size(), 1u);
  EXPECT_EQ(f.chunk_index()[0].codec, 0);  // stored raw
  EXPECT_EQ(f.chunk_index()[0].csize, f.chunk_index()[0].raw_size);
  EXPECT_EQ(f.read_all(), data);
}

TEST(Dash5V3Test, V2OutputBytesAreUnchangedByTheV3Engine) {
  // Format stability: a v2 writer round must still emit version byte 2
  // and no chunk index footer, and read back with version() == 2.
  TmpDir dir("v3");
  const Shape2D shape{4, 8};
  Dash5Header h;
  h.shape = shape;
  h.layout = Layout::kChunked;
  h.chunk = {2, 4};
  const std::vector<double> data = sample_data(shape);
  dash5_write(dir.file("v2.dh5"), h, data);

  const std::vector<char> bytes = slurp(dir.file("v2.dh5"));
  ASSERT_GE(bytes.size(), 16u);
  EXPECT_EQ(std::memcmp(bytes.data(), "DASH5\0\0\2", 8), 0);
  // Exactly prelude + header + dataset: a footer would add 20+ bytes.
  std::uint64_t head_size = 0;
  std::memcpy(&head_size, bytes.data() + 8, sizeof head_size);
  EXPECT_EQ(bytes.size(), 16 + head_size + shape.size() * sizeof(double));

  Dash5File f(dir.file("v2.dh5"));
  EXPECT_EQ(f.version(), 2);
  EXPECT_TRUE(f.codec().empty());
  EXPECT_TRUE(f.chunk_index().empty());
  EXPECT_EQ(f.read_all(), data);
}

TEST(Dash5V3Test, VcaMergesV2AndV3MembersTransparently) {
  TmpDir dir("v3");
  const Shape2D shape{6, 40};
  const std::vector<double> a = sample_data(shape);
  std::vector<double> b = a;
  for (auto& v : b) v += 1.0;
  Dash5Header v2h;
  v2h.shape = shape;
  dash5_write(dir.file("m0.dh5"), v2h, a);
  dash5_write(dir.file("m1.dh5"), v3_header(shape, {3, 16}, "shuffle+lz"), b);

  const Vca vca = Vca::build({dir.file("m0.dh5"), dir.file("m1.dh5")});
  EXPECT_EQ(vca.shape(), (Shape2D{6, 80}));
  std::vector<double> expect(6 * 80);
  for (std::size_t r = 0; r < 6; ++r) {
    std::memcpy(expect.data() + r * 80, a.data() + r * 40,
                40 * sizeof(double));
    std::memcpy(expect.data() + r * 80 + 40, b.data() + r * 40,
                40 * sizeof(double));
  }
  EXPECT_EQ(vca.read_all(), expect);
  // A slab that straddles the member seam decodes from both engines.
  const std::vector<double> seam = vca.read_slab({2, 35, 3, 10});
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 10; ++c) {
      EXPECT_EQ(seam[r * 10 + c], expect[(r + 2) * 80 + 35 + c]);
    }
  }
}

TEST(Dash5V3Test, RepeatedReadsHitTheChunkCache) {
  TmpDir dir("v3");
  const Shape2D shape{16, 256};
  dash5_write(dir.file("x.dh5"), v3_header(shape, {4, 64}, "shuffle+lz"),
              sample_data(shape));
  Dash5File f(dir.file("x.dh5"));
  const Slab2D slab{4, 64, 8, 128};
  const std::vector<double> first = f.read_slab(slab);
  const std::uint64_t hits0 = global_counters().get(counters::kIoCacheHits);
  const std::vector<double> second = f.read_slab(slab);
  EXPECT_EQ(first, second);
  // All four tiles of the window were cached by the first read.
  EXPECT_GE(global_counters().get(counters::kIoCacheHits), hits0 + 4);
}

TEST(Dash5V3Test, ClosingAFileEvictsItsTiles) {
  TmpDir dir("v3");
  const Shape2D shape{8, 128};
  dash5_write(dir.file("x.dh5"), v3_header(shape, {4, 32}, "lz"),
              sample_data(shape));
  const std::size_t entries0 = ChunkCache::global().entries();
  {
    Dash5File f(dir.file("x.dh5"));
    // A partial-width window: whole-file scans are never admitted.
    (void)f.read_slab({0, 0, 8, 64});
    EXPECT_GT(ChunkCache::global().entries(), entries0);
  }
  EXPECT_EQ(ChunkCache::global().entries(), entries0);
}

TEST(Dash5V3Test, SequentialScansIssuePrefetch) {
  TmpDir dir("v3");
  const Shape2D shape{64, 512};
  dash5_write(dir.file("x.dh5"), v3_header(shape, {8, 64}, "shuffle+lz"),
              sample_data(shape));
  Dash5File f(dir.file("x.dh5"));
  const std::uint64_t issued0 =
      global_counters().get(counters::kIoCachePrefetchIssued);
  // A strided full-width scan: after two equal steps the prefetcher
  // must start predicting the next window.
  std::vector<double> all;
  for (std::size_t r0 = 0; r0 < shape.rows; r0 += 8) {
    const std::vector<double> band = f.read_slab({r0, 0, 8, shape.cols});
    all.insert(all.end(), band.begin(), band.end());
  }
  EXPECT_EQ(all, sample_data(shape));
  EXPECT_GT(global_counters().get(counters::kIoCachePrefetchIssued), issued0);
}

TEST(Dash5V3Test, ReadsWorkWithTheCacheDisabled) {
  // Budget 0 turns every access into a decode; results must not change.
  TmpDir dir("v3");
  const Shape2D shape{9, 70};
  const std::vector<double> data = sample_data(shape);
  dash5_write(dir.file("x.dh5"), v3_header(shape, {4, 16}, "delta+lz"), data);
  const std::size_t budget0 = ChunkCache::global().budget();
  ChunkCache::global().set_budget(0);
  {
    Dash5File f(dir.file("x.dh5"));
    EXPECT_EQ(f.read_all(), data);
    const Dash5File again(dir.file("x.dh5"));
    EXPECT_EQ(f.read_slab({1, 3, 5, 50}), again.read_slab({1, 3, 5, 50}));
  }
  ChunkCache::global().set_budget(budget0);
}

TEST(Dash5V3Test, ReadHeaderSeesCodecWithoutTouchingData) {
  TmpDir dir("v3");
  const Shape2D shape{4, 32};
  dash5_write(dir.file("x.dh5"), v3_header(shape, {2, 16}, "shuffle+lz"),
              sample_data(shape));
  const Dash5Header h = Dash5File::read_header(dir.file("x.dh5"));
  EXPECT_EQ(h.codec.str(), "shuffle+lz");
  EXPECT_EQ(h.layout, Layout::kChunked);
  EXPECT_EQ(h.shape, shape);
}

}  // namespace
}  // namespace dassa::io
