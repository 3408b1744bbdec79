// Routed whole-file scan tests (Dash5File::scan_into): one data read,
// each v3 tile decoded once and never admitted to the chunk cache, rows
// routed to bands whose edges cut through tiles, corrupt tiles reported
// by chunk number whichever thread decoded them, band validation, and
// VCA windows (long-lived member handles) staying on the cached path.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/io/chunk_cache.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::io {
namespace {

using testing::TmpDir;

enum class Kind { kV2Contiguous, kV2Chunked, kV3 };

Dash5Header header_for(Kind kind, Shape2D shape, DType dtype) {
  Dash5Header h;
  h.shape = shape;
  h.dtype = dtype;
  if (kind != Kind::kV2Contiguous) {
    h.layout = Layout::kChunked;
    h.chunk = {8, 64};
  }
  if (kind == Kind::kV3) h.codec = CodecSpec::parse("shuffle+lz");
  return h;
}

/// Smooth, exactly-f32 samples: every tile compresses.
std::vector<double> smooth_data(Shape2D shape) {
  std::vector<double> data(shape.size());
  for (std::size_t r = 0; r < shape.rows; ++r) {
    for (std::size_t c = 0; c < shape.cols; ++c) {
      data[shape.at(r, c)] = static_cast<double>((r * 3 + c / 16) % 64) - 32.0;
    }
  }
  return data;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Dash5V3ScanTest, WholeReadAdmitsNoTilesAndDecodesEachOnce) {
  TmpDir dir("scan");
  const Shape2D shape{64, 512};
  const std::vector<double> data = smooth_data(shape);
  const std::string path = dir.file("x.dh5");
  dash5_write(path, header_for(Kind::kV3, shape, DType::kF32), data);
  Dash5File f(path);
  for (const ChunkIndexEntry& e : f.chunk_index()) {
    ASSERT_EQ(e.codec, 1) << "every tile must go through the codec chain";
  }

  const std::size_t entries0 = ChunkCache::global().entries();
  const std::uint64_t decodes0 =
      global_counters().get(counters::kIoCodecDecodeCalls);
  const std::uint64_t reads0 = global_counters().get(counters::kIoReadCalls);
  const std::uint64_t misses0 =
      global_counters().get(counters::kIoCacheMisses);
  EXPECT_EQ(f.read_all(), data);
  EXPECT_EQ(global_counters().get(counters::kIoCodecDecodeCalls) - decodes0,
            f.chunk_index().size());
  EXPECT_EQ(global_counters().get(counters::kIoReadCalls) - reads0, 1u);
  EXPECT_EQ(global_counters().get(counters::kIoCacheMisses), misses0);
  EXPECT_EQ(ChunkCache::global().entries(), entries0);
}

TEST(Dash5V3ScanTest, VcaWindowsStayCachedAndWholeReadsScan) {
  // A VCA's member handles outlive the read, so a window that covers a
  // whole member still fills the cache for the next window.
  TmpDir dir("scan");
  const Shape2D shape{16, 256};
  std::vector<std::string> files;
  for (int i = 0; i < 2; ++i) {
    files.push_back(dir.file("m" + std::to_string(i) + ".dh5"));
    dash5_write(files.back(), header_for(Kind::kV3, shape, DType::kF64),
                smooth_data(shape));
  }
  const Vca vca = Vca::build(files);
  const Slab2D window{0, 0, shape.rows, shape.cols + 64};
  const std::size_t entries0 = ChunkCache::global().entries();
  const std::vector<double> first = vca.read_slab(window);
  // Member 0 whole (2 x 4 tiles) and member 1's first tile column.
  EXPECT_EQ(ChunkCache::global().entries(), entries0 + 8 + 2);
  const std::uint64_t decodes0 =
      global_counters().get(counters::kIoCodecDecodeCalls);
  EXPECT_EQ(vca.read_slab(window), first);
  EXPECT_EQ(global_counters().get(counters::kIoCodecDecodeCalls), decodes0);

  // Reading the whole VCA scans each member: nothing looked up, nothing
  // admitted, every tile decoded once.
  const std::size_t entries1 = ChunkCache::global().entries();
  const std::vector<double> all = vca.read_all();
  EXPECT_EQ(ChunkCache::global().entries(), entries1);
  EXPECT_EQ(global_counters().get(counters::kIoCodecDecodeCalls) - decodes0,
            2 * 8u);
  const std::vector<double> data = smooth_data(shape);
  for (std::size_t r = 0; r < shape.rows; ++r) {
    for (std::size_t c = 0; c < 2 * shape.cols; ++c) {
      ASSERT_EQ(all[r * 2 * shape.cols + c], data[shape.at(r, c % shape.cols)]);
    }
  }
}

class Dash5V3ScanRouting
    : public ::testing::TestWithParam<std::tuple<Kind, DType>> {};

TEST_P(Dash5V3ScanRouting, BandsCuttingThroughTilesMatchReadSlab) {
  const auto [kind, dtype] = GetParam();
  TmpDir dir("scan");
  // 37 rows of 8-row tiles and 300 columns of 64-column tiles: ragged
  // edge tiles on both axes.
  const Shape2D shape{37, 300};
  const std::vector<double> data = smooth_data(shape);
  const std::string path = dir.file("x.dh5");
  dash5_write(path, header_for(kind, shape, dtype), data);

  constexpr double kUntouched = -777.0;
  struct Dest {
    Range rows;
    std::size_t stride;
    std::vector<double> buf;
  };
  // Band edges at rows 5 and 21 fall inside tiles; one band is empty.
  std::vector<Dest> dests = {{{0, 5}, 303, {}},
                             {{5, 5}, 300, {}},
                             {{5, 21}, 300, {}},
                             {{21, 37}, 310, {}}};
  std::vector<RowBand> bands;
  for (Dest& d : dests) {
    d.buf.assign(d.rows.size() * d.stride, kUntouched);
    bands.push_back({d.rows, d.buf.empty() ? nullptr : d.buf.data(),
                     d.stride});
  }
  const Dash5File f(path);
  f.scan_into(bands);

  const Dash5File oracle(path);
  for (const Dest& d : dests) {
    if (d.rows.size() == 0) continue;
    const std::vector<double> expect =
        oracle.read_slab({d.rows.begin, 0, d.rows.size(), shape.cols});
    for (std::size_t r = 0; r < d.rows.size(); ++r) {
      for (std::size_t c = 0; c < d.stride; ++c) {
        const double got = d.buf[r * d.stride + c];
        if (c < shape.cols) {
          ASSERT_EQ(got, expect[r * shape.cols + c])
              << "row " << d.rows.begin + r << ", column " << c;
          ASSERT_EQ(got, data[shape.at(d.rows.begin + r, c)]);
        } else {
          ASSERT_EQ(got, kUntouched) << "stride gap written";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, Dash5V3ScanRouting,
    ::testing::Combine(::testing::Values(Kind::kV2Contiguous, Kind::kV2Chunked,
                                         Kind::kV3),
                       ::testing::Values(DType::kF64, DType::kF32)),
    [](const ::testing::TestParamInfo<std::tuple<Kind, DType>>& p) {
      const Kind kind = std::get<0>(p.param);
      const std::string layout = kind == Kind::kV2Contiguous ? "v2"
                                 : kind == Kind::kV2Chunked  ? "v2_chunked"
                                                             : "v3";
      return layout +
             (std::get<1>(p.param) == DType::kF64 ? "_f64" : "_f32");
    });

TEST(Dash5V3ScanTest, CorruptTileThrowsNamingTheChunk) {
  // Each tile in turn is corrupted. The caller and io_pool workers
  // share the tiles, so across the loop both decode a bad one; either
  // way the scan throws FormatError naming it, and no worker writes to
  // the destination after the throw (it is freed at once, under ASan).
  TmpDir dir("scan");
  const Shape2D shape{32, 512};
  const std::string good = dir.file("good.dh5");
  dash5_write(good, header_for(Kind::kV3, shape, DType::kF32),
              smooth_data(shape));
  const std::vector<char> bytes = slurp(good);
  std::vector<ChunkIndexEntry> index;
  {
    const Dash5File f(good);
    index = f.chunk_index();
  }
  ASSERT_GE(index.size(), 16u);

  const std::string bad = dir.file("bad.dh5");
  for (std::size_t k = 0; k < index.size(); ++k) {
    std::vector<char> copy = bytes;
    const std::size_t pos =
        static_cast<std::size_t>(index[k].offset + index[k].csize / 2);
    copy[pos] = static_cast<char>(copy[pos] ^ 0x10);
    spit(bad, copy);
    const Dash5File f(bad);
    try {
      std::vector<double> dst(shape.size());
      const RowBand band{{0, shape.rows}, dst.data(), shape.cols};
      f.scan_into({&band, 1});
      FAIL() << "corrupt tile " << k << " was not detected";
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("chunk " + std::to_string(k) +
                                           " CRC mismatch"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Dash5V3ScanTest, RejectsBandsThatDoNotTileTheRows) {
  TmpDir dir("scan");
  const Shape2D shape{10, 20};
  const std::string path = dir.file("x.dh5");
  dash5_write(path, header_for(Kind::kV3, shape, DType::kF64),
              smooth_data(shape));
  const Dash5File f(path);
  std::vector<double> a(shape.size());
  std::vector<double> b(shape.size());
  const auto scan = [&](std::vector<RowBand> bands) { f.scan_into(bands); };

  EXPECT_THROW(scan({{{0, 4}, a.data(), 20}, {{5, 10}, b.data(), 20}}),
               InvalidArgument);  // gap
  EXPECT_THROW(scan({{{0, 6}, a.data(), 20}, {{4, 10}, b.data(), 20}}),
               InvalidArgument);  // overlap
  EXPECT_THROW(scan({{{5, 10}, a.data(), 20}, {{0, 5}, b.data(), 20}}),
               InvalidArgument);  // out of order
  EXPECT_THROW(scan({{{0, 9}, a.data(), 20}}), InvalidArgument);  // short
  EXPECT_THROW(scan({}), InvalidArgument);
  EXPECT_THROW(scan({{{0, 10}, a.data(), 19}}), InvalidArgument);  // stride
  EXPECT_THROW(scan({{{0, 10}, nullptr, 20}}), InvalidArgument);

  // An empty band needs no destination.
  scan({{{0, 0}, nullptr, 20}, {{0, 10}, a.data(), 20}});
  EXPECT_EQ(a, smooth_data(shape));
}

}  // namespace
}  // namespace dassa::io
