// VCA / RCA / LAV tests: content equivalence between virtual and
// physical concatenation across arbitrary file splits, resolve logic,
// persistence, construction-cost asymmetry (Table I).
#include "dassa/io/vca.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>

#include "dassa/common/counters.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::io {
namespace {

using testing::TmpDir;

/// How the fixture's member files are stored.
enum class Storage { kV2Plain, kV2Chunked, kV3 };

/// Write `splits` files whose column counts are `cols_per_file`, filled
/// from one coherent global array so concatenation is checkable.
struct Fixture {
  Shape2D global;
  std::vector<double> data;
  std::vector<std::string> files;

  Fixture(TmpDir& dir, std::size_t rows,
          const std::vector<std::size_t>& cols_per_file,
          DType dtype = DType::kF64, Storage storage = Storage::kV2Plain) {
    std::size_t total_cols = 0;
    for (std::size_t c : cols_per_file) total_cols += c;
    global = {rows, total_cols};
    data.resize(global.size());
    std::mt19937_64 rng(11);
    std::normal_distribution<double> dist;
    for (auto& v : data) v = dist(rng);

    std::size_t col0 = 0;
    for (std::size_t i = 0; i < cols_per_file.size(); ++i) {
      const Shape2D fshape{rows, cols_per_file[i]};
      std::vector<double> fdata(fshape.size());
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < fshape.cols; ++c) {
          fdata[fshape.at(r, c)] = data[global.at(r, col0 + c)];
        }
      }
      Dash5Header h;
      h.shape = fshape;
      h.dtype = dtype;
      if (storage != Storage::kV2Plain) {
        h.layout = Layout::kChunked;
        h.chunk = {4, 4};
      }
      if (storage == Storage::kV3) h.codec = CodecSpec::parse("shuffle+lz");
      h.global.set(meta::kTimeStamp, "17072822451" + std::to_string(i));
      const std::string path = dir.file("part" + std::to_string(i) + ".dh5");
      dash5_write(path, h, fdata);
      files.push_back(path);
      col0 += fshape.cols;
    }
  }
};

TEST(VcaTest, ShapeIsConcatenationOfMembers) {
  TmpDir dir("vca");
  Fixture fx(dir, 5, {10, 20, 7});
  const Vca vca = Vca::build(fx.files);
  EXPECT_EQ(vca.shape(), (Shape2D{5, 37}));
  EXPECT_EQ(vca.members().size(), 3u);
  EXPECT_EQ(vca.member_col_start(0), 0u);
  EXPECT_EQ(vca.member_col_start(1), 10u);
  EXPECT_EQ(vca.member_col_start(2), 30u);
}

TEST(VcaTest, ReadAllMatchesGlobalArray) {
  TmpDir dir("vca");
  Fixture fx(dir, 4, {8, 8, 8, 8});
  Vca vca = Vca::build(fx.files);
  EXPECT_EQ(vca.read_all(), fx.data);
}

TEST(VcaTest, SlabAcrossFileBoundariesMatches) {
  TmpDir dir("vca");
  Fixture fx(dir, 6, {5, 9, 3, 12});
  Vca vca = Vca::build(fx.files);
  for (const Slab2D slab :
       {Slab2D{1, 3, 2, 10},   // spans files 0-1-2
        Slab2D{0, 4, 6, 2},    // spans 0-1 boundary
        Slab2D{2, 14, 1, 15},  // spans 2-3 boundary
        Slab2D{0, 6, 3, 2},    // inside file 1
        Slab2D{0, 0, 6, 29}}) {  // everything
    const std::vector<double> got = vca.read_slab(slab);
    for (std::size_t r = 0; r < slab.row_cnt; ++r) {
      for (std::size_t c = 0; c < slab.col_cnt; ++c) {
        EXPECT_EQ(got[r * slab.col_cnt + c],
                  fx.data[fx.global.at(slab.row_off + r, slab.col_off + c)])
            << slab.str();
      }
    }
  }
}

TEST(VcaTest, ResolveMapsPiecesCorrectly) {
  TmpDir dir("vca");
  Fixture fx(dir, 3, {4, 4, 4});
  const Vca vca = Vca::build(fx.files);
  const auto pieces = vca.resolve(Slab2D{1, 2, 2, 8});
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].member, 0u);
  EXPECT_EQ(pieces[0].slab, (Slab2D{1, 2, 2, 2}));
  EXPECT_EQ(pieces[0].col_dst, 0u);
  EXPECT_EQ(pieces[1].member, 1u);
  EXPECT_EQ(pieces[1].slab, (Slab2D{1, 0, 2, 4}));
  EXPECT_EQ(pieces[1].col_dst, 2u);
  EXPECT_EQ(pieces[2].member, 2u);
  EXPECT_EQ(pieces[2].slab, (Slab2D{1, 0, 2, 2}));
  EXPECT_EQ(pieces[2].col_dst, 6u);
}

TEST(VcaTest, ResolveSingleFileInterior) {
  TmpDir dir("vca");
  Fixture fx(dir, 3, {10, 10});
  const Vca vca = Vca::build(fx.files);
  const auto pieces = vca.resolve(Slab2D{0, 12, 3, 5});
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].member, 1u);
  EXPECT_EQ(pieces[0].slab, (Slab2D{0, 2, 3, 5}));
}

TEST(VcaTest, RejectsMismatchedChannelCounts) {
  TmpDir dir("vca");
  Fixture a(dir, 3, {4});
  Dash5Header h;
  h.shape = {5, 4};  // different row count
  dash5_write(dir.file("odd.dh5"), h, std::vector<double>(20, 0.0));
  std::vector<std::string> files = a.files;
  files.push_back(dir.file("odd.dh5"));
  EXPECT_THROW((void)Vca::build(files), InvalidArgument);
}

TEST(VcaTest, RejectsEmptyFileList) {
  EXPECT_THROW((void)Vca::build({}), InvalidArgument);
}

TEST(VcaTest, SaveLoadRoundTrip) {
  TmpDir dir("vca");
  Fixture fx(dir, 4, {6, 6, 6});
  const Vca vca = Vca::build(fx.files);
  vca.save(dir.file("merged.vca"));
  Vca loaded = Vca::load(dir.file("merged.vca"));
  EXPECT_EQ(loaded.shape(), vca.shape());
  EXPECT_EQ(loaded.members().size(), 3u);
  EXPECT_EQ(loaded.members()[1].path, vca.members()[1].path);
  EXPECT_EQ(loaded.read_all(), fx.data);
  EXPECT_EQ(loaded.global_meta().get_or_throw(meta::kTimeStamp),
            "170728224510");
}

TEST(VcaTest, LoadDetectsCorruption) {
  TmpDir dir("vca");
  Fixture fx(dir, 2, {3});
  Vca::build(fx.files).save(dir.file("v.vca"));
  {
    std::fstream f(dir.file("v.vca"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20);
    f.put('\x7F');
  }
  EXPECT_THROW((void)Vca::load(dir.file("v.vca")), FormatError);
}

TEST(VcaTest, BuildReadsOnlyHeaders) {
  // Table I: VCA construction must not touch data bytes. With 4 files
  // of 64 KiB data each, header-only construction reads a tiny
  // fraction of the file sizes.
  TmpDir dir("vca");
  Fixture fx(dir, 64, {128, 128, 128, 128});
  global_counters().reset();
  const Vca vca = Vca::build(fx.files);
  (void)vca;
  const std::uint64_t bytes = global_counters().get(counters::kIoReadBytes);
  EXPECT_LT(bytes, 16u * 1024u);  // headers only
}

TEST(RcaTest, PhysicalMergeMatchesVca) {
  TmpDir dir("rca");
  Fixture fx(dir, 5, {7, 11, 2}, DType::kF64);
  Vca vca = Vca::build(fx.files);
  const RcaBuildStats stats = rca_create(fx.files, dir.file("merged.dh5"));
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GT(stats.bytes_written, fx.data.size() * sizeof(double));

  Dash5File rca(dir.file("merged.dh5"));
  EXPECT_EQ(rca.shape(), fx.global);
  EXPECT_EQ(rca.read_all(), fx.data);
  EXPECT_EQ(rca.read_all(), vca.read_all());
}

TEST(RcaTest, ReadsAllDataDuringConstruction) {
  // Table I: RCA construction cost ~ total data size (vs VCA's
  // header-only cost).
  TmpDir dir("rca");
  Fixture fx(dir, 32, {256, 256});
  global_counters().reset();
  (void)rca_create(fx.files, dir.file("m.dh5"));
  const std::uint64_t bytes = global_counters().get(counters::kIoReadBytes);
  EXPECT_GE(bytes, fx.data.size() * sizeof(double));
}

TEST(LavTest, WindowedViewReads) {
  TmpDir dir("lav");
  Fixture fx(dir, 8, {10, 10});
  auto vca = std::make_shared<Vca>(Vca::build(fx.files));
  Lav lav(vca, Slab2D{2, 5, 4, 10});
  EXPECT_EQ(lav.shape(), (Shape2D{4, 10}));
  const std::vector<double> got = lav.read_slab(Slab2D{1, 2, 2, 3});
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(got[r * 3 + c], fx.data[fx.global.at(3 + r, 7 + c)]);
    }
  }
}

TEST(LavTest, ComposedViewsReoffset) {
  TmpDir dir("lav");
  Fixture fx(dir, 8, {20});
  auto src = std::make_shared<Dash5File>(fx.files[0]);
  auto outer = std::make_shared<Lav>(src, Slab2D{2, 4, 6, 12});
  Lav inner(outer, Slab2D{1, 2, 3, 4});
  EXPECT_EQ(inner.shape(), (Shape2D{3, 4}));
  const std::vector<double> got = inner.read_all();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(got[r * 4 + c], fx.data[fx.global.at(3 + r, 6 + c)]);
    }
  }
}

TEST(LavTest, RejectsOversizedWindow) {
  TmpDir dir("lav");
  Fixture fx(dir, 4, {6});
  auto src = std::make_shared<Dash5File>(fx.files[0]);
  EXPECT_THROW(Lav(src, Slab2D{0, 0, 5, 6}), InvalidArgument);
  EXPECT_THROW(Lav(nullptr, Slab2D{0, 0, 1, 1}), InvalidArgument);
}

TEST(MemorySourceTest, SlabReads) {
  const Shape2D shape{3, 4};
  std::vector<double> data(12);
  std::iota(data.begin(), data.end(), 0.0);
  MemorySource src(shape, data);
  EXPECT_EQ(src.shape(), shape);
  const std::vector<double> got = src.read_slab(Slab2D{1, 1, 2, 2});
  EXPECT_EQ(got, (std::vector<double>{5, 6, 9, 10}));
  EXPECT_THROW(MemorySource(shape, std::vector<double>(5)), InvalidArgument);
}

/// The source a strided read goes through.
enum class Via { kVca, kLav, kMemory };

class ReadSlabIntoTest
    : public ::testing::TestWithParam<std::tuple<Storage, DType, Via>> {};

TEST_P(ReadSlabIntoTest, StridedDestinationMatchesReadSlab) {
  const auto [storage, dtype, via] = GetParam();
  TmpDir dir("into");
  Fixture fx(dir, 7, {5, 9, 3, 12}, dtype, storage);
  auto vca = std::make_shared<Vca>(Vca::build(fx.files));
  // Global coordinates of the source's (0, 0): the LAV window starts
  // inside member 0 and ends inside member 3.
  const Slab2D window{1, 2, 6, 25};
  std::shared_ptr<ArraySource> src = vca;
  std::size_t row0 = 0;
  std::size_t col0 = 0;
  if (via == Via::kLav) {
    src = std::make_shared<Lav>(vca, window);
    row0 = window.row_off;
    col0 = window.col_off;
  } else if (via == Via::kMemory) {
    src = std::make_shared<MemorySource>(vca->shape(), vca->read_all());
  }
  const double sentinel = -12345.5;
  for (const Slab2D slab :
       {Slab2D{1, 3, 2, 10},   // spans members 0-1(-2)
        Slab2D{0, 4, 5, 2},    // one member boundary
        Slab2D{2, 14, 1, 10},  // members 2-3
        Slab2D{0, 6, 3, 2},    // inside one member
        Slab2D::whole(src->shape())}) {
    const std::vector<double> want = src->read_slab(slab);
    ASSERT_EQ(want.size(), slab.size());
    const std::size_t off = 3;
    const std::size_t stride = slab.col_cnt + 5;
    std::vector<double> dst(off + slab.row_cnt * stride, sentinel);
    src->read_slab_into(slab, dst.data() + off, stride);
    std::size_t untouched = 0;
    for (const double v : dst) untouched += v == sentinel ? 1 : 0;
    EXPECT_EQ(untouched, dst.size() - slab.size()) << slab.str();
    for (std::size_t r = 0; r < slab.row_cnt; ++r) {
      for (std::size_t c = 0; c < slab.col_cnt; ++c) {
        const double got = dst[off + r * stride + c];
        ASSERT_EQ(got, want[r * slab.col_cnt + c]) << slab.str();
        const double truth =
            fx.data[fx.global.at(row0 + slab.row_off + r,
                                 col0 + slab.col_off + c)];
        if (dtype == DType::kF64) {
          ASSERT_EQ(got, truth) << slab.str();
        } else {
          ASSERT_EQ(got, static_cast<double>(static_cast<float>(truth)))
              << slab.str();
        }
      }
    }
  }
  std::vector<double> narrow(8);
  EXPECT_THROW(src->read_slab_into(Slab2D{0, 0, 2, 4}, narrow.data(), 3),
               InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Sources, ReadSlabIntoTest,
    ::testing::Combine(::testing::Values(Storage::kV2Plain,
                                         Storage::kV2Chunked, Storage::kV3),
                       ::testing::Values(DType::kF64, DType::kF32),
                       ::testing::Values(Via::kVca, Via::kLav,
                                         Via::kMemory)));

}  // namespace
}  // namespace dassa::io
