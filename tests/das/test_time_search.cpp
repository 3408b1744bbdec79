// Timestamp + das_search catalog tests (paper Section IV-A).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/das/search.hpp"
#include "dassa/das/synth.hpp"
#include "dassa/das/time.hpp"
#include "dassa/io/interval_index.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::das {
namespace {

using testing::TmpDir;

TEST(TimestampTest, ParseFormatRoundTrip) {
  for (const std::string s :
       {"170620100545", "170728224510", "000101000000", "991231235959"}) {
    EXPECT_EQ(Timestamp::parse(s).str(), s);
  }
}

TEST(TimestampTest, ParseRejectsMalformed) {
  EXPECT_THROW((void)Timestamp::parse("17062010054"), InvalidArgument);
  EXPECT_THROW((void)Timestamp::parse("1706201005456"), InvalidArgument);
  EXPECT_THROW((void)Timestamp::parse("17062010054x"), InvalidArgument);
  EXPECT_THROW((void)Timestamp::parse("171320100545"), InvalidArgument);  // month 13
  EXPECT_THROW((void)Timestamp::parse("170620106045"), InvalidArgument);  // minute 60
}

TEST(TimestampTest, PlusSecondsWithinMinute) {
  const Timestamp t = Timestamp::parse("170728224510");
  EXPECT_EQ(t.plus_seconds(30).str(), "170728224540");
}

TEST(TimestampTest, PlusSecondsRollsMinutesHoursDays) {
  const Timestamp t = Timestamp::parse("170728235950");
  EXPECT_EQ(t.plus_seconds(10).str(), "170729000000");
  EXPECT_EQ(t.plus_seconds(70).str(), "170729000100");
  EXPECT_EQ(t.plus_seconds(86400).str(), "170729235950");
}

TEST(TimestampTest, MonthAndYearBoundaries) {
  EXPECT_EQ(Timestamp::parse("171231235959").plus_seconds(1).str(),
            "180101000000");
  EXPECT_EQ(Timestamp::parse("170630235959").plus_seconds(1).str(),
            "170701000000");
  // 2020 is a leap year.
  EXPECT_EQ(Timestamp::parse("200228235959").plus_seconds(1).str(),
            "200229000000");
  // 2017 is not.
  EXPECT_EQ(Timestamp::parse("170228235959").plus_seconds(1).str(),
            "170301000000");
}

TEST(TimestampTest, OrderingFollowsTime) {
  EXPECT_LT(Timestamp::parse("170728224510"),
            Timestamp::parse("170728224511"));
  EXPECT_LT(Timestamp::parse("170728235959"),
            Timestamp::parse("170729000000"));
  EXPECT_EQ(Timestamp::parse("170728224510"),
            Timestamp::parse("170728224510"));
}

TEST(TimestampTest, EpochSecondsDifferencesAreExact) {
  const Timestamp a = Timestamp::parse("170728224510");
  EXPECT_EQ(a.plus_seconds(3600).epoch_seconds() - a.epoch_seconds(), 3600);
  EXPECT_EQ(a.plus_seconds(-60).epoch_seconds(), a.epoch_seconds() - 60);
}

/// Ten 1-"minute" files (scaled to 0.1 s) starting at the paper's
/// example timestamp 170728224510, stepping 60 s... no: stepping
/// seconds_per_file. Use 60 s steps explicitly via seconds_per_file=60
/// but tiny sampling rate so files stay small.
struct CatalogFixture {
  TmpDir dir{"search"};
  std::vector<std::string> paths;

  CatalogFixture() {
    SynthDas synth = SynthDas::fig1b_scene(4, 0.2, 1);  // 12 samples/min
    AcquisitionSpec spec;
    spec.dir = dir.str();
    spec.start = Timestamp::parse("170728224510");
    spec.file_count = 10;
    spec.seconds_per_file = 60.0;
    spec.per_channel_metadata = false;
    paths = write_acquisition(synth, spec);
  }
};

TEST(CatalogTest, ScanFindsAllFilesSorted) {
  CatalogFixture fx;
  const Catalog cat = Catalog::scan(fx.dir.str());
  ASSERT_EQ(cat.size(), 10u);
  for (std::size_t i = 1; i < cat.size(); ++i) {
    EXPECT_LT(cat.entries()[i - 1].timestamp, cat.entries()[i].timestamp);
  }
  EXPECT_EQ(cat.entries()[0].timestamp.str(), "170728224510");
  EXPECT_EQ(cat.entries()[9].timestamp.str(), "170728225410");
}

TEST(CatalogTest, FilenameScanMatchesHeaderScan) {
  CatalogFixture fx;
  // An RCA merged into the acquisition directory carries the first
  // member's TimeStamp but no timestamped name: neither mode takes it.
  (void)io::rca_create(fx.paths, fx.dir.file("merged.dh5"));
  const Catalog with_headers = Catalog::scan(fx.dir.str(), true);
  const Catalog names_only = Catalog::scan(fx.dir.str(), false);
  ASSERT_EQ(with_headers.size(), 10u);
  ASSERT_EQ(names_only.size(), 10u);
  for (std::size_t i = 0; i < with_headers.size(); ++i) {
    EXPECT_EQ(with_headers.entries()[i].timestamp,
              names_only.entries()[i].timestamp);
    EXPECT_EQ(with_headers.entries()[i].path, names_only.entries()[i].path);
  }
}

// The names-only scan is the das_search fast path for huge spools: it
// must stay a pure directory-entry walk. Pinned here via the io.*
// counters -- any Dash5File open or read in the names-only branch
// would bump them.
TEST(CatalogTest, NamesOnlyScanOpensNoFiles) {
  CatalogFixture fx;
  auto& ctr = global_counters();
  const std::uint64_t opens_before = ctr.get(counters::kIoOpens);
  const std::uint64_t reads_before = ctr.get(counters::kIoReadCalls);
  const Catalog names_only = Catalog::scan(fx.dir.str(), false);
  EXPECT_EQ(names_only.size(), 10u);
  EXPECT_EQ(ctr.get(counters::kIoOpens), opens_before);
  EXPECT_EQ(ctr.get(counters::kIoReadCalls), reads_before);
  // Sanity check that the pin is meaningful: the header scan of the
  // same directory does open and read every file.
  const Catalog with_headers = Catalog::scan(fx.dir.str(), true);
  EXPECT_GE(ctr.get(counters::kIoOpens), opens_before + 10);
  EXPECT_GE(ctr.get(counters::kIoReadCalls), reads_before + 10);
}

TEST(CatalogTest, RangeQueryPaperExample) {
  // Paper: das_search -s 170728224510 -c 2 returns the file at the
  // timestamp plus the next one.
  CatalogFixture fx;
  const Catalog cat = Catalog::scan(fx.dir.str());
  const auto hits = cat.query_range(Timestamp::parse("170728224510"), 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].timestamp.str(), "170728224510");
  EXPECT_EQ(hits[1].timestamp.str(), "170728224610");
}

TEST(CatalogTest, RangeQuerySnapsToNextFile) {
  CatalogFixture fx;
  const Catalog cat = Catalog::scan(fx.dir.str());
  // A timestamp between files snaps forward.
  const auto hits = cat.query_range(Timestamp::parse("170728224530"), 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].timestamp.str(), "170728224610");
}

TEST(CatalogTest, RangeQueryClampsAtEnd) {
  CatalogFixture fx;
  const Catalog cat = Catalog::scan(fx.dir.str());
  const auto hits = cat.query_range(Timestamp::parse("170728225310"), 99);
  EXPECT_EQ(hits.size(), 2u);  // only two files remain
  const auto none = cat.query_range(Timestamp::parse("180101000000"), 5);
  EXPECT_TRUE(none.empty());
}

TEST(CatalogTest, IntervalQuery) {
  CatalogFixture fx;
  const Catalog cat = Catalog::scan(fx.dir.str());
  const auto hits = cat.query_interval(Timestamp::parse("170728224610"),
                                       Timestamp::parse("170728224910"));
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].timestamp.str(), "170728224610");
  EXPECT_EQ(hits[2].timestamp.str(), "170728224810");
}

TEST(CatalogTest, RegexQueryPaperExample) {
  // Paper: das_search -e 170728224[567]10.
  CatalogFixture fx;
  const Catalog cat = Catalog::scan(fx.dir.str());
  const auto hits = cat.query_regex("170728224[567]10");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].timestamp.str(), "170728224510");
  EXPECT_EQ(hits[1].timestamp.str(), "170728224610");
  EXPECT_EQ(hits[2].timestamp.str(), "170728224710");
}

TEST(CatalogTest, RegexMatchesWholeString) {
  CatalogFixture fx;
  const Catalog cat = Catalog::scan(fx.dir.str());
  EXPECT_TRUE(cat.query_regex("2245").empty());      // substring: no match
  EXPECT_EQ(cat.query_regex(".*2245.*").size(), 1u);  // explicit wildcard
}

TEST(CatalogTest, PathsHelper) {
  CatalogFixture fx;
  const Catalog cat = Catalog::scan(fx.dir.str());
  const auto hits = cat.query_range(Timestamp::parse("170728224510"), 3);
  const auto paths = Catalog::paths(hits);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], hits[0].path);
}

TEST(CatalogTest, IgnoresForeignFiles) {
  CatalogFixture fx;
  {
    std::ofstream((fx.dir.file("README.txt"))) << "not a das file";
    std::ofstream((fx.dir.file("noise.dh5.bak"))) << "also not";
  }
  EXPECT_EQ(Catalog::scan(fx.dir.str(), false).size(), 10u);
}

// ---- query_vca_interval: indexed path vs. linear fallback ---------

/// The CatalogFixture acquisition published as a VCA + .tix sidecar,
/// the way das_search --save-vca / das_ingest republish archives.
struct VcaIntervalFixture : CatalogFixture {
  std::string vca_path;
  std::string tix_path;

  VcaIntervalFixture() {
    vca_path = dir.file("arch.vca");
    save_vca_with_index(io::Vca::build(paths), vca_path);
    tix_path = io::IntervalIndex::sidecar_path(vca_path);
  }
};

/// [170728224610, 170728224910) overlaps exactly the three members
/// starting at 224610, 224710, 224810 (each file spans 60 s).
void expect_paper_interval_hits(const std::vector<DasFileInfo>& hits) {
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].timestamp.str(), "170728224610");
  EXPECT_EQ(hits[1].timestamp.str(), "170728224710");
  EXPECT_EQ(hits[2].timestamp.str(), "170728224810");
}

TEST(VcaIntervalTest, SidecarQueryIsSubLinearAndNeverFallsBack) {
  VcaIntervalFixture fx;
  ASSERT_TRUE(std::filesystem::exists(fx.tix_path));
  auto& ctr = global_counters();
  const std::uint64_t fallbacks = ctr.get(counters::kIoIndexFallbacks);
  const std::uint64_t touches = ctr.get(counters::kIoIndexEntryTouches);
  const std::uint64_t loads = ctr.get(counters::kIoIndexLoads);

  expect_paper_interval_hits(Catalog::query_vca_interval(
      fx.vca_path, Timestamp::parse("170728224610"),
      Timestamp::parse("170728224910")));

  EXPECT_EQ(ctr.get(counters::kIoIndexFallbacks), fallbacks);
  EXPECT_EQ(ctr.get(counters::kIoIndexLoads), loads + 1);
  // Binary search over 10 entries plus the 3 hits -- well under the
  // member count the linear fallback would charge.
  const std::uint64_t spent = ctr.get(counters::kIoIndexEntryTouches) - touches;
  EXPECT_GT(spent, 0u);
  EXPECT_LT(spent, 10u);
}

TEST(VcaIntervalTest, MissingSidecarFallsBackToSameAnswer) {
  VcaIntervalFixture fx;
  const Timestamp begin = Timestamp::parse("170728224610");
  const Timestamp end = Timestamp::parse("170728224910");
  const auto indexed = Catalog::query_vca_interval(fx.vca_path, begin, end);

  ASSERT_TRUE(std::filesystem::remove(fx.tix_path));
  auto& ctr = global_counters();
  const std::uint64_t fallbacks = ctr.get(counters::kIoIndexFallbacks);
  const std::uint64_t touches = ctr.get(counters::kIoIndexEntryTouches);

  const auto scanned = Catalog::query_vca_interval(fx.vca_path, begin, end);
  expect_paper_interval_hits(scanned);
  ASSERT_EQ(scanned.size(), indexed.size());
  for (std::size_t i = 0; i < scanned.size(); ++i) {
    EXPECT_EQ(scanned[i].path, indexed[i].path);
    EXPECT_EQ(scanned[i].timestamp, indexed[i].timestamp);
  }
  EXPECT_EQ(ctr.get(counters::kIoIndexFallbacks), fallbacks + 1);
  // The fallback derives every member's extent: one touch per member.
  EXPECT_EQ(ctr.get(counters::kIoIndexEntryTouches), touches + 10);
}

TEST(VcaIntervalTest, CorruptSidecarIsCorruptionNotAbsence) {
  VcaIntervalFixture fx;
  {
    // Flip a payload byte past the magic: the CRC must catch it.
    std::fstream f(fx.tix_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char b = 0;
    f.seekg(20);
    f.get(b);
    f.seekp(20);
    f.put(static_cast<char>(b ^ 0x5a));
  }
  EXPECT_THROW((void)Catalog::query_vca_interval(
                   fx.vca_path, Timestamp::parse("170728224610"),
                   Timestamp::parse("170728224910")),
               FormatError);
}

}  // namespace
}  // namespace dassa::das
