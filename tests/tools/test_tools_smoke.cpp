// Smoke tests for the CLI tools: run each binary end-to-end against a
// generated acquisition and check exit codes and observable outputs.
// The tool binaries are located relative to this test executable
// (build/tests/... -> build/tools/...).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "dassa/common/telemetry.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa {
namespace {

using testing::TmpDir;

std::string tools_dir() {
  // CMake binary layout: <build>/tests/<test>, <build>/tools/<tool>.
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe");
  return (self.parent_path().parent_path() / "tools").string();
}

int run(const std::string& cmd) {
  const int status = std::system((cmd + " > /dev/null 2>&1").c_str());
  return WEXITSTATUS(status);
}

class ToolsSmokeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TmpDir("tools");
    ASSERT_EQ(run(tools_dir() + "/das_generate --dir " + dir_->str() +
                  " --channels 16 --rate 20 --files 4 "
                  "--seconds-per-file 2 --start 170728224510"),
              0);
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }
  static TmpDir* dir_;
};

TmpDir* ToolsSmokeTest::dir_ = nullptr;

TEST_F(ToolsSmokeTest, GenerateProducedReadableFiles) {
  std::size_t count = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_->str())) {
    if (e.path().extension() != ".dh5") continue;
    ++count;
    io::Dash5File f(e.path().string());
    EXPECT_EQ(f.shape(), (Shape2D{16, 40}));
  }
  EXPECT_EQ(count, 4u);
}

TEST_F(ToolsSmokeTest, SearchRangeAndRegexExitCodes) {
  const std::string bin = tools_dir() + "/das_search --dir " + dir_->str();
  EXPECT_EQ(run(bin + " -s 170728224510 -c 2"), 0);
  EXPECT_EQ(run(bin + " -e '1707282245[01][02]'"), 0);
  EXPECT_EQ(run(tools_dir() + "/das_search --dir " + dir_->str()), 2);  // no query
}

TEST_F(ToolsSmokeTest, SearchSavesLoadableVcaAndRca) {
  const std::string vca_path = dir_->file("merged.vca");
  const std::string rca_path = dir_->file("merged.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_search --dir " + dir_->str() +
                " -s 170728224510 -c 4 --save-vca " + vca_path +
                " --save-rca " + rca_path),
            0);
  io::Vca vca = io::Vca::load(vca_path);
  EXPECT_EQ(vca.shape(), (Shape2D{16, 160}));
  io::Dash5File rca(rca_path);
  EXPECT_EQ(rca.shape(), (Shape2D{16, 160}));
  EXPECT_EQ(vca.read_all(), rca.read_all());
}

TEST_F(ToolsSmokeTest, InfoRunsOnBothFormats) {
  ASSERT_EQ(run(tools_dir() + "/das_search --dir " + dir_->str() +
                " -s 170728224510 -c 4 --save-vca " + dir_->file("i.vca")),
            0);
  std::string first;
  for (const auto& e : std::filesystem::directory_iterator(dir_->str())) {
    if (e.path().extension() == ".dh5") {
      first = e.path().string();
      break;
    }
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(run(tools_dir() + "/das_info " + first), 0);
  EXPECT_EQ(run(tools_dir() + "/das_info " + dir_->file("i.vca")), 0);
  EXPECT_EQ(run(tools_dir() + "/das_info /nonexistent.dh5"), 1);
}

TEST_F(ToolsSmokeTest, AnalyzeSimilarityWritesOutput) {
  const std::string out = dir_->file("sim_out.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline similarity --window-half 4 --lag-half 2 "
                "--nodes 2 --cores 2 --out " + out),
            0);
  io::Dash5File f(out);
  EXPECT_EQ(f.shape(), (Shape2D{16, 160}));
}

TEST_F(ToolsSmokeTest, AnalyzeInterferometryWritesOutput) {
  const std::string out = dir_->file("intf_out.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline interferometry --band-lo 1 --band-hi 8 "
                "--resample-down 2 --out " + out),
            0);
  io::Dash5File f(out);
  EXPECT_EQ(f.shape(), (Shape2D{16, 1}));
}

TEST_F(ToolsSmokeTest, RepackCompressesAndVerifiesRoundtrip) {
  std::string first;
  for (const auto& e : std::filesystem::directory_iterator(dir_->str())) {
    if (e.path().extension() == ".dh5") {
      first = e.path().string();
      break;
    }
  }
  ASSERT_FALSE(first.empty());
  const std::string v3 = dir_->file("repacked_v3.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_repack " + first + " " + v3 +
                " --codec shuffle+lz --chunk 4x16 --verify"),
            0);
  io::Dash5File f(v3);
  EXPECT_EQ(f.version(), 3);
  EXPECT_EQ(f.codec().str(), "shuffle+lz");
  EXPECT_EQ(f.chunk(), (io::ChunkShape{4, 16}));
  EXPECT_EQ(f.read_all(), io::Dash5File(first).read_all());

  // And back to a plain contiguous v2 file, still bit-exact.
  const std::string back = dir_->file("repacked_back.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_repack " + v3 + " " + back +
                " --contiguous --verify"),
            0);
  io::Dash5File b(back);
  EXPECT_EQ(b.version(), 2);
  EXPECT_EQ(b.layout(), io::Layout::kContiguous);
  EXPECT_EQ(b.read_all(), f.read_all());
  EXPECT_EQ(run(tools_dir() + "/das_info " + v3), 0);
}

TEST_F(ToolsSmokeTest, RepackRejectsBadInvocations) {
  EXPECT_EQ(run(tools_dir() + "/das_repack only_one_arg.dh5"), 2);
  const std::string out = dir_->file("never.dh5");
  std::string first;
  for (const auto& e : std::filesystem::directory_iterator(dir_->str())) {
    if (e.path().extension() == ".dh5") {
      first = e.path().string();
      break;
    }
  }
  // --contiguous cannot carry a codec chain.
  EXPECT_EQ(run(tools_dir() + "/das_repack " + first + " " + out +
                " --contiguous --codec lz"),
            1);
  EXPECT_EQ(run(tools_dir() + "/das_repack " + first + " " + out +
                " --codec nonsense"),
            1);
  EXPECT_EQ(run(tools_dir() + "/das_repack " + first + " " + out +
                " --chunk 4by16"),
            1);
}

TEST_F(ToolsSmokeTest, GenerateWithCodecEmitsReadableV3Files) {
  TmpDir v3dir("tools_v3gen");
  ASSERT_EQ(run(tools_dir() + "/das_generate --dir " + v3dir.str() +
                " --channels 8 --rate 50 --files 1 --seconds-per-file 2 "
                "--start 170728224510 --codec shuffle+lz --chunk 4x32 "
                "--quantize 0.0078125"),
            0);
  std::size_t count = 0;
  for (const auto& e : std::filesystem::directory_iterator(v3dir.str())) {
    if (e.path().extension() != ".dh5") continue;
    ++count;
    io::Dash5File f(e.path().string());
    EXPECT_EQ(f.version(), 3);
    EXPECT_EQ(f.shape(), (Shape2D{8, 100}));
    EXPECT_EQ(f.codec().str(), "shuffle+lz");
    EXPECT_EQ(f.read_all().size(), 800u);
  }
  EXPECT_EQ(count, 1u);
}

TEST_F(ToolsSmokeTest, AnalyzeTelemetryProducesValidHealthFile) {
  // The acceptance run: >= 4 ranks, telemetry JSONL out, then the file
  // must round-trip through the in-process schema validator and its
  // aggregate rows must exactly equal the per-rank totals.
  const std::string tele = dir_->file("run.telemetry.jsonl");
  ASSERT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline similarity --window-half 4 --lag-half 2 "
                "--nodes 4 --cores 2 --telemetry " + tele +
                " --telemetry-period-ms 5 --out " +
                dir_->file("tele_out.dh5")),
            0);

  std::ifstream in(tele);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const telemetry::TelemetryFile file =
      telemetry::parse_telemetry_jsonl(text.str());
  telemetry::validate_telemetry_file(file);

  EXPECT_EQ(file.meta.at("schema"), telemetry::kSchemaVersion);
  EXPECT_EQ(file.meta.at("tool"), "das_analyze");
  EXPECT_EQ(file.meta.at("world_size"), "4");
  ASSERT_EQ(file.ranks.size(), 4u);
  ASSERT_FALSE(file.samples.empty());
  ASSERT_FALSE(file.stages.empty());
  ASSERT_FALSE(file.aggs.empty());

  // Cross-check every aggregate against the per-rank records (the
  // validator did too -- this spells the acceptance criterion out).
  for (const telemetry::AggRecord& agg : file.aggs) {
    std::uint64_t sum = 0;
    for (const telemetry::RankRecord& r : file.ranks) {
      const auto it = r.counters.find(agg.counter);
      if (it != r.counters.end()) sum += it->second;
    }
    EXPECT_EQ(agg.sum, sum) << agg.counter;
    EXPECT_GE(agg.imbalance, 1.0) << agg.counter;
  }
  bool saw_rows = false;
  for (const telemetry::AggRecord& agg : file.aggs) {
    if (agg.counter == "haee.rows_owned") {
      saw_rows = true;
      EXPECT_EQ(agg.sum, 16u);  // every channel owned exactly once
    }
  }
  EXPECT_TRUE(saw_rows);

  // Merged stage histogram: per-rank clocks, bucket sum == count.
  ASSERT_FALSE(file.hists.empty());
  for (const telemetry::HistRecord& h : file.hists) {
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t b : h.buckets) bucket_sum += b;
    EXPECT_EQ(bucket_sum, h.count) << h.name;
  }

  // das_health accepts the same file, both modes.
  EXPECT_EQ(run(tools_dir() + "/das_health " + tele + " --validate-only"),
            0);
  EXPECT_EQ(run(tools_dir() + "/das_health " + tele), 0);
  EXPECT_EQ(run(tools_dir() + "/das_health " + dir_->file("absent.jsonl")),
            1);
  EXPECT_EQ(run(tools_dir() + "/das_health"), 2);

  // Corrupt one aggregate: das_health must now reject the file.
  std::string doctored = text.str();
  const std::string needle = "\"type\":\"agg\",\"counter\":\"haee.rows_owned\",\"sum\":16";
  const std::size_t at = doctored.find(needle);
  ASSERT_NE(at, std::string::npos);
  doctored.replace(at, needle.size(),
                   "\"type\":\"agg\",\"counter\":\"haee.rows_owned\",\"sum\":17");
  const std::string bad = dir_->file("bad.telemetry.jsonl");
  {
    std::ofstream out(bad);
    out << doctored;
  }
  EXPECT_EQ(run(tools_dir() + "/das_health " + bad + " --validate-only"),
            1);
}

TEST_F(ToolsSmokeTest, AnalyzeRejectsUnknownPipeline) {
  EXPECT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline nonsense"),
            2);
}

TEST_F(ToolsSmokeTest, AnalyzeRequiresExplicitOut) {
  // No silent CWD artifact: an analysis pipeline without --out/-o is a
  // usage error, and nothing is written anywhere.
  EXPECT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline similarity --window-half 4 --lag-half 2"),
            2);
  EXPECT_FALSE(std::filesystem::exists("das_analyze_out.dh5"));
  // qc prints to stdout and legitimately needs no output path.
  EXPECT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline qc"),
            0);
}

TEST_F(ToolsSmokeTest, GenerateStreamDeliversWholeFiles) {
  // --stream stages each file and renames it into the spool, so a
  // watcher never sees a half-written acquisition; the staging area
  // must be gone afterwards.
  TmpDir spool("tools_stream");
  ASSERT_EQ(run(tools_dir() + "/das_generate --dir " + spool.str() +
                " --channels 8 --rate 20 --files 3 --seconds-per-file 2 "
                "--start 170728224510 --stream"),
            0);
  EXPECT_FALSE(std::filesystem::exists(spool.str() + "/.staging"));
  std::size_t count = 0;
  for (const auto& e : std::filesystem::directory_iterator(spool.str())) {
    if (e.path().extension() != ".dh5") continue;
    ++count;
    io::Dash5File f(e.path().string());
    EXPECT_EQ(f.shape(), (Shape2D{8, 40}));
  }
  EXPECT_EQ(count, 3u);
}

TEST_F(ToolsSmokeTest, IngestOnceMatchesAnalyzeByteForByte) {
  // The streaming acceptance criterion, end to end through the CLIs:
  // das_ingest --once over a spool must write the same container, byte
  // for byte, as the offline das_analyze run over the same directory.
  // 80-column files: the one-file overlap must cover twice the
  // similarity margin, 2 x (M + L + B - 1) = 2 x 37 columns.
  TmpDir spool("tools_ingest");
  ASSERT_EQ(run(tools_dir() + "/das_generate --dir " + spool.str() +
                " --channels 12 --rate 40 --files 5 --seconds-per-file 2 "
                "--start 170728224510"),
            0);
  // Outputs go to a separate directory so the offline catalog scan
  // sees only the original acquisition files.
  TmpDir outdir("tools_ingest_out");
  const std::string streamed = outdir.file("streamed.dh5");
  const std::string offline = outdir.file("offline.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_ingest --spool " + spool.str() +
                " --out " + streamed +
                " --once --window 3 --overlap 1 --window-half 4 "
                "--lag-half 2 --nodes 2 --cores 2"),
            0);
  ASSERT_EQ(run(tools_dir() + "/das_analyze --dir " + spool.str() +
                " --pipeline similarity --window-half 4 --lag-half 2 "
                "--nodes 2 --cores 2 --out " + offline),
            0);
  std::ifstream a(streamed, std::ios::binary);
  std::ifstream b(offline, std::ios::binary);
  ASSERT_TRUE(a.good());
  ASSERT_TRUE(b.good());
  std::ostringstream abuf, bbuf;
  abuf << a.rdbuf();
  bbuf << b.rdbuf();
  EXPECT_EQ(abuf.str(), bbuf.str());
  EXPECT_GT(abuf.str().size(), 0u);
}

TEST_F(ToolsSmokeTest, IngestRequiresSpoolAndOut) {
  EXPECT_EQ(run(tools_dir() + "/das_ingest --out x.dh5 --once"), 2);
  EXPECT_EQ(run(tools_dir() + "/das_ingest --spool /tmp --once"), 2);
}

}  // namespace
}  // namespace dassa
