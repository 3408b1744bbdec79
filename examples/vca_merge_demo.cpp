// Storage-engine tour: search, VCA vs RCA, LAV subsetting, and the
// three parallel read strategies (paper Sections IV and IV-B).
//
// Demonstrates, with numbers printed at each step:
//   * das_search range + regex queries over an acquisition,
//   * VCA construction touching only metadata vs RCA reading all data
//     (Table I / Fig. 6 asymmetry),
//   * an LAV selecting a channel subset of the VCA (Fig. 3),
//   * reading the VCA with collective-per-file vs communication-
//     avoiding, reporting wall time, broadcasts, and modeled time
//     (Fig. 5 / Fig. 7).
#include <filesystem>
#include <iostream>

#include "dassa/common/counters.hpp"
#include "dassa/common/timer.hpp"
#include "dassa/das/search.hpp"
#include "dassa/das/synth.hpp"
#include "dassa/io/par_read.hpp"
#include "dassa/mpi/runtime.hpp"

int main() {
  using namespace dassa;
  const std::string dir = "merge_demo_data";
  // Start clean: the merged RCA written below carries the acquisition's
  // timestamp, so a rerun's catalog scan would take it for a member.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const das::SynthDas synth = das::SynthDas::fig1b_scene(64, 100.0);
  das::AcquisitionSpec spec;
  spec.dir = dir;
  spec.start = das::Timestamp::parse("170728224510");
  spec.file_count = 8;
  spec.seconds_per_file = 2.0;
  das::write_acquisition(synth, spec);

  // --- search ---------------------------------------------------------
  WallTimer timer;
  const das::Catalog catalog = das::Catalog::scan(dir);
  std::cout << "scanned " << catalog.size() << " files in " << timer.seconds()
            << " s\n";
  const auto range_hits =
      catalog.query_range(das::Timestamp::parse("170728224512"), 6);
  const auto regex_hits = catalog.query_regex("1707282245(1[24]|20)");
  std::cout << "range query -> " << range_hits.size()
            << " files, regex query -> " << regex_hits.size() << " files\n";

  // --- VCA vs RCA (Table I) ---------------------------------------------
  const auto paths = das::Catalog::paths(range_hits);
  global_counters().reset();
  timer.reset();
  io::Vca vca = io::Vca::build(paths);
  vca.save(dir + "/merged.vca");
  const double vca_seconds = timer.seconds();
  const auto vca_bytes = global_counters().get(counters::kIoReadBytes);

  global_counters().reset();
  const io::RcaBuildStats rca = io::rca_create(paths, dir + "/merged.dh5");
  std::cout << "VCA build: " << vca_seconds << " s, " << vca_bytes
            << " bytes read (metadata only)\n"
            << "RCA build: " << rca.seconds << " s, " << rca.bytes_read
            << " bytes read, " << rca.bytes_written << " bytes written\n"
            << "RCA/VCA construction ratio: " << rca.seconds / vca_seconds
            << "x\n";

  // --- LAV (Fig. 3) ------------------------------------------------------
  auto shared_vca = std::make_shared<io::Vca>(vca);
  io::Lav lav(shared_vca, Slab2D{16, 100, 8, 200});
  const std::vector<double> subset = lav.read_all();
  std::cout << "LAV " << lav.shape() << " subset read, first value "
            << subset.front() << "\n";

  // --- parallel read strategies (Fig. 5 / Fig. 7) -------------------------
  const int ranks = 4;
  struct Strategy {
    const char* name;
    io::ParallelReadResult (*fn)(mpi::Comm&, const io::Vca&,
                                 const io::IoCostParams&, io::RowHalo);
  };
  for (const Strategy s :
       {Strategy{"collective-per-file", io::read_vca_collective_per_file},
        Strategy{"communication-avoiding", io::read_vca_comm_avoiding},
        Strategy{"direct-per-rank", io::read_vca_direct_per_rank}}) {
    global_counters().reset();
    timer.reset();
    const mpi::RunReport report =
        mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
          (void)s.fn(comm, vca, io::IoCostParams{}, io::RowHalo{});
        });
    std::cout << s.name << ": wall " << timer.seconds() << " s, broadcasts "
              << global_counters().get(counters::kMpiBcasts)
              << ", p2p messages " << report.aggregate().p2p_sends
              << ", read calls "
              << global_counters().get(counters::kIoReadCalls)
              << ", modeled " << report.aggregate().modeled_seconds << " s\n";
  }
  return 0;
}
