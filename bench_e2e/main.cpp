// The DASSA end-to-end benchmark (README.md in this directory).
//
// Usage: dassa_bench_e2e --workload similarity|interferometry|serve|ingest
//                        --seed N --seconds S --trace 0|1
//
// Prints every metric by name with its unit, then, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1,
// the per-layer ones. Scratch files live under .bench_work/ in the
// working directory and are removed on exit.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "dassa/common/log.hpp"

namespace {

int usage() {
  std::cerr << "usage: dassa_bench_e2e --workload "
               "similarity|interferometry|serve|ingest --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

bool parse(int argc, char** argv, bench::Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  if (!parse(argc, argv, opt)) return usage();
  dassa::set_log_level(dassa::LogLevel::kWarn);
  // Serve's traced phase records every request's spans; keep them all.
  if (opt.trace) dassa::trace::set_ring_capacity(1u << 17);

  bench::Report rep;
  try {
    if (opt.workload == "similarity") {
      rep = bench::run_similarity(opt);
    } else if (opt.workload == "interferometry") {
      rep = bench::run_interferometry(opt);
    } else if (opt.workload == "serve") {
      rep = bench::run_serve(opt);
    } else if (opt.workload == "ingest") {
      rep = bench::run_ingest(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "dassa_bench_e2e: " << opt.workload << ": " << e.what()
              << "\n";
    return 1;
  }

  std::cout << "workload " << opt.workload << ", seed " << opt.seed << ", "
            << (opt.trace ? "traced" : "untraced") << ": attempted "
            << rep.attempted << ", failed " << rep.failed << ", error_rate "
            << (rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                        static_cast<double>(rep.attempted)
                                  : 1.0)
            << "\n";
  std::string metrics;
  for (const bench::Metric& m : rep.metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << "{\"correct\": "
            << (rep.failed == 0 && rep.attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}
