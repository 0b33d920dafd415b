// The end-to-end benchmark: one closed-loop client driving a seeded
// workload through the Database facade. See perfbench/README.md.
//
//   perfbench --workload bound_views --seed 1 --seconds 10 --trace 0
//
// Prints human-readable lines, then one JSON result line; exits 1 on any
// oracle, determinism or workload-shape failure.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH]\nworkloads:");
  for (const std::string& name : perfbench::Workload::Names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (config.workload.empty() || config.seconds <= 0) return Usage();

  perfbench::RunReport report = perfbench::RunBenchmark(config);
  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
  if (!report.correct) {
    std::fprintf(stderr, "FAILED: %s\n", config.workload.c_str());
    return 1;
  }
  std::printf("%s\n",
              perfbench::ResultJson(report.correct, report.attempted,
                                    report.failed, report.metrics)
                  .c_str());
  return 0;
}
