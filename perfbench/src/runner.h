#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured statement time the timed loop runs for (it also runs until
  /// at least 1000 reads and 1000 writes are measured, so each p99 has ten
  /// samples beyond it).
  double seconds = 15;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its Chrome trace (empty: not written).
  std::string trace_path;
  /// Self-test hook: every Nth checked read result is treated as if the
  /// engine had returned one row fewer. 0 = off.
  int64_t inject_wrong_every = 0;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> lines;
  /// Oracle, determinism, shape or set-up failures; any makes the run
  /// incorrect.
  std::vector<std::string> errors;

  const Metric* Find(const std::string& name) const;
};

/// Runs one workload end to end: set-up (several times), the determinism
/// prefix on every set-up database, the closed-loop timed run, and — when
/// traced — the traced pass with its per-layer breakdown and shape
/// assertions.
RunReport RunBenchmark(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
