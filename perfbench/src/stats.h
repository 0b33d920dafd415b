#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n) of
/// the sorted samples. `percent` is a whole number in [1, 100] so the rank
/// is computed in integers (no float rounding at exact boundaries).
/// Returns 0 for an empty sample.
double NearestRank(std::vector<double> samples, int percent);

/// Samples strictly above the nearest-rank position of `percent` in a
/// sample of `n`: n - ceil(percent/100 * n).
int64_t SamplesBeyond(int64_t n, int percent);

/// The ten-beyond rule: a percentile is reported only when at least ten
/// samples lie beyond it (p99 needs n >= 1000).
bool SupportsPercentile(int64_t n, int percent);

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool ValidMetricName(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Values keep all their digits (%.17g).
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// Order-independent digest of a bag of rows: the wrapping sum of a
/// 64-bit hash per row. Doubles are hashed at 12 significant digits so two
/// strategies summing the same values in a different order still agree.
class BagDigest {
 public:
  void AddRow(const std::vector<std::string>& canonical_values);
  uint64_t value() const { return sum_ ^ (count_ * 0x9e3779b97f4a7c15ULL); }
  uint64_t rows() const { return count_; }

 private:
  uint64_t sum_ = 0;
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
