// Self-tests of the benchmark's own logic: percentile and sample-count
// rules, metric names, the result oracle, and the workload-shape
// assertions on a second seed. Exits 1 on the first failure.
//
//   perfbench_selftest

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runner.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,  \
                   __LINE__, #cond);                               \
      ++failures;                                                  \
    }                                                              \
  } while (0)

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestNearestRank() {
  using perfbench::NearestRank;
  CHECK(NearestRank({}, 50) == 0);
  CHECK(NearestRank({7}, 99) == 7);
  CHECK(NearestRank(Range(100), 50) == 50);
  CHECK(NearestRank(Range(100), 99) == 99);
  CHECK(NearestRank(Range(100), 100) == 100);
  // ceil(0.99 * 1000) = 990 exactly; a float rank would give 991.
  CHECK(NearestRank(Range(1000), 99) == 990);
  CHECK(NearestRank(Range(1001), 99) == 991);
  CHECK(NearestRank(Range(10), 50) == 5);
  CHECK(NearestRank(Range(11), 50) == 6);
}

void TestTenBeyondRule() {
  using perfbench::SamplesBeyond;
  using perfbench::SupportsPercentile;
  CHECK(SamplesBeyond(1000, 99) == 10);
  CHECK(SamplesBeyond(999, 99) == 9);
  CHECK(SamplesBeyond(0, 99) == 0);
  CHECK(SupportsPercentile(1000, 99));
  CHECK(!SupportsPercentile(999, 99));
  CHECK(SupportsPercentile(20, 50));
  CHECK(!SupportsPercentile(19, 50));
}

void TestMetricNames() {
  using perfbench::ValidMetricName;
  CHECK(ValidMetricName("latency_p50_ms"));
  CHECK(ValidMetricName("sql.parse_us"));
  CHECK(ValidMetricName("a-b.c_9"));
  CHECK(!ValidMetricName(""));
  CHECK(!ValidMetricName(".leading_dot"));
  CHECK(!ValidMetricName("has space"));
  CHECK(!ValidMetricName("slash/name"));
  CHECK(!ValidMetricName(std::string(65, 'a')));
}

void TestBagDigest() {
  perfbench::BagDigest a, b, c;
  a.AddRow({"I1", "Sx"});
  a.AddRow({"I2", "Sy"});
  b.AddRow({"I2", "Sy"});
  b.AddRow({"I1", "Sx"});
  CHECK(a.value() == b.value());  // order-independent
  c.AddRow({"I1", "Sx"});
  c.AddRow({"I1", "Sx"});
  c.AddRow({"I2", "Sy"});
  CHECK(c.value() != a.value());  // multiplicity counts
  perfbench::BagDigest d;
  d.AddRow({"I1Sx"});
  perfbench::BagDigest e;
  e.AddRow({"I1", "Sx"});
  CHECK(d.value() != e.value());  // value boundaries count
}

void TestResultJson() {
  std::string json = perfbench::ResultJson(
      true, 10, 0, {{"latency_p50_ms", 1.25, "ms"}, {"qps", 800, "1/s"}});
  CHECK(json ==
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
        "{\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
        "\"qps\": {\"value\": 800, \"unit\": \"1/s\"}}}");
}

// Every metric a run reports has a valid, unique name.
void CheckNames(const perfbench::RunReport& report) {
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    CHECK(perfbench::ValidMetricName(report.metrics[i].name));
    for (size_t j = 0; j < i; ++j) {
      CHECK(report.metrics[i].name != report.metrics[j].name);
    }
  }
}

// A wrong result must count as a failed statement and fail the run.
void TestInjectedWrongResult() {
  perfbench::RunConfig config;
  config.workload = "bound_views";
  config.seed = 3;
  config.seconds = 0.2;
  config.inject_wrong_every = 100;
  perfbench::RunReport report = perfbench::RunBenchmark(config);
  CHECK(!report.correct);
  CHECK(report.attempted >= 1000);
  CHECK(report.failed > 0);
  double error_rate = static_cast<double>(report.failed) /
                      static_cast<double>(report.attempted);
  // One read in 100 is corrupted; every read is paired with an audit write.
  CHECK(error_rate > 0.004 && error_rate < 0.006);

  config.inject_wrong_every = 0;
  report = perfbench::RunBenchmark(config);
  CHECK(report.correct);
  CHECK(report.failed == 0);
  CheckNames(report);
}

// The traced run's shape assertions (and its oracle and determinism
// checks) on a seed other than the default.
void TestShapesOnSecondSeed() {
  for (const std::string& name : perfbench::Workload::Names()) {
    perfbench::RunConfig config;
    config.workload = name;
    config.seed = 2;
    config.seconds = 0.5;
    config.trace = true;
    perfbench::RunReport report = perfbench::RunBenchmark(config);
    for (const std::string& line : report.lines) {
      if (line.rfind("shape ", 0) == 0) {
        std::printf("%s: %s\n", name.c_str(), line.c_str());
      }
    }
    for (const std::string& error : report.errors) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), error.c_str());
    }
    CHECK(report.correct);
    CHECK(report.Find("trace.overhead_ratio") != nullptr);
    CheckNames(report);
  }
}

}  // namespace

int main() {
  TestNearestRank();
  TestTenBeyondRule();
  TestMetricNames();
  TestBagDigest();
  TestResultJson();
  TestInjectedWrongResult();
  TestShapesOnSecondSeed();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
