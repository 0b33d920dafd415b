#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

int64_t Rank(int64_t n, int percent) {
  int64_t rank = (static_cast<int64_t>(percent) * n + 99) / 100;
  return std::clamp<int64_t>(rank, 1, std::max<int64_t>(n, 1));
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

double NearestRank(std::vector<double> samples, int percent) {
  if (samples.empty()) return 0;
  int64_t n = static_cast<int64_t>(samples.size());
  size_t index = static_cast<size_t>(Rank(n, percent) - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

int64_t SamplesBeyond(int64_t n, int percent) {
  return n <= 0 ? 0 : n - Rank(n, percent);
}

bool SupportsPercentile(int64_t n, int percent) {
  return SamplesBeyond(n, percent) >= 10;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void BagDigest::AddRow(const std::vector<std::string>& canonical_values) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& v : canonical_values) {
    for (unsigned char c : v) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0x1f;  // value separator
    h *= 0x100000001b3ULL;
  }
  sum_ += Mix(h);
  ++count_;
}

}  // namespace perfbench
