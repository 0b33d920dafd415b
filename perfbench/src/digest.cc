#include "digest.h"

#include <cstdio>
#include <string>

#include "stats.h"

namespace perfbench {

uint64_t RowsDigest(const std::vector<starmagic::Row>& rows) {
  BagDigest digest;
  std::vector<std::string> canonical;
  for (const starmagic::Row& row : rows) {
    canonical.clear();
    for (const starmagic::Value& v : row) {
      switch (v.kind()) {
        case starmagic::ValueKind::kNull:
          canonical.push_back("N");
          break;
        case starmagic::ValueKind::kBool:
          canonical.push_back(v.bool_value() ? "B1" : "B0");
          break;
        case starmagic::ValueKind::kInt:
          canonical.emplace_back(1, 'I');
          canonical.back() += std::to_string(v.int_value());
          break;
        case starmagic::ValueKind::kDouble: {
          char buf[40];
          std::snprintf(buf, sizeof(buf), "D%.12g", v.double_value() + 0.0);
          canonical.push_back(buf);
          break;
        }
        case starmagic::ValueKind::kString:
          canonical.emplace_back(1, 'S');
          canonical.back() += v.string_value();
          break;
      }
    }
    digest.AddRow(canonical);
  }
  return digest.value();
}

}  // namespace perfbench
