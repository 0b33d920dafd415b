#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>
#include <vector>

#include "catalog/table.h"
#include "common/row.h"

namespace perfbench {

/// Order-independent digest of a bag of engine rows (see BagDigest).
uint64_t RowsDigest(const std::vector<starmagic::Row>& rows);
inline uint64_t TableDigest(const starmagic::Table& table) {
  return RowsDigest(table.rows());
}

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
