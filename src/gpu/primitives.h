#ifndef GTADOC_GPU_PRIMITIVES_H_
#define GTADOC_GPU_PRIMITIVES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "gpu/device.h"

namespace gtadoc {
namespace gpu {

/// \brief Blocked exclusive prefix sum on the virtual GPU.
///
/// Two kernel rounds (per-block reduce, then per-block rescan with host-side
/// scan of the tiny block-sum array in between), the standard CUDA scheme.
/// Returns the grand total. Used by the root file-boundary scan and the
/// scheduler's thread-assignment offsets.
uint64_t DeviceExclusiveScan(Device* device, const std::vector<uint64_t>& in,
                             std::vector<uint64_t>* out);

/// Charges exactly what DeviceExclusiveScan charges over `n` elements (the
/// same launches, threads and per-thread ops) without scanning anything:
/// for callers that already hold the scan's output.
void ChargeExclusiveScan(Device* device, size_t n);

/// \brief Parallel bottom-up merge sort of (key, value) pairs by key (stable,
/// ascending). log2(n) kernel rounds; round k merges runs of width 2^k, one
/// logical thread per output run. Used by the `sort` analytics task and the
/// ranked-inverted-index final ordering.
void DeviceSortPairs(Device* device,
                     std::vector<std::pair<uint64_t, uint64_t>>* pairs);

}  // namespace gpu
}  // namespace gtadoc

#endif  // GTADOC_GPU_PRIMITIVES_H_
