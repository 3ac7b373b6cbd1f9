#ifndef GTADOC_GPU_MEMORY_POOL_H_
#define GTADOC_GPU_MEMORY_POOL_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "gpu/device.h"

namespace gtadoc {
namespace gpu {

/// Sentinel returned by AtomicAlloc when the pool is exhausted.
inline constexpr uint64_t kPoolInvalid = ~0ull;

/// \brief G-TADOC's self-maintained device memory pool (Section IV-C).
///
/// The paper's motivation: per-rule buffer sizes are unknown until runtime
/// and dynamic allocation from thousands of GPU threads is infeasible, so
/// G-TADOC (1) computes each rule's requirement during the initialization
/// traversal, (2) carves per-rule regions from one preallocated slab, and
/// (3) lets kernels bump-allocate nodes atomically (Figure 8's "obtain a new
/// node").
///
/// The slab is an array of uint64 slots; regions are measured in slots.
///
/// Allocation cost model: carving the slab out of device memory is one
/// cudaMalloc-style driver call, charged to the owning device's clock. A
/// batch of documents therefore wants ONE pool, grown to the corpus
/// high-water mark and recycled between runs (EnsureCapacity + ResetForReuse)
/// instead of a cold pool per run.
class MemoryPool {
 public:
  /// Empty pool bound to `device`; nothing is charged until the first
  /// EnsureCapacity growth. This is the batch-reuse entry point.
  explicit MemoryPool(Device* device);
  /// Cold pool with `capacity_slots` slots; charges one device allocation.
  MemoryPool(Device* device, uint64_t capacity_slots);

  uint64_t capacity() const { return slab_.size(); }
  uint64_t used() const { return cursor_.load(std::memory_order_relaxed); }
  /// Number of charged slab (re)allocations over the pool's lifetime: the
  /// cold constructor plus every EnsureCapacity call that actually grew the
  /// slab. Serving front-ends snapshot this around a run to prove the run
  /// triggered zero mid-run growth (the pool was pre-sized from plan
  /// metadata before any document executed).
  uint64_t growth_count() const { return growths_; }

  /// Grows the slab to at least `slots` (charging one device allocation and
  /// dropping all regions); no-op — and no charge — when the current slab
  /// already fits. Returns true when it (re)allocated: the slab is then
  /// already zeroed and needs no ResetForReuse. Growth invalidates
  /// previously planned regions, so callers reuse pools only between runs,
  /// never mid-run.
  bool EnsureCapacity(uint64_t slots);

  /// Returns the pool to its post-construction state for the next run: all
  /// regions dropped and the slab zero-filled (kernels rely on fresh slabs
  /// reading zero), without releasing or re-charging the device allocation.
  void ResetForReuse();

  /// Host-side planning: assigns a contiguous region of sizes[i] slots per
  /// rule, each offset rounded up to `align` slots (a StateLayout's
  /// AlignSlots). Returns the region offsets (exclusive scan of sizes) or
  /// OutOfMemory when the slab cannot fit them. Regions planned this way are
  /// carved before any device-side AtomicAlloc.
  Result<std::vector<uint64_t>> PlanRegions(const std::vector<uint64_t>& sizes,
                                            uint64_t align = 1);

  /// Device-side bump allocation of `slots` consecutive slots; charges one
  /// atomic. Returns kPoolInvalid when exhausted.
  uint64_t AtomicAlloc(ThreadCtx& ctx, uint64_t slots);

  uint64_t* slab() { return slab_.data(); }
  const uint64_t* slab() const { return slab_.data(); }

  uint64_t& at(uint64_t slot) { return slab_[slot]; }
  const uint64_t& at(uint64_t slot) const { return slab_[slot]; }

  /// Drops all regions and device-side allocations.
  void Reset() { cursor_.store(0, std::memory_order_relaxed); }

 private:
  Device* device_;
  DeviceBuffer<uint64_t> slab_;
  std::atomic<uint64_t> cursor_{0};
  uint64_t growths_ = 0;
};

}  // namespace gpu
}  // namespace gtadoc

#endif  // GTADOC_GPU_MEMORY_POOL_H_
