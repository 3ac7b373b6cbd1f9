#include "gpu/memory_pool.h"

namespace gtadoc {
namespace gpu {

MemoryPool::MemoryPool(Device* device) : device_(device) {}

MemoryPool::MemoryPool(Device* device, uint64_t capacity_slots)
    : device_(device), slab_(device, capacity_slots, 0ull) {
  if (capacity_slots > 0) {
    device_->ChargeDeviceAlloc();
    ++growths_;
  }
}

bool MemoryPool::EnsureCapacity(uint64_t slots) {
  if (slots <= capacity()) return false;
  device_->ChargeDeviceAlloc();
  ++growths_;
  slab_ = DeviceBuffer<uint64_t>(device_, slots, 0ull);
  Reset();
  return true;
}

void MemoryPool::ResetForReuse() {
  Reset();
  slab_.Fill(0);
}

Result<std::vector<uint64_t>> MemoryPool::PlanRegions(
    const std::vector<uint64_t>& sizes, uint64_t align) {
  std::vector<uint64_t> offsets(sizes.size());
  uint64_t cursor = cursor_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (align > 1) cursor = (cursor + align - 1) / align * align;
    offsets[i] = cursor;
    cursor += sizes[i];
  }
  if (cursor > capacity()) {
    return Status::OutOfMemory(
        "memory pool needs " + std::to_string(cursor) + " slots, has " +
        std::to_string(capacity()));
  }
  cursor_.store(cursor, std::memory_order_relaxed);
  return offsets;
}

uint64_t MemoryPool::AtomicAlloc(ThreadCtx& ctx, uint64_t slots) {
  ctx.ChargeAtomic();
  const uint64_t off = cursor_.fetch_add(slots, std::memory_order_relaxed);
  if (off + slots > capacity()) {
    // Roll back so repeated failures do not overflow the cursor.
    cursor_.fetch_sub(slots, std::memory_order_relaxed);
    return kPoolInvalid;
  }
  return off;
}

}  // namespace gpu
}  // namespace gtadoc
