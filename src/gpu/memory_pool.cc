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

bool SlotBudget::FitsLocked(uint64_t slots, const OwnerState& owner) const {
  if (capacity_ > 0 && (slots > capacity_ || in_use_ > capacity_ - slots)) {
    return false;
  }
  if (owner.quota > 0 &&
      (slots > owner.quota || owner.in_use > owner.quota - slots)) {
    return false;
  }
  return true;
}

bool SlotBudget::TryReserve(uint64_t slots, uint64_t owner) {
  std::lock_guard<std::mutex> lock(mu_);
  OwnerState& state = owners_[owner];
  if (!FitsLocked(slots, state)) return false;
  in_use_ += slots;
  if (in_use_ > peak_) peak_ = in_use_;
  state.in_use += slots;
  if (state.in_use > state.peak) state.peak = state.in_use;
  return true;
}

void SlotBudget::Release(uint64_t slots, uint64_t owner) {
  std::lock_guard<std::mutex> lock(mu_);
  in_use_ = slots > in_use_ ? 0 : in_use_ - slots;
  OwnerState& state = owners_[owner];
  state.in_use = slots > state.in_use ? 0 : state.in_use - slots;
}

bool SlotBudget::CanReserve(uint64_t slots, uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owners_.find(owner);
  static const OwnerState kFresh;
  return FitsLocked(slots, it == owners_.end() ? kFresh : it->second);
}

void SlotBudget::SetOwnerQuota(uint64_t owner, uint64_t quota_slots) {
  std::lock_guard<std::mutex> lock(mu_);
  owners_[owner].quota = quota_slots;
}

uint64_t SlotBudget::owner_quota(uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.quota;
}

uint64_t SlotBudget::owner_in_use(uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.in_use;
}

uint64_t SlotBudget::owner_peak_in_use(uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.peak;
}

uint64_t SlotBudget::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

uint64_t SlotBudget::peak_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

SlotBudgetGroup::SlotBudgetGroup(std::vector<SlotBudget*> members)
    : members_(std::move(members)) {}

bool SlotBudgetGroup::TryReserve(const std::vector<uint64_t>& slots,
                                 uint64_t owner) {
  if (slots.size() != members_.size()) return false;
  uint64_t total = 0;
  for (uint64_t s : slots) total += s;

  // The group lock makes the owner-quota check atomic with the member
  // acquisitions: two racing group reservations cannot both pass a quota
  // only one of them fits under.
  std::lock_guard<std::mutex> lock(mu_);
  OwnerState& state = owners_[owner];
  if (state.quota > 0 &&
      (total > state.quota || state.in_use > state.quota - total)) {
    return false;
  }
  // Acquire members in index order — the fixed global order that makes
  // interleaved group reservations deadlock-free — rolling back everything
  // on the first refusal so the group is never partially held.
  for (size_t i = 0; i < members_.size(); ++i) {
    if (slots[i] == 0) continue;
    if (!members_[i]->TryReserve(slots[i], owner)) {
      for (size_t j = 0; j < i; ++j) {
        if (slots[j] > 0) members_[j]->Release(slots[j], owner);
      }
      return false;
    }
  }
  state.in_use += total;
  if (state.in_use > state.peak) state.peak = state.in_use;
  in_use_ += total;
  if (in_use_ > peak_) peak_ = in_use_;
  return true;
}

void SlotBudgetGroup::Release(const std::vector<uint64_t>& slots,
                              uint64_t owner) {
  for (size_t i = 0; i < members_.size() && i < slots.size(); ++i) {
    if (slots[i] > 0) ReleaseOn(i, slots[i], owner);
  }
}

void SlotBudgetGroup::ReleaseOn(size_t index, uint64_t slots,
                                uint64_t owner) {
  if (index >= members_.size()) return;
  // Group lock first, then the member — TryReserve's lock order. Releasing
  // the member outside the group lock would let a racing TryReserve take
  // the freed slots while in_use_ still counts them, overstating the
  // group's in_use/peak.
  std::lock_guard<std::mutex> lock(mu_);
  members_[index]->Release(slots, owner);
  in_use_ = slots > in_use_ ? 0 : in_use_ - slots;
  OwnerState& state = owners_[owner];
  state.in_use = slots > state.in_use ? 0 : state.in_use - slots;
}

bool SlotBudgetGroup::CanReserve(const std::vector<uint64_t>& slots,
                                 uint64_t owner) const {
  if (slots.size() != members_.size()) return false;
  uint64_t total = 0;
  for (uint64_t s : slots) total += s;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owners_.find(owner);
  if (it != owners_.end() && it->second.quota > 0 &&
      (total > it->second.quota ||
       it->second.in_use > it->second.quota - total)) {
    return false;
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    if (slots[i] > 0 && !members_[i]->CanReserve(slots[i], owner)) {
      return false;
    }
  }
  return true;
}

void SlotBudgetGroup::SetOwnerQuota(uint64_t owner, uint64_t quota_slots) {
  std::lock_guard<std::mutex> lock(mu_);
  owners_[owner].quota = quota_slots;
}

uint64_t SlotBudgetGroup::owner_quota(uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.quota;
}

uint64_t SlotBudgetGroup::owner_in_use(uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.in_use;
}

uint64_t SlotBudgetGroup::owner_peak_in_use(uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.peak;
}

uint64_t SlotBudgetGroup::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

uint64_t SlotBudgetGroup::peak_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

}  // namespace gpu
}  // namespace gtadoc
