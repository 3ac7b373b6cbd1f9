#include "gpu/hash_table.h"

#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"

namespace gtadoc {
namespace gpu {

namespace {
uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

GpuHashTable::GpuHashTable(Device* device, const Options& options)
    : mode_(options.lock_mode),
      locks_(device, RoundUpPow2(options.num_entries)),
      entries_(device, RoundUpPow2(options.num_entries)),
      keys_(device, options.max_nodes, 0ull),
      values_(device, options.max_nodes),
      next_(device, options.max_nodes) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].store(-1, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < next_.size(); ++i) {
    next_[i].store(-1, std::memory_order_relaxed);
  }
}

uint32_t GpuHashTable::Bucket(uint64_t key) const {
  return static_cast<uint32_t>(Mix64(key) &
                               (static_cast<uint64_t>(entries_.size()) - 1));
}

void GpuHashTable::InjectLockFailures(uint64_t key, uint32_t fail_count) {
  inject_key_.store(key, std::memory_order_relaxed);
  inject_remaining_.store(fail_count, std::memory_order_relaxed);
}

bool GpuHashTable::TryLock(ThreadCtx& ctx, uint32_t bucket, uint64_t key) {
  if (mode_ == LockMode::kGlobalLock) {
    ctx.ChargeSerializedAtomic();  // every inserter hits one lock word
  } else {
    ctx.ChargeAtomic();
  }
  if (inject_remaining_.load(std::memory_order_relaxed) > 0 &&
      inject_key_.load(std::memory_order_relaxed) == key) {
    uint32_t cur = inject_remaining_.load(std::memory_order_relaxed);
    while (cur > 0 && !inject_remaining_.compare_exchange_weak(cur, cur - 1)) {
    }
    if (cur > 0) return false;  // injected failure consumed
  }
  std::atomic<uint32_t>& lock =
      mode_ == LockMode::kGlobalLock ? global_lock_ : locks_[bucket];
  uint32_t expected = 0;
  return lock.compare_exchange_strong(expected, 1, std::memory_order_acquire);
}

void GpuHashTable::Unlock(uint32_t bucket) {
  std::atomic<uint32_t>& lock =
      mode_ == LockMode::kGlobalLock ? global_lock_ : locks_[bucket];
  lock.store(0, std::memory_order_release);
}

int32_t GpuHashTable::FindNode(ThreadCtx& ctx, uint32_t bucket,
                               uint64_t key) const {
  int32_t node = entries_[bucket].load(std::memory_order_acquire);
  while (node >= 0) {
    ctx.Charge(1);
    if (keys_[node] == key) return node;
    node = next_[node].load(std::memory_order_acquire);
  }
  return -1;
}

InsertOutcome GpuHashTable::AddOrInsert(ThreadCtx& ctx, uint64_t key,
                                        uint64_t delta) {
  const uint32_t bucket = Bucket(key);
  ctx.Charge(2);  // hash + bucket read

  // Fast path: the key already exists; a plain atomicAdd suffices (Figure 8).
  int32_t node = FindNode(ctx, bucket, key);
  if (node >= 0) {
    ctx.ChargeAtomic();
    values_[node].fetch_add(delta, std::memory_order_relaxed);
    return InsertOutcome::kDone;
  }

  if (mode_ == LockMode::kAtomicOnly) {
    // Lock-free head push. Two threads racing on the same fresh key may both
    // insert a node; Drain() aggregates duplicates, so sums stay correct.
    const uint32_t n = node_cursor_.fetch_add(1, std::memory_order_relaxed);
    ctx.ChargeAtomic();
    if (n >= keys_.size()) {
      node_cursor_.fetch_sub(1, std::memory_order_relaxed);
      return InsertOutcome::kTableFull;
    }
    keys_[n] = key;
    values_[n].store(delta, std::memory_order_relaxed);
    int32_t head = entries_[bucket].load(std::memory_order_relaxed);
    do {
      next_[n].store(head, std::memory_order_relaxed);
      ctx.ChargeAtomic();
    } while (!entries_[bucket].compare_exchange_weak(
        head, static_cast<int32_t>(n), std::memory_order_release,
        std::memory_order_relaxed));
    return InsertOutcome::kDone;
  }

  // Slow path: take the entry lock; if busy, defer to the next round.
  if (!TryLock(ctx, bucket, key)) return InsertOutcome::kRetry;

  // Re-verify under the lock: another thread may have inserted `key` between
  // our chain walk and the lock acquisition.
  node = FindNode(ctx, bucket, key);
  if (node >= 0) {
    Unlock(bucket);
    ctx.ChargeAtomic();
    values_[node].fetch_add(delta, std::memory_order_relaxed);
    return InsertOutcome::kDone;
  }

  const uint32_t n = node_cursor_.fetch_add(1, std::memory_order_relaxed);
  ctx.ChargeAtomic();
  if (n >= keys_.size()) {
    node_cursor_.fetch_sub(1, std::memory_order_relaxed);
    Unlock(bucket);
    return InsertOutcome::kTableFull;
  }
  keys_[n] = key;
  values_[n].store(delta, std::memory_order_relaxed);
  next_[n].store(entries_[bucket].load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  entries_[bucket].store(static_cast<int32_t>(n), std::memory_order_release);
  ctx.Charge(4);  // node initialization stores
  Unlock(bucket);
  return InsertOutcome::kDone;
}

uint64_t GpuHashTable::Lookup(uint64_t key) const {
  const uint32_t bucket = Bucket(key);
  uint64_t total = 0;
  int32_t node = entries_[bucket].load(std::memory_order_acquire);
  while (node >= 0) {
    if (keys_[node] == key) total += values_[node].load(std::memory_order_relaxed);
    node = next_[node].load(std::memory_order_acquire);
  }
  return total;
}

std::vector<std::pair<uint64_t, uint64_t>> GpuHashTable::Drain() const {
  const uint32_t used =
      std::min<uint32_t>(node_cursor_.load(std::memory_order_relaxed),
                         static_cast<uint32_t>(keys_.size()));
  std::vector<std::pair<uint64_t, uint64_t>> out;
  if (mode_ != LockMode::kAtomicOnly) {
    // Locked inserts leave one node per key: copy the nodes in node order.
    out.resize(used);
    for (uint32_t i = 0; i < used; ++i) {
      out[i] = {keys_[i], values_[i].load(std::memory_order_relaxed)};
    }
    return out;
  }
  std::unordered_map<uint64_t, uint64_t> agg;
  agg.reserve(used);
  for (uint32_t i = 0; i < used; ++i) {
    agg[keys_[i]] += values_[i].load(std::memory_order_relaxed);
  }
  out.reserve(agg.size());
  for (const auto& kv : agg) out.push_back(kv);
  return out;
}

}  // namespace gpu
}  // namespace gtadoc
