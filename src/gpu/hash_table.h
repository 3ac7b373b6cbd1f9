#ifndef GTADOC_GPU_HASH_TABLE_H_
#define GTADOC_GPU_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "gpu/device.h"

namespace gtadoc {
namespace gpu {

/// Locking strategy; kPerEntryTryLock is the paper's design (Figure 5/8),
/// the others exist for the ablation benchmark.
enum class LockMode {
  kPerEntryTryLock,  ///< one lock word per entry; busy -> retry next round
  kGlobalLock,       ///< a single lock word for the whole table
  kAtomicOnly,       ///< lock-free CAS head push (may duplicate nodes)
};

/// Outcome of one insert attempt under the round-based protocol.
enum class InsertOutcome {
  kDone,      ///< value added (existing key or fresh node)
  kRetry,     ///< entry lock busy; caller must retry next kernel round
  kTableFull  ///< node pool exhausted (configuration error)
};

/// \brief The paper's thread-safe GPU hash table (Figure 5).
///
/// Five parallel arrays: `locks` (one per entry), `entries` (head node index
/// per bucket, -1 empty), and per-node `keys` / `values` / `next`. Value
/// updates on an existing key use a plain atomicAdd; inserting a new node
/// takes the entry's try-lock, re-verifies the key under the lock (another
/// thread may have inserted it meanwhile), then pushes a node at the chain
/// head. A busy lock is *not* waited on: the attempt reports kRetry and the
/// host relaunches the kernel — Figure 8's stop-flag protocol, which is what
/// makes kernels deadlock-free and schedule-independent.
///
/// Keys are uint64; engines pack (file_id << 32 | word_id) style composites.
class GpuHashTable {
 public:
  struct Options {
    uint32_t num_entries = 1024;  ///< bucket count (rounded up to power of 2)
    uint32_t max_nodes = 4096;    ///< node pool capacity
    LockMode lock_mode = LockMode::kPerEntryTryLock;
  };

  GpuHashTable(Device* device, const Options& options);

  /// Adds `delta` to `key`'s value, inserting the key if absent.
  InsertOutcome AddOrInsert(ThreadCtx& ctx, uint64_t key, uint64_t delta);

  /// Reads a key's value (0 when absent). Host-side helper for tests.
  uint64_t Lookup(uint64_t key) const;

  /// Drains all (key, value) pairs, one per key. Under the locking modes
  /// every key has one node and the pairs come out in node order (the order
  /// of first insertion). kAtomicOnly can leave two nodes for one key; its
  /// drain sums them, in no particular order.
  std::vector<std::pair<uint64_t, uint64_t>> Drain() const;

  uint32_t num_nodes_used() const {
    return node_cursor_.load(std::memory_order_relaxed);
  }
  uint32_t num_entries() const { return static_cast<uint32_t>(entries_.size()); }

  /// Test hook: when set, TryLock on `key` artificially fails the first
  /// `fail_count` times, to exercise the retry protocol deterministically.
  void InjectLockFailures(uint64_t key, uint32_t fail_count);

 private:
  uint32_t Bucket(uint64_t key) const;
  bool TryLock(ThreadCtx& ctx, uint32_t bucket, uint64_t key);
  void Unlock(uint32_t bucket);

  /// Walks the chain looking for `key`; charges one op per hop.
  int32_t FindNode(ThreadCtx& ctx, uint32_t bucket, uint64_t key) const;

  LockMode mode_;
  DeviceBuffer<std::atomic<uint32_t>> locks_;
  DeviceBuffer<std::atomic<int32_t>> entries_;
  DeviceBuffer<uint64_t> keys_;
  DeviceBuffer<std::atomic<uint64_t>> values_;
  DeviceBuffer<std::atomic<int32_t>> next_;
  std::atomic<uint32_t> node_cursor_{0};
  std::atomic<uint32_t> global_lock_{0};

  // Failure injection (tests only).
  std::atomic<uint64_t> inject_key_{0};
  std::atomic<uint32_t> inject_remaining_{0};
};

}  // namespace gpu
}  // namespace gtadoc

#endif  // GTADOC_GPU_HASH_TABLE_H_
