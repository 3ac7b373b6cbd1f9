#ifndef GTADOC_GPU_NGRAM_TABLE_H_
#define GTADOC_GPU_NGRAM_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpu/device.h"
#include "gpu/hash_table.h"

namespace gtadoc {
namespace gpu {

/// \brief Drained (file, l-gram) -> count entries as flat parallel arrays.
///
/// Entry i is file `files[i]`, gram `words[i * ngram_len, (i + 1) *
/// ngram_len)` and count `counts[i]`: the node array and key pool of
/// GpuNgramTable copied out as they are, with no allocation per entry.
struct NgramCounts {
  uint32_t ngram_len = 0;
  std::vector<uint32_t> files;
  std::vector<uint32_t> words;
  std::vector<uint64_t> counts;

  size_t size() const { return counts.size(); }
  /// Entry i's l words.
  const uint32_t* gram(size_t i) const {
    return words.data() + i * ngram_len;
  }
  /// Appends one entry; `gram` holds ngram_len words.
  void Add(uint32_t file, const uint32_t* gram, uint64_t count) {
    files.push_back(file);
    words.insert(words.end(), gram, gram + ngram_len);
    counts.push_back(count);
  }
};

/// \brief Thread-safe GPU table keyed by (file, l-word sequence) with exact
/// key comparison (Section IV-D: "develop special data structures in GPU
/// memories to store sequences and perform basic comparisons").
///
/// Same five-buffer layout and try-lock protocol as GpuHashTable, plus a key
/// pool: each node stores an offset into a flat uint32 pool holding its l
/// word ids, so lookups compare the full sequence, not just a hash.
class GpuNgramTable {
 public:
  struct Options {
    uint32_t num_entries = 1024;
    uint32_t max_nodes = 4096;
    uint32_t ngram_len = 3;  ///< l, the sequence length
    LockMode lock_mode = LockMode::kPerEntryTryLock;
  };

  GpuNgramTable(Device* device, const Options& options);

  /// Adds `delta` to the count of (file, words[0..l)). Same outcome protocol
  /// as GpuHashTable::AddOrInsert.
  InsertOutcome AddOrInsert(ThreadCtx& ctx, uint32_t file,
                            const uint32_t* words, uint64_t delta);

  /// Host-side exact lookup (0 when absent).
  uint64_t Lookup(uint32_t file, const uint32_t* words) const;

  /// Drains all counts in node order (unspecified; one entry per key).
  NgramCounts Drain() const;

  uint32_t ngram_len() const { return l_; }
  uint32_t num_nodes_used() const {
    return node_cursor_.load(std::memory_order_relaxed);
  }

 private:
  uint32_t Bucket(uint32_t file, const uint32_t* words) const;
  bool Equals(int32_t node, uint32_t file, const uint32_t* words) const;
  int32_t FindNode(ThreadCtx& ctx, uint32_t bucket, uint32_t file,
                   const uint32_t* words) const;

  uint32_t l_;
  LockMode mode_;
  DeviceBuffer<std::atomic<uint32_t>> locks_;
  DeviceBuffer<std::atomic<int32_t>> entries_;
  DeviceBuffer<uint32_t> files_;
  DeviceBuffer<uint32_t> key_offsets_;
  DeviceBuffer<std::atomic<uint64_t>> values_;
  DeviceBuffer<std::atomic<int32_t>> next_;
  DeviceBuffer<uint32_t> key_pool_;
  std::atomic<uint32_t> node_cursor_{0};
  std::atomic<uint32_t> global_lock_{0};
};

}  // namespace gpu
}  // namespace gtadoc

#endif  // GTADOC_GPU_NGRAM_TABLE_H_
