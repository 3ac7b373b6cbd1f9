#include "gpu/ngram_table.h"

#include <cstring>

#include "common/hash.h"

namespace gtadoc {
namespace gpu {

namespace {
uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

GpuNgramTable::GpuNgramTable(Device* device, const Options& options)
    : l_(options.ngram_len),
      mode_(options.lock_mode),
      locks_(device, RoundUpPow2(options.num_entries)),
      entries_(device, RoundUpPow2(options.num_entries)),
      files_(device, options.max_nodes, 0u),
      key_offsets_(device, options.max_nodes, 0u),
      values_(device, options.max_nodes),
      next_(device, options.max_nodes),
      key_pool_(device, static_cast<size_t>(options.max_nodes) * options.ngram_len,
                0u) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].store(-1, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < next_.size(); ++i) {
    next_[i].store(-1, std::memory_order_relaxed);
  }
}

uint32_t GpuNgramTable::Bucket(uint32_t file, const uint32_t* words) const {
  uint64_t h = HashU32Span(words, l_);
  h = HashCombine(h, file);
  return static_cast<uint32_t>(h & (static_cast<uint64_t>(entries_.size()) - 1));
}

bool GpuNgramTable::Equals(int32_t node, uint32_t file,
                           const uint32_t* words) const {
  if (files_[node] != file) return false;
  return std::memcmp(&key_pool_[key_offsets_[node]], words,
                     l_ * sizeof(uint32_t)) == 0;
}

int32_t GpuNgramTable::FindNode(ThreadCtx& ctx, uint32_t bucket, uint32_t file,
                                const uint32_t* words) const {
  int32_t node = entries_[bucket].load(std::memory_order_acquire);
  while (node >= 0) {
    ctx.Charge(1 + l_);  // key comparison touches l words
    if (Equals(node, file, words)) return node;
    node = next_[node].load(std::memory_order_acquire);
  }
  return -1;
}

InsertOutcome GpuNgramTable::AddOrInsert(ThreadCtx& ctx, uint32_t file,
                                         const uint32_t* words,
                                         uint64_t delta) {
  const uint32_t bucket = Bucket(file, words);
  ctx.Charge(2 + l_);  // hashing the sequence

  int32_t node = FindNode(ctx, bucket, file, words);
  if (node >= 0) {
    ctx.ChargeAtomic();
    values_[node].fetch_add(delta, std::memory_order_relaxed);
    return InsertOutcome::kDone;
  }

  std::atomic<uint32_t>& lock =
      mode_ == LockMode::kGlobalLock ? global_lock_ : locks_[bucket];
  if (mode_ != LockMode::kAtomicOnly) {
    if (mode_ == LockMode::kGlobalLock) {
      ctx.ChargeSerializedAtomic();
    } else {
      ctx.ChargeAtomic();
    }
    uint32_t expected = 0;
    if (!lock.compare_exchange_strong(expected, 1, std::memory_order_acquire)) {
      return InsertOutcome::kRetry;
    }
    // Re-verify under the lock.
    node = FindNode(ctx, bucket, file, words);
    if (node >= 0) {
      lock.store(0, std::memory_order_release);
      ctx.ChargeAtomic();
      values_[node].fetch_add(delta, std::memory_order_relaxed);
      return InsertOutcome::kDone;
    }
  }

  const uint32_t n = node_cursor_.fetch_add(1, std::memory_order_relaxed);
  ctx.ChargeAtomic();
  if (n >= files_.size()) {
    node_cursor_.fetch_sub(1, std::memory_order_relaxed);
    if (mode_ != LockMode::kAtomicOnly) lock.store(0, std::memory_order_release);
    return InsertOutcome::kTableFull;
  }
  files_[n] = file;
  const uint32_t key_off = n * l_;
  std::memcpy(&key_pool_[key_off], words, l_ * sizeof(uint32_t));
  key_offsets_[n] = key_off;
  values_[n].store(delta, std::memory_order_relaxed);
  ctx.Charge(4 + l_);

  if (mode_ == LockMode::kAtomicOnly) {
    int32_t head = entries_[bucket].load(std::memory_order_relaxed);
    do {
      next_[n].store(head, std::memory_order_relaxed);
      ctx.ChargeAtomic();
    } while (!entries_[bucket].compare_exchange_weak(
        head, static_cast<int32_t>(n), std::memory_order_release,
        std::memory_order_relaxed));
  } else {
    next_[n].store(entries_[bucket].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    entries_[bucket].store(static_cast<int32_t>(n), std::memory_order_release);
    lock.store(0, std::memory_order_release);
  }
  return InsertOutcome::kDone;
}

uint64_t GpuNgramTable::Lookup(uint32_t file, const uint32_t* words) const {
  const uint32_t bucket = Bucket(file, words);
  uint64_t total = 0;
  int32_t node = entries_[bucket].load(std::memory_order_acquire);
  while (node >= 0) {
    if (Equals(node, file, words)) {
      total += values_[node].load(std::memory_order_relaxed);
    }
    node = next_[node].load(std::memory_order_acquire);
  }
  return total;
}

NgramCounts GpuNgramTable::Drain() const {
  const uint32_t used =
      std::min<uint32_t>(node_cursor_.load(std::memory_order_relaxed),
                         static_cast<uint32_t>(files_.size()));
  // Node n's key lives at n * l in the pool, so the pool's first used * l
  // words are the drained grams in node order.
  NgramCounts out;
  out.ngram_len = l_;
  out.files.assign(files_.data(), files_.data() + used);
  out.words.assign(key_pool_.data(),
                   key_pool_.data() + static_cast<size_t>(used) * l_);
  out.counts.resize(used);
  for (uint32_t i = 0; i < used; ++i) {
    out.counts[i] = values_[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace gpu
}  // namespace gtadoc
