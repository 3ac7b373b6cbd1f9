#include "gpu/primitives.h"

#include <algorithm>

namespace gtadoc {
namespace gpu {

namespace {

constexpr uint32_t kScanBlock = 256;

uint32_t ScanBlocks(size_t n) {
  return static_cast<uint32_t>((n + kScanBlock - 1) / kScanBlock);
}

}  // namespace

uint64_t DeviceExclusiveScan(Device* device, const std::vector<uint64_t>& in,
                             std::vector<uint64_t>* out) {
  const size_t n = in.size();
  out->assign(n, 0);
  if (n == 0) return 0;

  const uint32_t num_blocks = ScanBlocks(n);
  std::vector<uint64_t> block_sums(num_blocks, 0);

  // Round 1: per-block totals.
  device->Launch("scanReduce", num_blocks, [&](ThreadCtx& ctx) {
    const size_t lo = static_cast<size_t>(ctx.tid()) * kScanBlock;
    const size_t hi = std::min(n, lo + kScanBlock);
    uint64_t sum = 0;
    for (size_t i = lo; i < hi; ++i) sum += in[i];
    ctx.Charge(hi - lo);
    block_sums[ctx.tid()] = sum;
  });

  // Host-side scan of the tiny block-sum array (the CUDA scheme would
  // recurse; at our sizes one host pass is equivalent and charged as such).
  uint64_t running = 0;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    const uint64_t s = block_sums[b];
    block_sums[b] = running;
    running += s;
  }

  // Round 2: per-block exclusive rescan seeded with the block offset.
  device->Launch("scanRescan", num_blocks, [&](ThreadCtx& ctx) {
    const size_t lo = static_cast<size_t>(ctx.tid()) * kScanBlock;
    const size_t hi = std::min(n, lo + kScanBlock);
    uint64_t acc = block_sums[ctx.tid()];
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t v = in[i];
      (*out)[i] = acc;
      acc += v;
    }
    ctx.Charge(hi - lo);
  });
  return running;
}

void ChargeExclusiveScan(Device* device, size_t n) {
  if (n == 0) return;
  const auto per_block = [n](ThreadCtx& ctx) {
    const size_t lo = static_cast<size_t>(ctx.tid()) * kScanBlock;
    ctx.Charge(std::min(n, lo + kScanBlock) - lo);
  };
  device->Launch("scanReduce", ScanBlocks(n), per_block);
  device->Launch("scanRescan", ScanBlocks(n), per_block);
}

namespace {

constexpr size_t kMergeChunk = 1024;

/// Merge-path co-ranking: for global output rank `k` of merging sorted ranges
/// A=[a0,a1) and B=[b0,b1), returns how many elements come from A. Standard
/// GPU merge-sort partitioning (Green et al.), O(log) charged per call.
size_t CoRank(const std::vector<std::pair<uint64_t, uint64_t>>& v, size_t a0,
              size_t a1, size_t b0, size_t b1, size_t k, ThreadCtx& ctx) {
  size_t lo = k > (b1 - b0) ? k - (b1 - b0) : 0;
  size_t hi = std::min(k, a1 - a0);
  // Find the smallest i such that the split (i from A, k-i from B) is valid
  // for the stable merge (A wins ties): predicate "j == 0 or A[i] > B[j-1]"
  // is monotone in i.
  while (lo < hi) {
    ctx.Charge(1);
    const size_t i = (lo + hi) / 2;  // elements taken from A
    const size_t j = k - i;          // elements taken from B
    if (j == 0 || v[a0 + i].first > v[b0 + j - 1].first) {
      hi = i;
    } else {
      lo = i + 1;
    }
  }
  return lo;
}

}  // namespace

void DeviceSortPairs(Device* device,
                     std::vector<std::pair<uint64_t, uint64_t>>* pairs) {
  const size_t n = pairs->size();
  if (n <= 1) return;
  std::vector<std::pair<uint64_t, uint64_t>> scratch(n);
  auto* src = pairs;
  auto* dst = &scratch;

  for (size_t width = 1; width < n; width *= 2) {
    // One logical thread per kMergeChunk of *output*; each thread co-ranks
    // its start/end inside its merge pair, so even the final full-array merge
    // is spread across the device (no serial critical path).
    const size_t num_merges = (n + 2 * width - 1) / (2 * width);
    const size_t chunks_per_merge = (2 * width + kMergeChunk - 1) / kMergeChunk;
    const uint32_t threads =
        static_cast<uint32_t>(num_merges * chunks_per_merge);
    device->Launch("mergeSortRound", threads, [&](ThreadCtx& ctx) {
      const size_t merge = ctx.tid() / chunks_per_merge;
      const size_t chunk = ctx.tid() % chunks_per_merge;
      const size_t lo = merge * 2 * width;
      if (lo >= n) return;
      const size_t mid = std::min(n, lo + width);
      const size_t hi = std::min(n, lo + 2 * width);
      const size_t out_len = hi - lo;
      const size_t k0 = std::min(out_len, chunk * kMergeChunk);
      const size_t k1 = std::min(out_len, k0 + kMergeChunk);
      if (k0 >= k1) return;
      const size_t i0 = CoRank(*src, lo, mid, mid, hi, k0, ctx);
      const size_t i1 = CoRank(*src, lo, mid, mid, hi, k1, ctx);
      size_t a = lo + i0, b = mid + (k0 - i0), o = lo + k0;
      const size_t a_end = lo + i1, b_end = mid + (k1 - i1);
      while (a < a_end && b < b_end) {
        if ((*src)[a].first <= (*src)[b].first) {
          (*dst)[o++] = (*src)[a++];
        } else {
          (*dst)[o++] = (*src)[b++];
        }
      }
      while (a < a_end) (*dst)[o++] = (*src)[a++];
      while (b < b_end) (*dst)[o++] = (*src)[b++];
      ctx.Charge(k1 - k0);
    });
    std::swap(src, dst);
  }
  if (src != pairs) *pairs = *src;
}

}  // namespace gtadoc
}  // namespace gpu
