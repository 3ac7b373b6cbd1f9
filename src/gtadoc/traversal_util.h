#ifndef GTADOC_GTADOC_TRAVERSAL_UTIL_H_
#define GTADOC_GTADOC_TRAVERSAL_UTIL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "gpu/device.h"
#include "gtadoc/device_grammar.h"

namespace gtadoc {
namespace internal {

inline uint64_t PackPair(uint32_t hi, uint32_t lo) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

/// \brief Out-edge-driven mask rounds (Algorithm 2's traversal order).
///
/// Leaves start; a rule becomes ready once all its children have fired;
/// `body(r, ctx)` runs exactly once per rule, children strictly before
/// parents. Returns the number of kernel rounds (bounded by the DAG depth k
/// in the paper's complexity analysis).
inline uint32_t BottomUpRounds(
    gpu::Device* device, const DeviceGrammar& dev, const char* name,
    const std::function<void(uint32_t, gpu::ThreadCtx&)>& body) {
  const uint32_t n = dev.num_rules;
  std::vector<uint8_t> mask(n, 0);
  std::vector<std::atomic<uint8_t>> mask_next(n);
  std::vector<std::atomic<uint32_t>> cur_out(n);

  device->Launch("initBottomUpMask", n, [&](gpu::ThreadCtx& ctx) {
    const uint32_t r = ctx.tid();
    ctx.Charge(1);
    if (dev.num_children[r] == 0) mask[r] = 1;
  });

  std::atomic<bool> stop{false};
  uint32_t rounds = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    stop.store(true, std::memory_order_relaxed);
    ++rounds;
    device->Launch(name, n, [&](gpu::ThreadCtx& ctx) {
      const uint32_t r = ctx.tid();
      ctx.Charge(1);
      if (!mask[r]) return;
      body(r, ctx);
      for (uint32_t pe = dev.parent_off[r]; pe < dev.parent_off[r + 1]; ++pe) {
        const uint32_t p = dev.parent_id[pe];
        const uint32_t got =
            cur_out[p].fetch_add(1, std::memory_order_relaxed) + 1;
        ctx.ChargeAtomic();
        if (got == dev.num_children[p]) {
          mask_next[p].store(1, std::memory_order_relaxed);
          stop.store(false, std::memory_order_relaxed);
        }
      }
    });
    // Double-buffered masks: the production kernels read the mask through a
    // pointer the host swaps between rounds, so this costs no device work.
    for (uint32_t r = 0; r < n; ++r) {
      mask[r] = mask_next[r].exchange(0, std::memory_order_relaxed);
    }
  }
  return rounds;
}

/// \brief In-edge-driven mask rounds (Algorithm 1's traversal order).
///
/// The `init_name` launch runs `seed(r, ctx)` once per rule, root included;
/// rules whose only parent is the root start. Each `name` round visits the
/// ready non-root rules and runs `edge(r, c, freq, ctx)` on every out-edge
/// r -> c (freq = the edge's multiplicity); a rule becomes ready once all
/// its non-root parents have fired, so parents fold into a child strictly
/// before it fires. Returns the number of kernel rounds.
template <typename Seed, typename Edge>
uint32_t TopDownRounds(gpu::Device* device, const DeviceGrammar& dev,
                       const char* init_name, const char* name,
                       const Seed& seed, const Edge& edge) {
  const uint32_t n = dev.num_rules;
  std::vector<uint8_t> mask(n, 0);
  std::vector<std::atomic<uint8_t>> mask_next(n);
  std::vector<std::atomic<uint32_t>> cur_in(n);

  device->Launch(init_name, n, [&](gpu::ThreadCtx& ctx) {
    const uint32_t r = ctx.tid();
    ctx.Charge(1);
    seed(r, ctx);
    if (r != 0 && dev.in_edges_nonroot[r] == 0) mask[r] = 1;
  });

  std::atomic<bool> stop{false};
  uint32_t rounds = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    stop.store(true, std::memory_order_relaxed);
    ++rounds;
    device->Launch(name, n, [&](gpu::ThreadCtx& ctx) {
      const uint32_t r = ctx.tid();
      ctx.Charge(1);
      if (r == 0 || !mask[r]) return;
      for (uint32_t e = dev.child_off[r]; e < dev.child_off[r + 1]; ++e) {
        const uint32_t c = dev.child_id[e];
        edge(r, c, dev.child_freq[e], ctx);
        const uint32_t got =
            cur_in[c].fetch_add(1, std::memory_order_relaxed) + 1;
        ctx.ChargeAtomic();
        if (got == dev.in_edges_nonroot[c]) {
          mask_next[c].store(1, std::memory_order_relaxed);
          stop.store(false, std::memory_order_relaxed);
        }
      }
    });
    // Swap masks: rules that just finished never rerun; newly-ready rules
    // run in the next round (rule.mask <- false, subRule.mask <- true). The
    // production kernels read the mask through a pointer the host swaps
    // between rounds, so this costs no device work.
    for (uint32_t r = 0; r < n; ++r) {
      mask[r] = mask_next[r].exchange(0, std::memory_order_relaxed);
    }
  }
  return rounds;
}

}  // namespace internal
}  // namespace gtadoc

#endif  // GTADOC_GTADOC_TRAVERSAL_UTIL_H_
