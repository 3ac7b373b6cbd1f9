#include <algorithm>
#include <atomic>

#include "common/hash.h"
#include "common/logging.h"
#include "gpu/memory_pool.h"
#include "gpu/round_loop.h"
#include "gtadoc/engine.h"
#include "gtadoc/traversal_util.h"

namespace gtadoc {

// ---------------------------------------------------------------------------
// Shared Algorithm 2 machinery for both bottom-up executors: the per-rule
// content bounds were computed at plan time (the genLocTblBound pass, cached
// with the plan), the pool regions sit at the plan's resolved offsets, and
// the leaves-to-root merge rounds drive the layout's Init/Absorb/Merge
// hooks. The two executors differ only in the reduce step, exactly as in
// the paper.
// ---------------------------------------------------------------------------

Status GTadocEngine::BuildRuleStates(const TaskKernel& kernel,
                                     const RunPlan& plan,
                                     const PlannedLease& lease,
                                     uint32_t* rounds) {
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kBottomUp);
  const WordFilter& filter = plan.filter;

  // genLocTblKernel: init the rule's state, absorb its own (accepted) words,
  // then fold in the children's states (lines 12-16). Children of a
  // selective kernel carry only accepted words, so the merge is already
  // pruned. The root needs no state.
  *rounds = internal::BottomUpRounds(
      device_, *dev_, "genLocTbl", [&](uint32_t r, gpu::ThreadCtx& ctx) {
        if (r == 0) return;  // root is handled by the reduce kernel
        GpuStateOps ops(&ctx);
        const StateView state = lease.state_at(r);
        layout.Init(state, ops);
        for (uint32_t e = dev_->word_off[r]; e < dev_->word_off[r + 1]; ++e) {
          if (!filter.Accepts(dev_->word_id[e])) continue;
          layout.Absorb(state, dev_->word_id[e], dev_->word_freq[e], ops);
        }
        for (uint32_t e = dev_->child_off[r]; e < dev_->child_off[r + 1]; ++e) {
          layout.Merge(state, lease.state_at(dev_->child_id[e]),
                       dev_->child_freq[e], ops);
        }
      });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// kGlobalWeight, Algorithm 2: local state flows leaves -> root, then the
// level-2 reduce. Task-agnostic: the plan's filter restricts the state, the
// kernel assembles the drained global table.
// ---------------------------------------------------------------------------

Status GTadocEngine::GlobalBottomUp(const TaskKernel& kernel,
                                    const RunPlan& plan,
                                    AnalyticsResult* out) {
  const TaskInput input = MakeInput();
  const WordFilter& filter = plan.filter;
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kBottomUp);
  const uint32_t n = dev_->num_rules;

  const PlannedLease lease = AcquirePlanned(plan);
  Status st = BuildRuleStates(kernel, plan, lease, &last_rounds_);
  if (!st.ok()) return st;

  // reduceResultKernel: root words + level-2 states scaled by root frequency
  // into the global table; one logical thread per level-2 node plus chunked
  // threads for the root's own words.
  gpu::GpuHashTable global(device_,
                           WordTableOptions(plan, dev_->word_off[n]));

  // Level-2 merges. Retry items must be idempotent, so the unit of work is a
  // single readable state slot (at most one global insert each), not a whole
  // node. A selective kernel skips children whose states stayed empty (their
  // subtree holds no accepted word).
  struct SlotItem {
    uint32_t child;
    uint32_t freq;
    uint32_t slot;
  };
  std::vector<SlotItem> slot_items;
  for (uint32_t e = dev_->child_off[0]; e < dev_->child_off[1]; ++e) {
    const uint32_t c = dev_->child_id[e];
    if (filter.selective() && layout.EntryCount(lease.state_at(c)) == 0) {
      continue;
    }
    const uint64_t slots = layout.ReadableSlots(lease.state_at(c));
    for (uint64_t s = 0; s < slots; ++s) {
      slot_items.push_back(SlotItem{c, dev_->child_freq[e],
                                    static_cast<uint32_t>(s)});
    }
  }
  bool ok = gpu::RoundLoop(
      device_, "reduceLevel2", slot_items.size(), 64,
      [&](size_t i, gpu::ThreadCtx& ctx) {
        const SlotItem& it = slot_items[i];
        ctx.Charge(1);
        uint32_t word;
        uint64_t cnt;
        if (!layout.ReadSlot(lease.state_at(it.child), it.slot, &word,
                             &cnt)) {
          return gpu::InsertOutcome::kDone;
        }
        return global.AddOrInsert(ctx, word, cnt * it.freq);
      });
  if (!ok) return Status::Internal("global table undersized (level-2)");
  ok = gpu::RoundLoop(
      device_, "reduceRootWords",
      dev_->word_off[1] - dev_->word_off[0], 64,
      [&](size_t i, gpu::ThreadCtx& ctx) {
        const uint32_t e = dev_->word_off[0] + static_cast<uint32_t>(i);
        ctx.Charge(1);
        if (!filter.Accepts(dev_->word_id[e])) return gpu::InsertOutcome::kDone;
        return global.AddOrInsert(ctx, dev_->word_id[e], dev_->word_freq[e]);
      });
  if (!ok) return Status::Internal("global table undersized (root words)");

  std::vector<std::pair<uint32_t, uint64_t>> counts;
  DrainWordTable(global, &counts);
  GpuAssembly ops(device_, lease.assembly());
  kernel.AssembleGlobal(input, counts, &ops, out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// kPerFileWeight, bottom-up: same local state, then a root scan attributes
// each level-2 occurrence's state to the occurrence's file.
// ---------------------------------------------------------------------------

Status GTadocEngine::FileTaskBottomUp(const TaskKernel& kernel,
                                      const RunPlan& plan,
                                      AnalyticsResult* out) {
  const TaskInput input = MakeInput();
  const WordFilter& filter = plan.filter;
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kBottomUp);
  const uint32_t num_files = dev_->num_files;

  const PlannedLease lease = AcquirePlanned(plan);
  Status st = BuildRuleStates(kernel, plan, lease, &last_rounds_);
  if (!st.ok()) return st;

  // Reduce: the root scan walks every root position; a level-2 occurrence
  // merges its state into the occurrence's file, root words insert directly.
  uint64_t estimate = dev_->body_off[1];
  for (uint32_t e = dev_->child_off[0]; e < dev_->child_off[0 + 1]; ++e) {
    estimate += static_cast<uint64_t>(dev_->child_freq[e]) *
                std::max<uint64_t>(1, plan.bound[dev_->child_id[e]]);
  }
  gpu::GpuHashTable global(device_, WordTableOptions(plan, estimate));

  // Work items are single layout read units so retries stay idempotent: one
  // item per (accepted) root word position, plus one item per (level-2
  // occurrence, state slot). Occurrences of rules whose subtree holds no
  // accepted word are pruned entirely for selective kernels.
  struct ScanItem {
    uint64_t pos;    // root position
    uint32_t child;  // rule index, or UINT32_MAX for a root-owned word
    uint32_t slot;
  };
  std::vector<ScanItem> scan_items;
  const uint64_t root_len = dev_->body_off[1];
  for (uint64_t p = 0; p < root_len; ++p) {
    const uint32_t sym = dev_->body_sym[p];
    if (sym < dev_->num_words) {
      if (!filter.Accepts(sym)) continue;
      scan_items.push_back(ScanItem{p, UINT32_MAX, 0});
    } else if (sym >= dev_->num_words + (dev_->num_files - 1)) {
      const uint32_t c = sym - (dev_->num_words + dev_->num_files - 1);
      if (filter.selective() && layout.EntryCount(lease.state_at(c)) == 0) {
        continue;
      }
      const uint64_t slots = layout.ReadableSlots(lease.state_at(c));
      for (uint64_t s = 0; s < slots; ++s) {
        scan_items.push_back(ScanItem{p, c, static_cast<uint32_t>(s)});
      }
    }
  }
  const bool ok = gpu::RoundLoop(
      device_, "fileReduceRootScan", scan_items.size(), 64,
      [&](size_t i, gpu::ThreadCtx& ctx) {
        const ScanItem& it = scan_items[i];
        const uint32_t file = dev_->root_file_of_pos[it.pos];
        ctx.Charge(1);
        if (it.child == UINT32_MAX) {
          return global.AddOrInsert(
              ctx, internal::PackPair(file, dev_->body_sym[it.pos]), 1);
        }
        uint32_t word;
        uint64_t cnt;
        if (!layout.ReadSlot(lease.state_at(it.child), it.slot, &word,
                             &cnt)) {
          return gpu::InsertOutcome::kDone;
        }
        return global.AddOrInsert(ctx, internal::PackPair(file, word), cnt);
      });
  if (!ok) return Status::Internal("file-task table undersized (bottom-up)");

  auto pairs = global.Drain();
  if (options_.charge_pcie) device_->CopyDeviceToHost(pairs.size() * 16);
  std::vector<FileWordCount> triples;
  triples.reserve(pairs.size());
  for (const auto& [key, c] : pairs) {
    if (c == 0) continue;
    triples.push_back(FileWordCount{static_cast<uint32_t>(key >> 32),
                                    static_cast<uint32_t>(key & 0xffffffffu),
                                    c});
  }
  GpuAssembly ops(device_, lease.assembly());
  kernel.AssembleFileWord(input, num_files, triples, &ops, out);
  return Status::OK();
}

}  // namespace gtadoc
