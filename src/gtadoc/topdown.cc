#include <algorithm>
#include <map>

#include "common/logging.h"
#include "gpu/memory_pool.h"
#include "gpu/round_loop.h"
#include "gtadoc/engine.h"
#include "gtadoc/traversal_util.h"

namespace gtadoc {

// ---------------------------------------------------------------------------
// kGlobalWeight, Algorithm 1: weights then a fine-grained parallel reduce.
// A pure executor of the RunPlan: the per-rule weight state lives at the
// plan's resolved pool offsets (ComputeGlobalWeights), the plan's word
// filter gates the reduce, and the kernel assembles the drained table into
// its result type.
// ---------------------------------------------------------------------------

Status GTadocEngine::GlobalTopDown(const TaskKernel& kernel,
                                   const RunPlan& plan,
                                   AnalyticsResult* out) {
  const TaskInput input = MakeInput();
  const WordFilter& filter = plan.filter;
  const PlannedLease lease = AcquirePlanned(plan);
  std::vector<uint64_t> weight;
  last_rounds_ = ComputeGlobalWeights(kernel, lease, &weight);

  // reduceResultKernel: every rule merges its (accepted) local words, scaled
  // by its weight, into the global Figure-5 hash table. Oversized word lists
  // are split across threads by the fine-grained scheduler.
  std::vector<uint64_t> loads(dev_->num_rules);
  uint64_t total_entries = 0;
  for (uint32_t r = 0; r < dev_->num_rules; ++r) {
    loads[r] = dev_->word_off[r + 1] - dev_->word_off[r];
    total_entries += loads[r];
  }
  ThreadAssignment assign =
      BuildAssignment(loads, options_.scheduling, options_.split_threshold);

  gpu::GpuHashTable table(device_, WordTableOptions(plan, total_entries));

  (void)assign;
  bool ok;
  if (options_.scheduling == SchedulingMode::kOneThreadPerRule) {
    // The rejected design: one logical thread per rule processes that rule's
    // whole word list, so the largest rule (typically the root) becomes the
    // kernel's critical path — exactly the imbalance Figure 4(b)'s
    // fine-grained splitting removes. A per-rule resume cursor keeps the
    // retry protocol idempotent.
    std::vector<uint32_t> rule_items;
    for (uint32_t r = 0; r < dev_->num_rules; ++r) {
      if (weight[r] != 0 && dev_->word_off[r + 1] > dev_->word_off[r]) {
        rule_items.push_back(r);
      }
    }
    std::vector<uint32_t> progress(dev_->num_rules, 0);
    ok = gpu::RoundLoop(
        device_, "reduceResultPerRule", rule_items.size(), 1,
        [&](size_t i, gpu::ThreadCtx& ctx) {
          const uint32_t r = rule_items[i];
          for (uint32_t e = dev_->word_off[r] + progress[r];
               e < dev_->word_off[r + 1]; ++e) {
            ctx.Charge(2);
            if (!filter.Accepts(dev_->word_id[e])) continue;
            const gpu::InsertOutcome oc = table.AddOrInsert(
                ctx, dev_->word_id[e], weight[r] * dev_->word_freq[e]);
            if (oc != gpu::InsertOutcome::kDone) {
              progress[r] = e - dev_->word_off[r];
              return oc;
            }
          }
          return gpu::InsertOutcome::kDone;
        });
  } else {
    // Fine-grained: flattened (rule, entry) items in bounded chunks, so no
    // single thread inherits an oversized rule. A busy lock re-queues only
    // the failing entry.
    struct PendingEntry {
      uint32_t rule;
      uint32_t entry;  // index into dev_->word_id
    };
    std::vector<PendingEntry> items;
    items.reserve(total_entries);
    for (uint32_t r = 0; r < dev_->num_rules; ++r) {
      if (weight[r] == 0) continue;
      for (uint32_t e = dev_->word_off[r]; e < dev_->word_off[r + 1]; ++e) {
        if (!filter.Accepts(dev_->word_id[e])) continue;
        items.push_back(PendingEntry{r, e});
      }
    }
    ok = gpu::RoundLoop(
        device_, "reduceResult", items.size(), 64,
        [&](size_t i, gpu::ThreadCtx& ctx) {
          const PendingEntry& pe = items[i];
          ctx.Charge(2);
          return table.AddOrInsert(
              ctx, dev_->word_id[pe.entry],
              weight[pe.rule] * dev_->word_freq[pe.entry]);
        });
  }
  if (!ok) return Status::Internal("global word table undersized");
  std::vector<std::pair<uint32_t, uint64_t>> counts;
  DrainWordTable(table, &counts);
  GpuAssembly ops(device_, lease.assembly());
  kernel.AssembleGlobal(input, counts, &ops, out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Figure 4(a) strawman: vertical partitioning. Each thread owns a consecutive
// slice of the root body and walks its whole reachable subtree; shared rules
// are re-scanned by every thread that reaches them — the duplicated work that
// made the paper abandon this design. Kept as the scheduling ablation's
// baseline; it carries no per-rule state, so its plan lays out no regions.
// ---------------------------------------------------------------------------

Status GTadocEngine::GlobalVerticalPartition(const TaskKernel& kernel,
                                             const RunPlan& plan,
                                             AnalyticsResult* out) {
  const TaskInput input = MakeInput();
  const WordFilter& filter = plan.filter;
  const uint64_t root_len = dev_->body_off[1] - dev_->body_off[0];
  const uint32_t num_threads = std::min<uint64_t>(
      1024, std::max<uint64_t>(1, root_len / 64));
  const uint64_t per = (root_len + num_threads - 1) / num_threads;

  std::vector<std::map<uint32_t, uint64_t>> partial(num_threads);
  device_->Launch("verticalWordCount", num_threads, [&](gpu::ThreadCtx& ctx) {
    const uint64_t lo = ctx.tid() * per;
    const uint64_t hi = std::min(root_len, lo + per);
    auto& counts = partial[ctx.tid()];
    // Each occurrence expands its full subtree: repeated rules re-scanned.
    std::vector<std::pair<uint32_t, uint64_t>> stack;  // (rule, multiplier)
    for (uint64_t p = lo; p < hi; ++p) {
      const uint32_t sym = dev_->body_sym[p];
      ctx.Charge(1);
      if (sym < dev_->num_words) {
        if (filter.Accepts(sym)) {
          ++counts[sym];
          ctx.Charge(1);
        }
      } else if (sym >= dev_->num_words + (dev_->num_files - 1)) {
        stack.emplace_back(sym - (dev_->num_words + dev_->num_files - 1), 1);
        while (!stack.empty()) {
          auto [r, mult] = stack.back();
          stack.pop_back();
          for (uint32_t e = dev_->word_off[r]; e < dev_->word_off[r + 1]; ++e) {
            if (filter.Accepts(dev_->word_id[e])) {
              counts[dev_->word_id[e]] += mult * dev_->word_freq[e];
            }
            ctx.Charge(2);
          }
          for (uint32_t e = dev_->child_off[r]; e < dev_->child_off[r + 1];
               ++e) {
            stack.emplace_back(dev_->child_id[e], mult * dev_->child_freq[e]);
            ctx.Charge(1);
          }
        }
      }
    }
  });

  // Merge partials on device (tree reduction charged as one merge pass).
  std::map<uint32_t, uint64_t> merged;
  device_->Launch("verticalMerge", 1, [&](gpu::ThreadCtx& ctx) {
    for (const auto& p : partial) {
      for (const auto& [w, c] : p) {
        merged[w] += c;
        ctx.Charge(2);
      }
    }
  });
  std::vector<std::pair<uint32_t, uint64_t>> counts(merged.begin(),
                                                    merged.end());
  GpuAssembly ops(device_);
  kernel.AssembleGlobal(input, counts, &ops, out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// kPerFileWeight, top-down: per-file accumulator states flow from the root.
// Every relevant rule owns one region at the plan's resolved offset — the
// Section IV-C memory-requirement transmission, resolved at plan time — and
// the region's shape is whatever the kernel's StateLayout declares (the
// canonical dense-array-plus-nonzero-list for the built-ins, a presence
// bitmap or anything else for custom kernels). The executor only drives
// Init/Absorb/Merge/ReadSlot; the plan's relevance mask (a probe of the
// index's per-rule Bloom filters) already pruned every rule whose subtree
// holds no accepted word, so only the matching corner of the grammar
// carries state.
// ---------------------------------------------------------------------------

Status GTadocEngine::FileTaskTopDown(const TaskKernel& kernel,
                                     const RunPlan& plan,
                                     AnalyticsResult* out) {
  const TaskInput input = MakeInput();
  const WordFilter& filter = plan.filter;
  const std::vector<uint8_t>& relevant = plan.relevant;
  const uint32_t n = dev_->num_rules;
  const uint32_t num_files = dev_->num_files;
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kTopDown);
  const PlannedLease lease = AcquirePlanned(plan);

  // State initialization, one logical thread per relevant rule (the
  // rules x files zeroing bill that many-file datasets pay). Irrelevant
  // rules were planned no regions at all.
  device_->Launch("stateInit", n, [&](gpu::ThreadCtx& ctx) {
    const uint32_t r = ctx.tid();
    ctx.Charge(1);
    if (!lease.state_at(r).valid()) return;
    GpuStateOps ops(&ctx);
    layout.Init(lease.state_at(r), ops);
  });

  // Root scan: every root occurrence seeds its rule's state with its file.
  // Fine-grained: the root body is chunked across threads.
  const uint64_t root_len = dev_->body_off[1];
  device_->Launch(
      "rootSeedFiles",
      static_cast<uint32_t>(std::max<uint64_t>(1, (root_len + 255) / 256)),
      [&](gpu::ThreadCtx& ctx) {
        GpuStateOps ops(&ctx);
        const uint64_t lo = static_cast<uint64_t>(ctx.tid()) * 256;
        const uint64_t hi = std::min(root_len, lo + 256);
        for (uint64_t p = lo; p < hi; ++p) {
          const uint32_t sym = dev_->body_sym[p];
          ctx.Charge(1);
          if (sym >= dev_->num_words + (dev_->num_files - 1)) {
            const uint32_t r = sym - (dev_->num_words + dev_->num_files - 1);
            if (relevant[r] != 0) {
              layout.Absorb(lease.state_at(r), dev_->root_file_of_pos[p], 1,
                            ops);
            }
          }
        }
      });

  // Traversal rounds (Algorithm 1 with layout state): a ready rule folds its
  // state into each relevant child, scaled by the edge frequency (the
  // layout's cross-chunk reduce). Readiness counters are bumped for every
  // child so the mask protocol converges regardless of pruning.
  last_rounds_ = internal::TopDownRounds(
      device_, *dev_, "initFileMask", "fileTopDown",
      [](uint32_t, gpu::ThreadCtx&) {},
      [&](uint32_t r, uint32_t c, uint32_t freq, gpu::ThreadCtx& ctx) {
        if (lease.state_at(r).valid() && lease.state_at(c).valid()) {
          GpuStateOps ops(&ctx);
          layout.Merge(lease.state_at(c), lease.state_at(r), freq, ops);
        }
      });

  // --- Reduce: (file, word) counts into the global table. Work items are
  // single layout read units — (rule, word entry, state slot) — so the retry
  // protocol stays idempotent. Only relevant rules and accepted words emit.
  struct ReduceItem {
    uint32_t rule;
    uint32_t entry;  // index into dev_->word_id
    uint32_t slot;   // index into the rule's readable state slots
  };
  std::vector<ReduceItem> items;
  for (uint32_t r = 1; r < n; ++r) {
    if (!lease.state_at(r).valid()) continue;
    const uint64_t slots = layout.ReadableSlots(lease.state_at(r));
    if (slots == 0) continue;
    for (uint32_t e = dev_->word_off[r]; e < dev_->word_off[r + 1]; ++e) {
      if (!filter.Accepts(dev_->word_id[e])) continue;
      for (uint64_t t = 0; t < slots; ++t) {
        items.push_back(ReduceItem{r, e, static_cast<uint32_t>(t)});
      }
    }
  }
  gpu::GpuHashTable table(
      device_, WordTableOptions(plan, items.size() + dev_->body_off[1]));

  bool ok = gpu::RoundLoop(
      device_, "fileReduce", items.size(), 16,
      [&](size_t i, gpu::ThreadCtx& ctx) {
        const ReduceItem& it = items[i];
        uint32_t file;
        uint64_t w;
        ctx.Charge(2);
        if (!layout.ReadSlot(lease.state_at(it.rule), it.slot, &file, &w)) {
          return gpu::InsertOutcome::kDone;
        }
        return table.AddOrInsert(
            ctx, internal::PackPair(file, dev_->word_id[it.entry]),
            w * dev_->word_freq[it.entry]);
      });
  if (!ok) return Status::Internal("file-task table undersized");

  // Root-owned words: directly (file, word) with weight 1.
  ok = gpu::RoundLoop(
      device_, "rootWordsReduce", dev_->body_off[1], 256,
      [&](size_t p, gpu::ThreadCtx& ctx) {
        const uint32_t sym = dev_->body_sym[p];
        ctx.Charge(1);
        if (sym >= dev_->num_words || !filter.Accepts(sym)) {
          return gpu::InsertOutcome::kDone;
        }
        return table.AddOrInsert(
            ctx, internal::PackPair(dev_->root_file_of_pos[p], sym), 1);
      });
  if (!ok) return Status::Internal("file-task table undersized (root)");

  // --- Drain into the kernel's result shape.
  auto pairs = table.Drain();
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
