#include <algorithm>
#include <atomic>
#include <map>

#include "common/logging.h"
#include "gpu/ngram_table.h"
#include "gpu/round_loop.h"
#include "gtadoc/engine.h"
#include "gtadoc/traversal_util.h"

namespace gtadoc {

// ---------------------------------------------------------------------------
// Sequence support (Section IV-D): two phases.
//
// Phase 1 (initialization, Figure 7): every rule gets a head and a tail
// buffer of l-1 expanded words (or its complete expansion if shorter),
// filled by mask-protocol rounds — a rule retries in the next round whenever
// a needed child's buffers are not ready yet. The expansion lengths feeding
// the truncation decisions are part of the RunPlan (the expLen bottom-up
// pass), so same-shape rebind runs skip that sizing traversal.
//
// Phase 2 (graph traversal, Figure 8): every rule enumerates the l-windows of
// its "bridge stream" — its body with child occurrences replaced by
// head [GAP] tail (or the full expansion when complete). Windows fully inside
// a single child occurrence are skipped (the child counts those); every other
// window is emitted once per (file, weight) of the rule's per-file
// occurrence counts, and the emitted key-value pairs are inserted into the
// exact-key n-gram hash table under the try-lock retry protocol.
//
// The per-file occurrence counts themselves (phase 2a) are DensePerFileLayout
// state over the plan's aux pool regions — the same Section IV-C discipline
// as every other accumulator — instead of ad-hoc host maps, so the sequence
// driver is fully layout-generic.
//
// Unique attribution argument: a text window is counted exactly once, by the
// deepest rule occurrence whose expansion contains it without it fitting in a
// single child. Bridging windows use at most l-1 words from each boundary
// element, which is precisely what head/tail hold (Equation 1's l-1 terms).
// ---------------------------------------------------------------------------

namespace {

/// One emitted key-value pair of phase 2 (the paper's "each thread is
/// responsible for one key-value pair").
struct SeqPair {
  uint32_t file;
  uint32_t weight;
  uint32_t gram_off;  // offset into the flat gram-words array
};

/// StateOps that tallies the GPU price of layout operations without a live
/// ThreadCtx. Probes and arithmetic cost plain ops; the layouts' Absorb
/// atomics ALSO price as plain ops here, because phase 2a is single-owner:
/// one logical thread owns each rule's merge step in the topological wave,
/// so its dense updates need no atomic RMW — the paper's "private and owned
/// by one thread" argument, applied to the per-file weight state. The
/// propagation computes host-side in topological order and charges the tally
/// through an equivalent per-rule kernel, mirroring the established
/// seqFileWeights accounting.
class TallyStateOps : public StateOps {
 public:
  void Touch(uint64_t n) override { ops += n; }
  void Arith(uint64_t n) override { ops += n; }
  void Update(uint64_t n) override { (void)n; }
  void Atomic(uint64_t n) override { ops += n; }

  uint64_t ops = 0;
};

/// Sliding window over the bridge stream of one rule.
class WindowRing {
 public:
  explicit WindowRing(uint32_t l) : l_(l), words_(l), owners_(l) {}

  void Reset() { size_ = 0; head_ = 0; }

  void Push(uint32_t word, uint32_t owner) {
    const uint32_t pos = (head_ + size_) % l_;
    if (size_ == l_) {
      head_ = (head_ + 1) % l_;
      words_[(pos) % l_] = word;
      owners_[(pos) % l_] = owner;
    } else {
      words_[pos] = word;
      owners_[pos] = owner;
      ++size_;
    }
  }

  bool Full() const { return size_ == l_; }

  /// True when all l tokens come from the same (child) element — the window
  /// is internal to that child and must not be counted here.
  bool AllSameOwner() const {
    const uint32_t o = owners_[head_];
    for (uint32_t i = 1; i < l_; ++i) {
      if (owners_[(head_ + i) % l_] != o) return false;
    }
    return true;
  }

  void CopyWords(uint32_t* out) const {
    for (uint32_t i = 0; i < l_; ++i) out[i] = words_[(head_ + i) % l_];
  }

 private:
  uint32_t l_;
  uint32_t size_ = 0;
  uint32_t head_ = 0;
  std::vector<uint32_t> words_;
  std::vector<uint32_t> owners_;
};

}  // namespace

Status GTadocEngine::SequenceTask(const TaskKernel& kernel,
                                  const RunPlan& plan,
                                  AnalyticsResult* out,
                                  double* phase1_seconds) {
  const TaskInput input = MakeInput();
  const uint32_t l = plan.window;
  const uint32_t hl = l - 1;
  const uint32_t n = dev_->num_rules;
  const uint32_t rule_base = dev_->num_words + (dev_->num_files - 1);
  const double sim_at_entry = device_->SimSeconds();
  const uint64_t allocs_at_entry = device_->stats().device_allocs;

  // =========================================================================
  // Phase 1: head/tail buffers (Figure 7). The expansion lengths were
  // resolved at plan time; head/tail storage sits at the plan's offsets —
  // one HeadTailLayout region per rule — so the pipeline's accumulator state
  // rides the same Section IV-C pool discipline as the other shapes.
  // =========================================================================
  const std::vector<uint64_t>& exp_len = plan.exp_len;
  const PlannedLease lease = AcquirePlanned(plan);
  auto ht = [&](uint32_t r) { return HeadTailRef(lease.state_at(r), hl); };
  // A rule's ready flag publishes its head/tail buffers: set with release
  // after they are written, read with acquire before a parent copies them
  // (rules of one round run on concurrent host workers).
  std::vector<std::atomic<uint8_t>> ht_mask(n);
  // The root has no parents; its buffers are never read.
  ht_mask[0].store(1, std::memory_order_relaxed);

  // Attempt kernel: returns per-rule success; a rule that hits a not-ready
  // child fails and retries next round (the Figure 7 flow).
  std::atomic<bool> progress{true};
  uint32_t p1_rounds = 0;
  while (progress.load(std::memory_order_relaxed)) {
    progress.store(false, std::memory_order_relaxed);
    ++p1_rounds;
    device_->Launch("initHeadTail", n, [&](gpu::ThreadCtx& ctx) {
      const uint32_t r = ctx.tid();
      ctx.Charge(1);
      if (ht_mask[r].load(std::memory_order_relaxed)) return;
      const uint64_t b0 = dev_->body_off[r], b1 = dev_->body_off[r + 1];
      const uint32_t want_h =
          static_cast<uint32_t>(std::min<uint64_t>(hl, exp_len[r]));
      // Head: walk forward.
      uint32_t got = 0;
      for (uint64_t p = b0; p < b1 && got < want_h; ++p) {
        const uint32_t sym = dev_->body_sym[p];
        ctx.Charge(1);
        if (sym < dev_->num_words) {
          ht(r).set_head(got++, sym);
        } else {
          const uint32_t c = sym - rule_base;
          // Not ready: fail, retry next round.
          if (!ht_mask[c].load(std::memory_order_acquire)) return;
          const uint32_t take = std::min(want_h - got, ht(c).head_len());
          for (uint32_t i = 0; i < take; ++i) {
            ht(r).set_head(got++, ht(c).head(i));
          }
          ctx.Charge(take);
          // If the child holds its complete (short) expansion we continue to
          // the next element; otherwise its head already satisfied want_h.
        }
      }
      // Tail: walk backward.
      const uint32_t want_t = want_h;
      uint32_t got_t = 0;  // collected from the end; tail stored left-to-right
      std::vector<uint32_t> rev;
      rev.reserve(want_t);
      for (uint64_t p = b1; p > b0 && got_t < want_t; --p) {
        const uint32_t sym = dev_->body_sym[p - 1];
        ctx.Charge(1);
        if (sym < dev_->num_words) {
          rev.push_back(sym);
          ++got_t;
        } else {
          const uint32_t c = sym - rule_base;
          if (!ht_mask[c].load(std::memory_order_acquire)) return;
          const uint32_t tl = ht(c).tail_len();
          const uint32_t take = std::min(want_t - got_t, tl);
          for (uint32_t i = 0; i < take; ++i) {
            rev.push_back(ht(c).tail(tl - 1 - i));
            ++got_t;
          }
          ctx.Charge(take);
        }
      }
      ht(r).set_lens(got, got_t);
      for (uint32_t i = 0; i < got_t; ++i) {
        ht(r).set_tail(got_t - 1 - i, rev[i]);
      }
      ht_mask[r].store(1, std::memory_order_release);
      progress.store(true, std::memory_order_relaxed);
    });
  }
  for (uint32_t r = 1; r < n; ++r) {
    if (!ht_mask[r].load(std::memory_order_relaxed)) {
      return Status::Internal("head/tail init did not converge");
    }
  }
  // Allocation calls are accounted separately into phase 1 by Run; excluding
  // them here keeps the cold and rebind paths' phase decomposition identical.
  *phase1_seconds =
      device_->SimSeconds() - sim_at_entry -
      device_->AllocSeconds(device_->stats().device_allocs - allocs_at_entry);

  // =========================================================================
  // Phase 2a: per-file rule weights (the file attribution for counts), as
  // DensePerFileLayout state over the plan's aux regions.
  // =========================================================================
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> fweight(n);
  {
    const StateLayout& fw_layout = DensePerFileLayout();
    // Root scan seeds; topological propagation. Host computes in topo order
    // through the layout hooks; the charging kernels below account the
    // equivalent per-layer waves at the GPU tariff tallied per rule.
    std::vector<uint64_t> per_rule_work(n, 0);
    const uint64_t root_len = dev_->body_off[1];
    TallyStateOps seed_tally;
    for (uint64_t p = 0; p < root_len; ++p) {
      const uint32_t sym = dev_->body_sym[p];
      if (sym >= rule_base) {
        fw_layout.Absorb(lease.aux_at(sym - rule_base),
                         dev_->root_file_of_pos[p], 1, seed_tally);
      }
    }
    // The root scan is a chunked kernel in its own right; its seeds' state
    // updates ride along (spread evenly to keep the per-thread balance the
    // scheduler assumes).
    const uint32_t seed_threads =
        static_cast<uint32_t>(std::max<uint64_t>(1, (root_len + 255) / 256));
    const uint64_t seed_extra = seed_tally.ops / seed_threads + 1;
    device_->Launch("seqRootSeed", seed_threads, [&](gpu::ThreadCtx& ctx) {
      const uint64_t lo = static_cast<uint64_t>(ctx.tid()) * 256;
      const uint64_t hi = std::min(root_len, lo + 256);
      ctx.Charge((hi > lo ? hi - lo : 0) + seed_extra);
    });
    for (uint32_t r : dag().topo_order()) {
      if (r == 0) continue;
      TallyStateOps tally;
      for (uint32_t e = dev_->child_off[r]; e < dev_->child_off[r + 1]; ++e) {
        fw_layout.Merge(lease.aux_at(dev_->child_id[e]), lease.aux_at(r),
                        dev_->child_freq[e], tally);
      }
      per_rule_work[r] += tally.ops;
    }
    for (uint32_t r = 1; r < n; ++r) {
      TallyStateOps read_tally;
      fw_layout.ForEach(lease.aux_at(r), read_tally,
                        [&](uint32_t file, uint64_t w) {
                          fweight[r].emplace_back(
                              file, static_cast<uint32_t>(w));
                        });
      std::sort(fweight[r].begin(), fweight[r].end());
      per_rule_work[r] += read_tally.ops;
    }
    device_->Launch("seqFileWeights", n, [&](gpu::ThreadCtx& ctx) {
      ctx.Charge(1 + per_rule_work[ctx.tid()]);
    });
  }

  // =========================================================================
  // Phase 2b: window enumeration into per-slice pair regions.
  // =========================================================================
  // Fine-grained thread-level scheduling (Section IV-B): rules whose bodies
  // exceed the 16x-average threshold -- above all the root -- are split into
  // element slices. A slice re-walks up to l-1 elements of lookback so that
  // windows whose last token falls inside the slice are seen with full
  // context; every token-emitting element emits at least one token, so l-1
  // elements always cover the l-token window.
  //
  // Emission bound per element: word = 1 token; child = complete expansion
  // (<= hl) or head+tail (2*hl). Pairs per token <= fanout (the rule's
  // per-file weight count; 1 for the root). EP is the global prefix of those
  // bounds, giving each slice a private, exactly-sized output region.
  std::vector<uint64_t> rule_loads(n);
  for (uint32_t r = 0; r < n; ++r) {
    rule_loads[r] = dev_->body_off[r + 1] - dev_->body_off[r];
  }
  const ThreadAssignment assign = BuildAssignment(
      rule_loads, options_.scheduling, options_.split_threshold);

  std::vector<uint64_t> ep(dev_->body_off[n] + 1, 0);
  for (uint32_t r = 0; r < n; ++r) {
    const uint64_t fanout = r == 0 ? 1 : fweight[r].size();
    for (uint64_t p = dev_->body_off[r]; p < dev_->body_off[r + 1]; ++p) {
      const uint32_t sym = dev_->body_sym[p];
      uint64_t tokens = 0;
      if (sym < dev_->num_words) {
        tokens = 1;
      } else if (sym >= rule_base) {
        tokens = 2ull * hl;
      }
      ep[p + 1] = ep[p] + tokens * fanout;
    }
  }
  const uint64_t max_pairs = ep[dev_->body_off[n]];
  std::vector<SeqPair> pairs(max_pairs);
  std::vector<uint32_t> gram_words(max_pairs * l);
  std::vector<uint64_t> slice_start(assign.total_threads, 0);
  std::vector<uint32_t> slice_count(assign.total_threads, 0);

  device_->Launch("seqWindows", assign.total_threads, [&](gpu::ThreadCtx& ctx) {
    const uint32_t r = assign.rule_of_thread[ctx.tid()];
    const uint32_t slot = assign.slot_of_thread[ctx.tid()];
    ctx.Charge(1);
    if (r != 0 && fweight[r].empty()) return;
    if (r != 0 && exp_len[r] < l) return;  // no window can end inside
    const uint64_t b0 = dev_->body_off[r], b1 = dev_->body_off[r + 1];
    uint64_t sl_begin, sl_end;  // element slice, relative to the body
    assign.Slice(r, slot, b1 - b0, &sl_begin, &sl_end);
    if (sl_begin >= sl_end) return;
    const uint64_t cursor = ep[b0 + sl_begin];
    slice_start[ctx.tid()] = cursor;
    uint32_t emitted = 0;
    uint32_t cur_file = 0;
    // Lookback: rebuild window context from up to l-1 earlier elements.
    const uint64_t walk_begin = sl_begin > (l - 1) ? sl_begin - (l - 1) : 0;
    // The root's current file must be reconstructed even across the lookback.
    if (r == 0 && walk_begin > 0) {
      cur_file = dev_->root_file_of_pos[b0 + walk_begin - 1];
    }

    WindowRing ring(l);
    bool counting = false;  // true once the walk enters the owned slice

    auto emit_window = [&]() {
      if (!counting || !ring.Full() || ring.AllSameOwner()) return;
      if (r == 0) {
        SeqPair& sp = pairs[cursor + emitted];
        sp.file = cur_file;
        sp.weight = 1;
        sp.gram_off = static_cast<uint32_t>((cursor + emitted) * l);
        ring.CopyWords(&gram_words[sp.gram_off]);
        ++emitted;
        ctx.Charge(l);
      } else {
        for (const auto& [file, w] : fweight[r]) {
          SeqPair& sp = pairs[cursor + emitted];
          sp.file = file;
          sp.weight = w;
          sp.gram_off = static_cast<uint32_t>((cursor + emitted) * l);
          ring.CopyWords(&gram_words[sp.gram_off]);
          ++emitted;
          ctx.Charge(l);
        }
      }
    };

    for (uint64_t rel = walk_begin; rel < sl_end; ++rel) {
      counting = rel >= sl_begin;
      const uint64_t p = b0 + rel;
      const uint32_t sym = dev_->body_sym[p];
      ctx.Charge(1);
      if (sym < dev_->num_words) {
        ring.Push(sym, static_cast<uint32_t>(rel));
        emit_window();
      } else if (sym < rule_base) {
        // Splitter: windows never span files.
        ring.Reset();
        cur_file = dev_->root_file_of_pos[p];
      } else {
        const uint32_t c = sym - rule_base;
        const HeadTailRef cht = ht(c);
        const uint32_t chl = cht.head_len();
        if (exp_len[c] <= hl) {
          // Complete expansion stored in the head buffer.
          for (uint32_t i = 0; i < chl; ++i) {
            ring.Push(cht.head(i), static_cast<uint32_t>(rel));
            emit_window();
          }
        } else {
          for (uint32_t i = 0; i < chl; ++i) {
            ring.Push(cht.head(i), static_cast<uint32_t>(rel));
            emit_window();
          }
          ring.Reset();  // the GAP: interior windows belong to the child
          const uint32_t ctl = cht.tail_len();
          for (uint32_t i = 0; i < ctl; ++i) {
            ring.Push(cht.tail(i), static_cast<uint32_t>(rel));
            emit_window();
          }
        }
      }
    }
    slice_count[ctx.tid()] = emitted;
  });

  // =========================================================================
  // Phase 2c: Figure 8 -- key-value pairs into the n-gram table.
  // =========================================================================
  std::vector<uint64_t> flat_items;  // global pair indices
  for (uint32_t t = 0; t < assign.total_threads; ++t) {
    for (uint32_t i = 0; i < slice_count[t]; ++i) {
      flat_items.push_back(slice_start[t] + i);
    }
  }
  // Sized from the tighter of the emitted-pair bound and the plan's
  // distinct-key hint (0 for the built-ins: distinct windows are unknowable
  // before the traversal, so the structural bound stands).
  gpu::GpuNgramTable::Options nopt;
  nopt.ngram_len = l;
  nopt.max_nodes = static_cast<uint32_t>(std::min<uint64_t>(
      PlannedTableNodes(flat_items.size(), plan.expected_keys), 1ull << 27));
  nopt.num_entries = nopt.max_nodes / 2 + 64;
  nopt.lock_mode = options_.lock_mode;
  gpu::GpuNgramTable table(device_, nopt);

  const bool ok = gpu::RoundLoop(
      device_, "seqInsert", flat_items.size(), 32,
      [&](size_t i, gpu::ThreadCtx& ctx) {
        const SeqPair& sp = pairs[flat_items[i]];
        return table.AddOrInsert(ctx, sp.file, &gram_words[sp.gram_off],
                                 sp.weight);
      });
  if (!ok) return Status::Internal("ngram table undersized");

  // =========================================================================
  // Drain into the kernel's result shape (the final per-group orderings are
  // charged by the kernel through GpuAssembly).
  // =========================================================================
  auto counts = table.Drain();
  if (options_.charge_pcie) {
    device_->CopyDeviceToHost(counts.size() * (16 + 4ull * l));
  }
  GpuAssembly ops(device_, lease.assembly());
  kernel.AssembleSequence(input, std::move(counts), &ops, out);
  return Status::OK();
}

}  // namespace gtadoc
