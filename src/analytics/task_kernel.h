#ifndef GTADOC_ANALYTICS_TASK_KERNEL_H_
#define GTADOC_ANALYTICS_TASK_KERNEL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "analytics/engine.h"
#include "analytics/results.h"
#include "analytics/state_layout.h"
#include "common/result.h"
#include "format/dag.h"
#include "format/grammar.h"
#include "gpu/ngram_table.h"
#include "tadoc/strategy.h"

namespace gtadoc {

namespace gpu {
class MemoryPool;
}

/// \brief Per-run task parameters beyond the task id itself.
///
/// Engines build one TaskInput from their options and hand it to every kernel
/// hook, so kernels stay stateless singletons and one registry entry serves
/// every engine and every run.
struct TaskInput {
  uint32_t ngram_len = 3;  ///< l of the sequence tasks
  /// The query word-id set of selective kernels (kKeywordSearch), or the
  /// ordered phrase of kPhraseSearch. When query_sets is non-empty this
  /// holds the flattened union of all sets (the run's accept set), built by
  /// the engines' MakeInput.
  std::vector<uint32_t> query_words;
  /// Multi-query sets (the engines' Options::query_sets): one relevance and
  /// traversal pass serves every set, with per-set results delivered in
  /// AnalyticsResult::keyword_multi.
  std::vector<std::vector<uint32_t>> query_sets;
  /// k of bounded-selection kernels (kTopKWords).
  uint32_t top_k = 10;
};

/// \brief The traversal machinery a kernel rides on.
///
/// Every analytics task in the TADOC line is one traversal + per-element
/// visit + merge; the three shapes are the three accumulator layouts the
/// drivers know how to propagate (Section IV of the paper):
///
///   - kGlobalWeight: one scalar occurrence weight per rule, reduced into a
///     single corpus-wide word table (wordCount, sort);
///   - kPerFileWeight: a per-file weight vector per rule, reduced into one
///     (file, word) table (invertedIndex, termVector, keywordSearch);
///   - kSequence: the two-phase head/tail window pipeline producing a
///     (file, l-gram) table (sequenceCount, rankedInvertedIndex).
enum class TraversalShape {
  kGlobalWeight,
  kPerFileWeight,
  kSequence,
};

const char* TraversalShapeName(TraversalShape shape);

/// One (file, word) -> count entry drained from a per-file pipeline.
struct FileWordCount {
  uint32_t file;
  uint32_t word;
  uint64_t count;
};

/// \brief Cost-charging seam of the result-assembly hooks.
///
/// Each driver charges the same logical assembly work to its own cost model:
/// the CPU engines to a CpuCostMeter, the GPU engine to the virtual device
/// clock. The kernel describes *what* the assembly does; the ops object
/// decides what it costs, so one assembly implementation yields bit-identical
/// results under every engine.
class AssemblyOps {
 public:
  virtual ~AssemblyOps() = default;

  /// n bookkeeping updates (map inserts, emplaces) while reshaping a drained
  /// table into the result type.
  virtual void ChargeUpdates(uint64_t n) = 0;
  /// One comparison sort of n elements.
  virtual void ChargeSort(uint64_t n) = 0;
  /// Final per-group orderings of a grouped result: `groups` sorted lists
  /// totalling `entries` elements (rankedInvertedIndex's per-gram ranking).
  virtual void ChargeGroupSort(uint64_t groups, uint64_t entries) = 0;
  /// Sorts (key, value) pairs ascending by key, charging this backend's sort
  /// cost (the `sort` task's final ordering).
  virtual void SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* kv) = 0;
  /// Bounded selection: reduces each group to its k best (count desc, id
  /// asc) entries, ordered. Both backends push through BoundedHeapLayout
  /// state — the GPU over pool-carved per-group regions as device kernels,
  /// the CPU over a host arena charged to the meter — so the survivors are
  /// bit-identical; only the pricing differs.
  virtual void SelectTopK(
      uint32_t k,
      std::vector<std::vector<std::pair<uint32_t, uint64_t>>>* groups) = 0;
};

/// AssemblyOps charging a CpuCostMeter (CPU engines + sequential baseline).
/// A null meter charges nothing (uncharged reference runs).
class CpuAssembly : public AssemblyOps {
 public:
  explicit CpuAssembly(CpuCostMeter* meter) : meter_(meter) {}

  void ChargeUpdates(uint64_t n) override;
  void ChargeSort(uint64_t n) override;
  void ChargeGroupSort(uint64_t groups, uint64_t entries) override;
  void SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* kv) override;
  void SelectTopK(
      uint32_t k,
      std::vector<std::vector<std::pair<uint32_t, uint64_t>>>* groups)
      override;

 private:
  CpuCostMeter* meter_;
};

/// A planned region of the run's memory pool handed to the assembly stage:
/// `slots` slots starting at `offset` in `pool`'s slab, reserved by the
/// RunPlan so SelectTopK heaps live inside the run's single pool acquisition
/// (no extra allocation call, no scoped pool, and the traversal regions stay
/// untouched). slots == 0 means no lease was planned.
struct PoolLease {
  gpu::MemoryPool* pool = nullptr;
  uint64_t offset = 0;
  uint64_t slots = 0;
};

/// AssemblyOps charging the virtual GPU. Host-side reshaping of drained
/// tables is free (it happens after the D2H drain, like the hand-written
/// drivers it replaces); sorts run as device kernels. `lease` (optional) is
/// the run's planned assembly region: SelectTopK carves its heap regions
/// from it, so warm runs pay no extra allocation call. With a pool but an
/// undersized lease (a custom kernel that declared no AssemblyStateSlots)
/// it recycles the pool whole — the traversal regions are dead by assembly
/// time — and only without any pool does it fall back to a scoped one.
class GpuAssembly : public AssemblyOps {
 public:
  explicit GpuAssembly(gpu::Device* device, PoolLease lease = PoolLease())
      : device_(device), lease_(lease) {}

  void ChargeUpdates(uint64_t n) override;
  void ChargeSort(uint64_t n) override;
  void ChargeGroupSort(uint64_t groups, uint64_t entries) override;
  void SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* kv) override;
  void SelectTopK(
      uint32_t k,
      std::vector<std::vector<std::pair<uint32_t, uint64_t>>>* groups)
      override;

 private:
  gpu::Device* device_;
  PoolLease lease_;
};

/// \brief One analytics task as a pluggable operator.
///
/// A kernel owns everything task-specific: its accumulator shape, its word
/// filter, its traversal-strategy and memory-footprint hints, the assembly of
/// drained accumulator state into the result type, the corpus-level
/// merge/finalize logic, and the uncompressed reference loop. The traversal
/// drivers (GPU engine, both CPU engines, the uncompressed baselines) are
/// task-agnostic callers of this interface, so adding a task means writing
/// one kernel and registering it — no engine edits.
class TaskKernel {
 public:
  virtual ~TaskKernel() = default;

  // --- identity -----------------------------------------------------------
  /// The registry id this kernel serves (engines dispatch by it; out-of-tree
  /// kernels may use any unregistered integer beyond the named enum).
  virtual Task task() const = 0;
  /// Display name ("wordCount", "keywordSearch", ...).
  virtual const char* name() const = 0;

  // --- traversal contract -------------------------------------------------
  /// The traversal machinery this kernel rides (see TraversalShape): the
  /// engines dispatch on this, never on the task id.
  virtual TraversalShape shape() const = 0;
  /// True for kernels that need the head/tail sequence machinery.
  bool sequence_sensitive() const {
    return shape() == TraversalShape::kSequence;
  }

  /// The accumulator state this kernel's traversal carries per rule under
  /// `strategy`. Defaults to the canonical layout of the kernel's shape
  /// (scalar weight / dense per-file / local word table / head-tail); a
  /// kernel overrides it to carry a custom shape — a presence bitmap, a
  /// bounded heap, a scored vector — through the unmodified drivers, which
  /// allocate, initialize, merge and drain state purely through the layout's
  /// hooks.
  virtual const StateLayout& Layout(TraversalStrategy strategy) const;

  /// Approximate per-rule bytes of accumulator state the traversal carries
  /// under `strategy` — the Section IV-C memory-requirement hint the
  /// strategy selector reasons about. The default charges the kernel's
  /// Layout for it, so a custom layout automatically steers the selector.
  virtual uint64_t StateBytesPerRule(const Grammar& g, const TaskInput& input,
                                     TraversalStrategy strategy) const;

  /// Upper bound on the distinct keys of the run's global reduce table (the
  /// Figure-5 hash table / n-gram table): the vocabulary for word-keyed
  /// shapes, files x vocabulary for per-file shapes, both clamped to the
  /// accept set for selective kernels. Drivers size the table from the
  /// tighter of this hint and their structural bound, cutting the try-lock
  /// retry rounds selective kernels would pay on an oversized generic
  /// table. 0 means "no hint" (sequence shapes: distinct windows are
  /// unknowable before the traversal). Must never under-estimate — a table
  /// sized from a low hint fails the run with Internal.
  virtual uint64_t ExpectedDistinctKeys(const StateDims& dims,
                                        const TaskInput& input) const;

  /// The kernel's preferred traversal direction for this grammar and run
  /// input. The default derives the paper's heuristic from the footprint
  /// hint: top-down is free while the propagated state stays within a cache
  /// line's worth of bytes per rule; once it grows with the file count past
  /// that, bottom-up local tables win (Section VI-C).
  virtual TraversalStrategy PreferredStrategy(const Grammar& g,
                                              const DagView& dag,
                                              const TaskInput& input) const;

  /// Window length of the sequence pipeline: the l of the drained
  /// (file, l-gram) table. Defaults to the run's ngram_len; kernels whose
  /// window is query-derived (kPhraseSearch matches phrases of the query's
  /// length) override it. Only consulted for kSequence shapes.
  virtual uint32_t SequenceWindow(const TaskInput& input) const {
    return input.ngram_len;
  }

  /// Pool slots this kernel's result assembly needs (the
  /// AssemblyOps::SelectTopK heap regions). The planner reserves them inside
  /// the run's single pool acquisition so assembly reuses the run's lease
  /// instead of growing the pool or opening a scoped one. 0 (the default)
  /// reserves nothing.
  virtual uint64_t AssemblyStateSlots(const StateDims& dims,
                                      const TaskInput& input) const {
    (void)dims;
    (void)input;
    return 0;
  }

  // --- selective-scan support ---------------------------------------------
  /// Null: the kernel consumes every word. Non-null: only the returned
  /// word-id set contributes, and drivers may prune rules whose subtree
  /// contains none of them (the keyword-search grammar exploit). The pointer
  /// must stay valid for the run (it typically aliases `input`).
  virtual const std::vector<uint32_t>* AcceptedWords(
      const TaskInput& input) const {
    (void)input;
    return nullptr;
  }

  /// Corpus-pushdown seam: may a document whose root Bloom filter is
  /// `root_bloom` (DocumentBloom, covering the document's whole vocabulary)
  /// produce any output for this run? The serving layer
  /// (CorpusServer / BloomExecuteMask) skips documents this returns false
  /// for — no upload, no plan, no traversal — so false must be a *proof* of
  /// an empty result; false positives (true without a real match) only cost
  /// work, never correctness. The default derives the answer from
  /// AcceptedWords: non-selective kernels always execute, selective ones
  /// execute iff any accepted word may be present. Kernels with stronger
  /// conjunctive semantics override — phraseSearch rejects a document
  /// unless EVERY word of some query phrase may be present, even though its
  /// sequence traversal declares no word filter (window adjacency needs the
  /// full stream).
  virtual bool MayMatchDocument(uint64_t root_bloom,
                                const TaskInput& input) const;

  // --- result assembly (shared by GPU / CPU / uncompressed drivers) -------
  /// kGlobalWeight: builds the result from drained (word, count) pairs
  /// (order unspecified; counts pre-aggregated per word).
  virtual void AssembleGlobal(
      const TaskInput& input,
      const std::vector<std::pair<uint32_t, uint64_t>>& counts,
      AssemblyOps* ops, AnalyticsResult* out) const;
  /// kPerFileWeight: builds the result from drained (file, word, count)
  /// triples (order unspecified; counts pre-aggregated, zero counts removed).
  virtual void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                                const std::vector<FileWordCount>& counts,
                                AssemblyOps* ops, AnalyticsResult* out) const;
  /// kSequence: builds the result from drained (file, gram, count) entries
  /// (flat arrays, order unspecified, one entry per key).
  virtual void AssembleSequence(const TaskInput& input,
                                gpu::NgramCounts counts, AssemblyOps* ops,
                                AnalyticsResult* out) const;

  // --- result operations (absorbed from the old results.cc switches) ------
  /// Canonical ordering of ties the task definition leaves ambiguous.
  virtual void Canonicalize(AnalyticsResult* result) const { (void)result; }
  /// Folds one document's result into a corpus accumulator, offsetting the
  /// document-local file ids by `file_base`.
  virtual void Merge(const AnalyticsResult& doc, uint32_t file_base,
                     AnalyticsResult* acc, uint64_t* merge_ops) const = 0;
  /// Completes an accumulator built by Merge (derived orderings), then
  /// canonicalizes.
  virtual void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const;
  /// Serialized result size in bytes (D2H drain / shuffle volume).
  virtual uint64_t ResultBytes(const AnalyticsResult& result,
                               uint32_t ngram_len) const = 0;
  /// Structural equality of two results of this task.
  virtual bool Equal(const AnalyticsResult& a,
                     const AnalyticsResult& b) const = 0;
  /// Folds the result into a (hash, entry-count) digest.
  virtual void DigestFold(const AnalyticsResult& result, uint64_t* hash,
                          size_t* entries) const = 0;

  // --- uncompressed reference ---------------------------------------------
  /// The task's reference loop over raw token streams: ground truth for every
  /// engine and the sequential half of the Section VI-E baseline. Charges
  /// `meter` (nullable) with the CPU engines' discipline.
  virtual AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const = 0;
};

/// \brief Materialized accept-set for one run.
///
/// Built once by each driver from the kernel's AcceptedWords; a
/// non-selective kernel costs one branch per call, a selective one a bitmap
/// probe. `selective()` gates the drivers' rule-pruning passes.
class WordFilter {
 public:
  /// Non-selective filter accepting everything (RunPlan default state).
  WordFilter() = default;
  WordFilter(const TaskKernel& kernel, const TaskInput& input,
             uint32_t num_words);

  bool Accepts(uint32_t word) const {
    return !selective_ || (word < bits_.size() && bits_[word] != 0);
  }
  bool selective() const { return selective_; }
  /// Number of distinct accepted words (vocabulary size when not selective).
  uint32_t accepted_count() const { return accepted_count_; }

  /// Bitwise equality (the plan-cache determinism contract).
  bool operator==(const WordFilter& o) const {
    return selective_ == o.selective_ &&
           accepted_count_ == o.accepted_count_ && bits_ == o.bits_;
  }

 private:
  bool selective_ = false;
  uint32_t accepted_count_ = 0;
  std::vector<uint8_t> bits_;
};

/// \brief Process-wide task registry: one kernel per task id.
///
/// Seeded with the ten built-in kernels on first use; out-of-tree kernels
/// register at runtime (see examples/custom_task.cpp) and immediately work
/// through every engine, because the engines dispatch on shape, not task id.
class TaskRegistry {
 public:
  static TaskRegistry& Instance();

  /// Registers a kernel. Fails with InvalidArgument when the id is taken or
  /// the kernel is null.
  Status Register(std::unique_ptr<TaskKernel> kernel);

  /// The kernel for `task`, or a clean NotFound error for unknown ids.
  static Result<const TaskKernel*> Get(Task task);
  /// The kernel for `task`, or nullptr (lookup that cannot fail).
  static const TaskKernel* Find(Task task);
  /// Every registered task id, ascending.
  static std::vector<Task> RegisteredTasks();

 private:
  TaskRegistry();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_TASK_KERNEL_H_
