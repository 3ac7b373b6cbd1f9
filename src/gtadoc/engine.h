#ifndef GTADOC_GTADOC_ENGINE_H_
#define GTADOC_GTADOC_ENGINE_H_

#include <memory>

#include "analytics/document_index.h"
#include "analytics/engine.h"
#include "analytics/query_spec.h"
#include "analytics/results.h"
#include "analytics/run_plan.h"
#include "analytics/task_kernel.h"
#include "common/result.h"
#include "common/timer.h"
#include "format/dag.h"
#include "format/grammar.h"
#include "gpu/device.h"
#include "gpu/hash_table.h"
#include "gpu/memory_pool.h"
#include "gtadoc/device_grammar.h"
#include "gtadoc/scheduler.h"
#include "tadoc/strategy.h"

namespace gtadoc {

/// \brief G-TADOC: GPU text analytics directly on TADOC-compressed data —
/// the paper's contribution.
///
/// The engine owns (or borrows) a virtual GPU device and a self-maintained
/// memory pool, and binds by reference to the device grammar of its
/// document's shared DocumentIndex. It is task-agnostic: Run looks the task's
/// kernel up in the TaskRegistry and dispatches on the kernel's traversal
/// shape, so any registered kernel — including out-of-tree ones — executes
/// without engine changes. The three shape pipelines are:
///
///   - kGlobalWeight: Algorithm 1 top-down weight propagation (or the
///     Algorithm 2 bottom-up local-table variant), then a parallel reduce
///     into the Figure-5 global hash table (wordCount, sort);
///   - kPerFileWeight: per-file weight vectors (top-down) or local tables +
///     root scan (bottom-up), per the kernel's strategy hint; selective
///     kernels (keywordSearch) additionally prune rules whose subtree
///     contains no accepted word (invertedIndex, termVector, keywordSearch);
///   - kSequence: the two-phase sequence pipeline of Section IV-D —
///     head/tail buffer initialization (Figure 7), then weighted per-rule
///     window counting into the exact-key n-gram table (Figure 8)
///     (sequenceCount, rankedInvertedIndex, phraseSearch).
///
/// Plan/execute split: Run(task) first resolves a RunPlan — the strategy
/// decision, relevance mask, full region layout and table geometry — through
/// a PlanCache keyed by (grammar fingerprint, kernel, shape options). The
/// shape pipelines are pure executors of that plan, so a same-shape rebind
/// run skips planning entirely: plan_seconds == 0 and no relevance probe or
/// bounds traversal is launched. Run(plan) executes a plan resolved earlier
/// (the serving path: admission's probe plans, execution runs them).
///
/// Timing: phase 1 (initialization) covers loading the document onto the
/// device (the grammar arena allocation, the PCIe transfer and the root
/// scan — see GrammarLoad), memory-bound computation, planning (or a free
/// cache hit), pool allocation charges and head/tail initialization; phase 2
/// (graph traversal) covers the mask-driven traversal rounds, result
/// reduction and the D2H copy of the final tables (reported again, alone, as
/// download_seconds). A standalone engine loads its document at
/// Create/Rebind and reports that load in every Run; an engine bound to a
/// document its device already holds reports none.
class GTadocEngine {
 public:
  /// The per-run query fields (query_words/query_sets/top_k/ngram_len) are
  /// the shared QuerySpec base — one definition for every engine; see
  /// analytics/query_spec.h for the multi-query and inheritance rules.
  struct Options : QuerySpec {
    gpu::GpuSpec gpu;
    /// Host worker threads executing kernels (1 = fully deterministic).
    size_t host_workers = 1;
    TraversalStrategy strategy = TraversalStrategy::kAuto;
    /// The "16x the average number of elements per thread" rule threshold.
    uint32_t split_threshold = 16;
    SchedulingMode scheduling = SchedulingMode::kFineGrained;
    gpu::LockMode lock_mode = gpu::LockMode::kPerEntryTryLock;
    /// Charge PCIe transfers for the compressed data (each time a document
    /// is loaded onto a device; never for a resident one) and the drained
    /// results. Default false: the paper assumes small datasets are
    /// GPU-resident; the dataset-C experiments enable it.
    bool charge_pcie = false;
    /// Externally owned device to run on instead of creating one per engine.
    /// Batch execution points every document engine of a worker at one device
    /// so their pool storage can be recycled. Must outlive the engine. Null:
    /// the engine owns a private device.
    gpu::Device* shared_device = nullptr;
    /// Externally owned memory pool recycled across runs/documents
    /// (EnsureCapacity + ResetForReuse) instead of a cold per-run pool.
    /// Must be bound to `shared_device`. Null: task bodies allocate per run.
    gpu::MemoryPool* shared_pool = nullptr;
    /// Externally owned plan cache shared across engines (the batch/serving
    /// path: one cache serves every worker, so a document planned once is
    /// never planned again). Must outlive the engine. Null: the engine owns
    /// a private cache, which still serves repeat runs and rebinds.
    PlanCache* plan_cache = nullptr;
  };

  /// How binding a document charges putting its device grammar on the
  /// engine's device (DeviceGrammar::Load). The measured load is reported
  /// in the init phase of every subsequent Run.
  enum class GrammarLoad {
    /// Load into the engine's recycled grammar arena: the allocation call
    /// is charged only when the document outgrows it (always on Create).
    /// The standalone and batch path.
    kArena,
    /// The document's first load onto a device that keeps it resident: its
    /// own arena allocation, the upload and the root scan.
    kFirst,
    /// The device already holds the document: nothing is charged.
    kResident,
  };

  /// Builds the grammar's DocumentIndex (validating it) and creates the
  /// engine over it.
  static Result<std::unique_ptr<GTadocEngine>> Create(const Grammar* g,
                                                      const Options& options);
  /// Creates the engine over `g`'s prebuilt index (shared: the engine keeps
  /// a reference and traverses its device grammar in place), creates the
  /// memory pool, and loads the document onto the device as `load` says.
  static Result<std::unique_ptr<GTadocEngine>> Create(
      const Grammar* g, std::shared_ptr<const DocumentIndex> index,
      const Options& options, GrammarLoad load = GrammarLoad::kArena);

  /// Executes one task; `strategy_override` forces a traversal direction for
  /// the Section VI-C experiment. Resolves the plan through the cache, then
  /// executes it exactly as Run(plan) would.
  Result<EngineRun> Run(Task task,
                        TraversalStrategy strategy_override =
                            TraversalStrategy::kAuto);

  /// Executes a plan resolved earlier (a serving probe's), touching neither
  /// the planner nor the cache: plan_seconds == 0 and the run counts as one
  /// plan hit. InvalidArgument unless the plan was built by the GPU planner
  /// for this engine's grammar (key.backend, key.grammar_fp).
  Result<EngineRun> Run(const RunPlan& plan);

  /// Resolves (and caches) the plan a Run of (task, strategy_override) would
  /// consume, WITHOUT executing anything: `plan->total_slots` is the run's
  /// full pool footprint, known before any traversal, upload or table
  /// build. On a cache miss the charged planning passes advance this
  /// engine's device clock; a subsequent Run with the same shape is then a
  /// plan-cache hit and reports plan_seconds == 0.
  Result<std::shared_ptr<const RunPlan>> PlanOnly(
      Task task,
      TraversalStrategy strategy_override = TraversalStrategy::kAuto);

  /// The per-run TaskInput `options` describe (query_sets flattened into the
  /// effective accept set) — the exact input every kernel hook of a Run built
  /// from `options` receives. Exposed so serving layers (the gather's empty
  /// assembly, the CorpusServer's Bloom pushdown) evaluate kernels against
  /// precisely the input the engines would use, with no risk of drift.
  static TaskInput InputFromOptions(const Options& options);

  /// Re-targets the engine at another document without rebuilding the device
  /// context: the engine binds to the new document's device grammar and
  /// loads it as `load` says (by default into the recycled arena, whose
  /// allocation call is charged only when the document outgrows it), and
  /// subsequent Runs charge the new document's init cost. The grammar must
  /// outlive the engine. This is the batch warm path; a fresh Create is the
  /// cold path. Builds the grammar's DocumentIndex first.
  Status Rebind(const Grammar* g);
  /// Rebind onto `g`'s prebuilt (shared) index.
  void Rebind(const Grammar* g, std::shared_ptr<const DocumentIndex> index,
              GrammarLoad load = GrammarLoad::kArena);

  const DagView& dag() const { return index_->dag; }
  gpu::Device* device() { return device_; }
  TraversalStrategy ChosenStrategy(Task task) const;
  const Options& options() const { return options_; }
  /// The engine's plan cache (owned or shared; diagnostics/serving stats).
  PlanCache* plan_cache() const { return plan_cache_; }
  /// The cached plan a Run of (task, strategy_override) would consume, or
  /// null before any such run. Does not touch the hit/miss counters.
  std::shared_ptr<const RunPlan> CachedPlan(
      Task task,
      TraversalStrategy strategy_override = TraversalStrategy::kAuto) const;

  /// Number of mask-protocol traversal rounds in the last Run (diagnostics;
  /// bounded by the DAG depth k of the complexity analysis).
  uint32_t last_traversal_rounds() const { return last_rounds_; }

 private:
  explicit GTadocEngine(const Options& options);

  // --- shared helpers (engine.cc) ---
  /// The per-run task parameters handed to every kernel hook
  /// (InputFromOptions over this engine's options).
  TaskInput MakeInput() const;
  /// The one executor body behind both Runs. The device clock was reset at
  /// the run's start and `before` is a snapshot of the device stats then
  /// (by value: the live stats move as the run charges); anything charged
  /// since is the run's planning (none when `plan` was a hit or handed in).
  Result<EngineRun> Execute(const TaskKernel& kernel, const RunPlan& plan,
                            gpu::DeviceStats before, bool cache_hit,
                            const Timer& wall);
  /// Sizes the global reduce table from the tighter of the plan's
  /// ExpectedDistinctKeys hint and the driver's structural bound.
  gpu::GpuHashTable::Options WordTableOptions(const RunPlan& plan,
                                              uint64_t structural_bound) const;
  struct PlannedLease;  // defined below
  /// Per-rule occurrence weights via Algorithm 1, carried in the kernel's
  /// top-down state layout over the lease's planned regions; returns the
  /// number of kernel rounds executed.
  uint32_t ComputeGlobalWeights(const TaskKernel& kernel,
                                const PlannedLease& lease,
                                std::vector<uint64_t>* weights);
  /// Drains a global word table into (word, count) pairs (order unspecified),
  /// charging the D2H copy when PCIe is billed.
  void DrainWordTable(const gpu::GpuHashTable& table,
                      std::vector<std::pair<uint32_t, uint64_t>>* counts);

  /// The run's pool regions, resolved by the plan and backed by one pool
  /// acquisition: the shared pool recycled in place when the options carry
  /// one, otherwise the engine-owned pool — also recycled (EnsureCapacity +
  /// ResetForReuse), so an allocation call is only charged when a run
  /// outgrows the engine's high-water mark. Exactly one acquisition per run
  /// covers the traversal state, the sequence aux regions AND the assembly
  /// lease (growth mid-run would invalidate planned offsets).
  ///
  /// sizes[r] == 0 marks a pruned rule: it owns no region and its view is
  /// invalid — the Section IV-C memory-requirement transmission, resolved at
  /// plan time.
  struct PlannedLease {
    gpu::MemoryPool* pool = nullptr;
    const RunPlan* plan = nullptr;
    StateView state_at(uint32_t r) const {
      return StateView(pool->slab(), plan->state.offsets[r],
                       plan->state.sizes[r]);
    }
    StateView aux_at(uint32_t r) const {
      return StateView(pool->slab(), plan->aux.offsets[r],
                       plan->aux.sizes[r]);
    }
    PoolLease assembly() const {
      return PoolLease{pool, plan->assembly_offset, plan->assembly_slots};
    }
  };
  PlannedLease AcquirePlanned(const RunPlan& plan);

  /// Algorithm 2 shared machinery (bottomup.cc): pool regions at the plan's
  /// bottom-up offsets and the leaves-to-root merge rounds driving the
  /// layout hooks (the bound pass already ran at plan time).
  Status BuildRuleStates(const TaskKernel& kernel, const RunPlan& plan,
                         const PlannedLease& lease, uint32_t* rounds);

  // --- shape drivers: pure executors of a RunPlan ---
  // top-down (topdown.cc)
  Status GlobalTopDown(const TaskKernel& kernel, const RunPlan& plan,
                       AnalyticsResult* out);
  Status FileTaskTopDown(const TaskKernel& kernel, const RunPlan& plan,
                         AnalyticsResult* out);
  /// Figure 4(a) strawman used by the scheduling ablation.
  Status GlobalVerticalPartition(const TaskKernel& kernel, const RunPlan& plan,
                                 AnalyticsResult* out);

  // bottom-up (bottomup.cc)
  Status GlobalBottomUp(const TaskKernel& kernel, const RunPlan& plan,
                        AnalyticsResult* out);
  Status FileTaskBottomUp(const TaskKernel& kernel, const RunPlan& plan,
                          AnalyticsResult* out);

  // sequence pipeline (sequence.cc)
  Status SequenceTask(const TaskKernel& kernel, const RunPlan& plan,
                      AnalyticsResult* out, double* phase1_seconds);

  const Grammar* g_ = nullptr;
  std::shared_ptr<const DocumentIndex> index_;
  Options options_;
  std::unique_ptr<gpu::Device> owned_device_;
  gpu::Device* device_ = nullptr;  ///< owned_device_ or options_.shared_device
  /// The engine's recycled state pool (used when options_.shared_pool is
  /// null); grows to the engine's high-water mark once.
  std::unique_ptr<gpu::MemoryPool> owned_pool_;
  /// The engine's plan cache when options_.plan_cache is null.
  std::shared_ptr<PlanCache> owned_plan_cache_;
  PlanCache* plan_cache_ = nullptr;
  /// The bound document's device grammar (index_->device_grammar).
  const DeviceGrammar* dev_ = nullptr;
  /// Extents of the engine's recycled grammar arena (GrammarLoad::kArena).
  GrammarArena arena_;
  /// Simulated seconds the last load consumed (charged into every Run's
  /// phase 1), and the H2D share of them that a batch can overlap with a
  /// previous document's traversal.
  double load_seconds_ = 0;
  double upload_seconds_ = 0;
  uint64_t load_ops_ = 0;
  uint32_t last_rounds_ = 0;
};

/// \brief The GPU planner: charges the planning passes as kernels on a
/// device over one document's device grammar, and prices plans under the
/// GPU options' cost model.
///
/// Bounds run as the genLocTblBound mask-protocol kernel, expansion lengths
/// as the sequence pipeline's expLen rounds, and the relevance probe as one
/// flat planBloomRelevance launch. It holds no engine: a GTadocEngine plans
/// on its own device, and the serving Submit probe on a probe device of its
/// own. `device`, `grammar` and `options` must outlive the planner.
class GpuPlanner : public Planner {
 public:
  GpuPlanner(gpu::Device* device, const DeviceGrammar& grammar,
             const GTadocEngine::Options& options)
      : device_(device), dev_(grammar), options_(options) {}

  /// The shape-relevant slice of `options` a GPU plan key hashes.
  static PlanShape Shape(const GTadocEngine::Options& options);

 protected:
  std::vector<uint64_t> BoundsTraversal(const WordFilter& filter,
                                        uint64_t vocab_clamp) override;
  std::vector<uint64_t> ExpansionPass() override;
  void ChargeFlat(const char* what, uint64_t items,
                  uint64_t ops_per_item) override;
  CostEstimate PriceEstimate(const PlanWorkProfile& p) override;

 private:
  gpu::Device* device_;
  const DeviceGrammar& dev_;
  const GTadocEngine::Options& options_;
};

}  // namespace gtadoc

#endif  // GTADOC_GTADOC_ENGINE_H_
