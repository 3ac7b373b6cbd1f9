#ifndef GTADOC_ANALYTICS_RUN_PLAN_H_
#define GTADOC_ANALYTICS_RUN_PLAN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "analytics/task_kernel.h"
#include "common/result.h"
#include "format/dag.h"
#include "format/grammar.h"
#include "tadoc/strategy.h"

namespace gtadoc {

struct DocumentIndex;

/// Identity of a grammar for plan-cache keying: an FNV fold of the symbol
/// space and every rule body. Host-side and O(compressed size); computed
/// once per document by DocumentIndex::Build, never per Run.
uint64_t GrammarFingerprint(const Grammar& g);

/// \brief The run options that affect a plan's shape.
///
/// Two runs with equal PlanShape (and equal grammar fingerprint, task and
/// strategy override) consume the same plan: the strategy decision, the
/// relevance mask, every region offset and the table geometry are all pure
/// functions of these fields.
struct PlanShape {
  TaskInput input;  ///< ngram_len, effective query words, query sets, top_k
  int scheduling = 0;
  /// True when the global shape runs the Figure 4(a) vertical-partition
  /// strawman, which carries no per-rule state for the plan to lay out.
  bool vertical_partition = false;
  int lock_mode = 0;
  uint32_t split_threshold = 16;

  uint64_t Fingerprint() const;
};

/// PlanKey::backend values. Plans embed engine-specific artifacts (GPU plans
/// carry sequence expansion lengths, CPU plans none), so a cache shared
/// between a CPU and a GPU engine must never serve a plan across backends —
/// the backend field keys them apart.
enum PlanBackend : int {
  kGpuPlanBackend = 0,
  kCpuPlanBackend = 1,
};

/// Cache key of one plan: (backend, grammar, kernel, strategy override,
/// shape).
struct PlanKey {
  int backend = kGpuPlanBackend;
  uint64_t grammar_fp = 0;
  int task = 0;
  int strategy_override = 0;
  uint64_t shape_fp = 0;

  bool operator==(const PlanKey& o) const {
    return backend == o.backend && grammar_fp == o.grammar_fp &&
           task == o.task && strategy_override == o.strategy_override &&
           shape_fp == o.shape_fp;
  }
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const;
};

/// One family of pool regions with resolved offsets (absolute slots into the
/// run's pool slab), one region per rule; sizes[r] == 0 marks a rule that
/// owns no region (pruned, or the root).
struct RegionGroup {
  std::vector<uint64_t> sizes;
  std::vector<uint64_t> offsets;

  bool empty() const { return sizes.empty(); }
  bool operator==(const RegionGroup& o) const {
    return sizes == o.sizes && offsets == o.offsets;
  }
};

/// One past the last slot a region group occupies (0 for an empty group) —
/// what a backing slab must cover to hold just this group.
uint64_t RegionGroupEnd(const RegionGroup& group);

/// \brief Backend-neutral work quantities of one plan, filled by
/// Planner::BuildPlan from what the plan already resolves (relevant-rule
/// count, bounds mass, state/table geometry, upload size).
///
/// Both planners compute the identical profile for the same (grammar, kernel,
/// shape); only the *pricing* differs per backend (PriceEstimate). That is
/// what makes CPU and GPU estimates comparable: same work, each backend's own
/// cost constants.
struct PlanWorkProfile {
  uint64_t num_rules = 0;
  /// Rules the traversal actually visits (selective top-down plans prune to
  /// the relevance mask; everything else touches all rules).
  uint64_t relevant_rules = 0;
  /// Body symbols walked by the traversal (restricted to relevant rules for
  /// selective plans) plus one descent item per visited rule.
  uint64_t traversal_items = 0;
  /// Accumulator updates: bounds mass for bottom-up plans, laid-out state
  /// slots merged for weight shapes (hash/table update discipline).
  uint64_t reduce_items = 0;
  /// The run's full pool footprint (init + merge sweep both scale with it).
  uint64_t state_slots = 0;
  /// Grammar upload size — only the GPU pays this (PCIe), and only when the
  /// engine charges transfers.
  uint64_t upload_bytes = 0;
  /// Dependence-ordered launch rounds (levels of the DAG, both directions,
  /// plus init/assembly) — the GPU's fixed dispatch bill.
  uint64_t rounds = 0;
  /// Full expanded token stream length. The CPU sequence driver walks every
  /// token; the GPU pipeline stays in the compressed domain and never pays
  /// this.
  uint64_t sequence_tokens = 0;
  uint32_t window = 3;

  bool operator==(const PlanWorkProfile& o) const {
    return num_rules == o.num_rules && relevant_rules == o.relevant_rules &&
           traversal_items == o.traversal_items &&
           reduce_items == o.reduce_items && state_slots == o.state_slots &&
           upload_bytes == o.upload_bytes && rounds == o.rounds &&
           sequence_tokens == o.sequence_tokens && window == o.window;
  }
};

/// \brief One backend's predicted simulated-seconds cost for a plan, priced
/// from its PlanWorkProfile under that backend's cost constants — the number
/// the server compares across backends to dispatch a run without executing
/// it.
struct CostEstimate {
  /// Predicted simulated seconds to execute the plan (fixed + work).
  double seconds = 0.0;
  /// Work-independent floor: kernel launches, device allocation, upload.
  /// Zero for the CPU backend — which is exactly why it wins the selective
  /// tail.
  double fixed_seconds = 0.0;
  /// Priced work items behind `seconds` (audit/monotonicity hook).
  uint64_t work_items = 0;

  bool operator==(const CostEstimate& o) const {
    return seconds == o.seconds && fixed_seconds == o.fixed_seconds &&
           work_items == o.work_items;
  }
};

/// \brief Everything a traversal needs that is a pure function of (grammar,
/// kernel, shape-relevant options) — produced once by a Planner, cached in a
/// PlanCache, and consumed by the engines' executors.
///
/// A plan holds the strategy decision, the run's word filter and accepted
/// dimensions, the rule-relevance mask of selective kernels, the bottom-up
/// content bounds, the full StateLayout region plan with resolved offsets
/// (traversal state, sequence per-file-weight state, and the assembly lease),
/// and the ExpectedDistinctKeys table sizing hint. Executing from a cached
/// plan performs zero region planning and zero relevance traversal.
struct RunPlan {
  PlanKey key;
  Task task = Task::kWordCount;
  TraversalStrategy strategy = TraversalStrategy::kTopDown;
  /// Accepted-vocabulary-aware layout dimensions (ngram_len is the kernel's
  /// sequence window, which query-derived kernels may override).
  StateDims dims;
  uint32_t window = 3;
  WordFilter filter;
  /// Per-rule relevance of per-file top-down runs; empty when the executor
  /// needs no mask. True = the rule's subtree may contain an accepted word:
  /// a probe of the index's rule Blooms for selective runs, so a superset of
  /// the exact answer (supersets only cost work, never correctness); all
  /// rules otherwise.
  std::vector<uint8_t> relevant;
  /// Bottom-up per-rule content bounds (Algorithm 2's memory-requirement
  /// transmission); empty for top-down plans.
  std::vector<uint64_t> bound;
  /// Per-rule expansion lengths of the sequence pipeline; empty elsewhere.
  std::vector<uint64_t> exp_len;
  /// Traversal state regions (the kernel's layout).
  RegionGroup state;
  /// Sequence-shape per-file rule-weight regions (DensePerFileLayout).
  RegionGroup aux;
  /// Assembly lease: slots reserved for AssemblyOps::SelectTopK heaps so the
  /// assembly reuses the run's pool instead of a scoped pool.
  uint64_t assembly_offset = 0;
  uint64_t assembly_slots = 0;
  /// Pool capacity covering every group above — the run's FULL device pool
  /// footprint, known before execution. This is the serving layer's
  /// scheduler input: CorpusServer admission-controls and bin-packs
  /// concurrent runs from this one number, then hands the same plans to
  /// execution, where BatchEngine pre-sizes each context's pool to the
  /// largest handed total_slots before any document runs — which is what
  /// guarantees zero mid-run EnsureCapacity growth.
  uint64_t total_slots = 0;
  /// The kernel's distinct-key hint for the global reduce table, resolved
  /// against the raw dimensions (0 = no hint).
  uint64_t expected_keys = 0;
  /// Backend-neutral work quantities (identical across backends for the same
  /// grammar/kernel/shape).
  PlanWorkProfile profile;
  /// The owning backend's predicted cost for this plan — what the serving
  /// Submit probe sums per backend to dispatch a run.
  CostEstimate estimate;
};

/// A run's plans. In a corpus-wide list (DeviceGroup::RunSpec, a served
/// run's probe) one per document in corpus order, null where the document
/// does not execute; handed to BatchEngine::Run, one non-null plan per
/// listed document.
using PlanList = std::vector<std::shared_ptr<const RunPlan>>;

/// Structural equality of two plans (the cache-determinism contract: a
/// cached plan must be bit-for-bit the plan a fresh Planner would build).
bool PlanEquals(const RunPlan& a, const RunPlan& b);

/// Node-pool size for a global reduce table: the structural bound capped by
/// the plan's distinct-key hint, plus the drivers' slack margin.
uint64_t PlannedTableNodes(uint64_t structural_bound, uint64_t expected_keys);

/// \brief Thread-safe plan cache keyed by (backend, grammar fingerprint,
/// kernel, strategy override, shape options).
///
/// Every counted lookup goes through ResolvePlan below: an engine's
/// Run(task) and PlanOnly, and the serving Submit probe. A hit skips the whole planning
/// phase (plan_seconds == 0). Entries are evicted FIFO past `capacity` so
/// rebind-heavy serving over a large corpus stays bounded.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 256) : capacity_(capacity) {}

  /// The cached plan for `key`, or null (counted as a hit/miss).
  std::shared_ptr<const RunPlan> Get(const PlanKey& key);
  /// Like Get but without touching the hit/miss counters (tests/diagnostics).
  std::shared_ptr<const RunPlan> Peek(const PlanKey& key) const;
  void Put(std::shared_ptr<const RunPlan> plan);

  uint64_t hits() const;
  uint64_t misses() const;
  /// Entries dropped by the FIFO bound (never by invalidation — plans are
  /// pure functions of their key).
  uint64_t evictions() const;
  size_t size() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<PlanKey, std::shared_ptr<const RunPlan>, PlanKeyHash>
      plans_;
  std::deque<PlanKey> order_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// \brief Builds RunPlans: consumes (grammar fingerprint, kernel id, shape
/// options) and produces the strategy decision, the relevance mask, the full
/// region plan with resolved offsets and the table-sizing hint.
///
/// The plan *values* are backend-independent; what differs per backend is
/// how the planning passes are charged (the GPU planner prices them as
/// mask-protocol kernels on a device, the CPU planner as metered topological
/// loops), so each backend's planner implements the charged passes and
/// inherits the shared skeleton. Planners hold no engine: an engine and the
/// serving probe build them over the same document index. The relevance mask
/// needs no traversal: one flat probe pass over the index's per-rule Blooms
/// (DocumentIndex::rule_blooms) resolves it.
class Planner {
 public:
  virtual ~Planner() = default;

  /// One full plan build (a cache miss) of `key`, whose strategy override
  /// is already resolved (MakePlanKey). Charges the backend's cost model
  /// through the virtual passes; everything else is host-side work the
  /// pre-plan drivers never charged either.
  Result<std::shared_ptr<const RunPlan>> BuildPlan(const TaskKernel& kernel,
                                                   const Grammar& g,
                                                   const DocumentIndex& index,
                                                   const PlanShape& shape,
                                                   const PlanKey& key);

 protected:
  /// Bottom-up content bounds (own accepted words + children, clamped).
  virtual std::vector<uint64_t> BoundsTraversal(const WordFilter& filter,
                                                uint64_t vocab_clamp) = 0;
  /// Per-rule expansion lengths for the sequence pipeline; backends whose
  /// sequence path never reads them may return an empty vector.
  virtual std::vector<uint64_t> ExpansionPass() = 0;
  /// Flat per-rule work (the Bloom relevance probes), `ops_per_item` charged
  /// for each of `items` logical threads.
  virtual void ChargeFlat(const char* what, uint64_t items,
                          uint64_t ops_per_item) = 0;
  /// Prices the backend-neutral work profile under this backend's cost
  /// constants (GpuSpec launch/alloc/PCIe + device throughput vs CpuSpec
  /// single-thread throughput). BuildPlan stores the result as
  /// RunPlan::estimate.
  virtual CostEstimate PriceEstimate(const PlanWorkProfile& profile) = 0;
};

/// The one place plan keys are assembled: a kAuto `strategy_override`
/// resolves to the engine's `configured` strategy, and `backend` keeps the
/// two planners' plans apart, so store and lookup can never disagree.
PlanKey MakePlanKey(PlanBackend backend, uint64_t grammar_fp, Task task,
                    TraversalStrategy strategy_override,
                    TraversalStrategy configured, const PlanShape& shape);

/// The one cache-fronted plan resolve: `key`'s cached plan (a counted hit),
/// otherwise `planner`'s build of it, cached (a counted miss that charges
/// the planner's cost model). `cache_hit`, when given, reports which.
Result<std::shared_ptr<const RunPlan>> ResolvePlan(
    PlanCache* cache, Planner* planner, const TaskKernel& kernel,
    const Grammar& g, const DocumentIndex& index, const PlanShape& shape,
    const PlanKey& key, bool* cache_hit = nullptr);

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_RUN_PLAN_H_
