#ifndef GTADOC_TADOC_CPU_ENGINE_H_
#define GTADOC_TADOC_CPU_ENGINE_H_

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
#include "gpu/platform.h"
#include "tadoc/strategy.h"

namespace gtadoc {

/// Options for the CPU TADOC baseline. The per-run query fields
/// (query_words/query_sets/top_k/ngram_len) are the shared QuerySpec base;
/// see analytics/query_spec.h for the multi-query and inheritance rules.
struct CpuTadocOptions : QuerySpec {
  gpu::CpuSpec cpu;  ///< cost-model parameters of the host CPU
  TraversalStrategy strategy = TraversalStrategy::kAuto;
  /// Externally owned plan cache shared across engines (e.g. every document
  /// engine of a CPU-backend BatchEngine, the partitioned baseline's too).
  /// Must outlive the engine. Null: the engine owns a private cache.
  PlanCache* plan_cache = nullptr;
};

/// \brief Sequential CPU TADOC — the paper's baseline ([2] with the adaptive
/// traversal of [4]).
///
/// Task-agnostic like the GPU engine: Run dispatches on the task kernel's
/// traversal shape, and the kernel assembles each shape's canonical
/// accumulator into its result type, so CPU and GPU outputs agree by
/// construction. Like the GPU engine, Run(task) first resolves a RunPlan
/// (strategy decision, relevance mask, region layout) through a PlanCache
/// and Run(plan) takes one resolved earlier; the drivers are pure
/// executors, so repeat same-shape runs skip planning (plan_seconds == 0).
/// The run is split into the paper's two phases:
///   - initialization: building the DAG view (charged only by an engine that
///     built its own index), planning (or a free cache hit) and the
///     per-task data structures;
///   - graph traversal: weight propagation (top-down) or local-table merging
///     (bottom-up) plus final result reduction.
///
/// The sequence shape reproduces [2]'s design faithfully: a recursive (DFS)
/// walk over the *entire expanded token stream* with a sliding window, which
/// is why the paper reports their CPU performance as close to uncompressed
/// processing — the reuse opportunity G-TADOC later exploits.
///
/// Work is charged to a CpuCostMeter with the same discipline as the GPU
/// kernels, so CPU/GPU simulated times are comparable; wall time is also
/// measured.
class CpuTadocEngine {
 public:
  /// Builds the grammar's DocumentIndex (validating it) and creates the
  /// engine over it. The DAG walk that built the index is counted as phase 1
  /// on every Run.
  static Result<CpuTadocEngine> Create(const Grammar* g,
                                       const CpuTadocOptions& options);
  /// Creates the engine over `g`'s prebuilt index (shared: the engine keeps
  /// a reference, so serving layers build each document's index once). The
  /// index is already built, so no Run charges the DAG walk — the same rule
  /// as a GPU engine bound to a resident device grammar.
  static Result<CpuTadocEngine> Create(
      const Grammar* g, std::shared_ptr<const DocumentIndex> index,
      const CpuTadocOptions& options);

  /// Runs one task; `strategy_override` replaces options.strategy when not
  /// kAuto (used by the Section VI-C experiment). Resolves the plan through
  /// the cache, then executes it exactly as Run(plan) would.
  Result<EngineRun> Run(Task task,
                        TraversalStrategy strategy_override =
                            TraversalStrategy::kAuto) const;

  /// Executes a plan resolved earlier (a serving probe's), touching neither
  /// the planner nor the cache: plan_seconds == 0 and the run counts as one
  /// plan hit. InvalidArgument unless the plan was built by the CPU planner
  /// for this engine's grammar (key.backend, key.grammar_fp).
  Result<EngineRun> Run(const RunPlan& plan) const;

  /// Resolves (and caches) the plan a Run of (task, strategy_override) would
  /// consume without executing anything — the CPU twin of
  /// GTadocEngine::PlanOnly: the returned plan's `estimate` is this
  /// backend's predicted cost in the same simulated seconds as the GPU
  /// estimate.
  Result<std::shared_ptr<const RunPlan>> PlanOnly(
      Task task,
      TraversalStrategy strategy_override = TraversalStrategy::kAuto) const;

  const DagView& dag() const { return index_->dag; }
  /// The ops of the phase-1 DAG walk that builds `dag`: one pass over every
  /// rule body plus the aggregation maps. Charged by an engine that built
  /// its own index, and by the partitioned baseline for each partition.
  static uint64_t DagWalkOps(const DagView& dag);
  /// The strategy the selector would pick for `task`.
  TraversalStrategy ChosenStrategy(Task task) const;
  /// The engine's plan cache (owned or shared; diagnostics/serving stats).
  PlanCache* plan_cache() const { return plan_cache_; }
  /// The cached plan a Run of (task, strategy_override) would consume, or
  /// null before any such run. Does not touch the hit/miss counters.
  std::shared_ptr<const RunPlan> CachedPlan(
      Task task,
      TraversalStrategy strategy_override = TraversalStrategy::kAuto) const;

 private:
  CpuTadocEngine(const Grammar* g, std::shared_ptr<const DocumentIndex> index,
                 const CpuTadocOptions& options)
      : g_(g), index_(std::move(index)), options_(options) {}

  /// The per-run task parameters handed to every kernel hook (query_sets
  /// flattened into the effective accept set).
  TaskInput MakeInput() const;

  /// The one executor body behind both Runs: phase-1 preparation, then the
  /// plan's shape driver. `plan_meter` holds whatever resolving the plan
  /// charged (nothing on a hit or a handed plan).
  Result<EngineRun> Execute(const TaskKernel& kernel, const RunPlan& plan,
                            const CpuCostMeter& plan_meter, bool cache_hit,
                            const Timer& wall) const;

  // Phase-2 shape drivers; each executes the plan, returns the
  // kernel-assembled result and charges `meter`.
  AnalyticsResult GlobalTopDown(const TaskKernel& kernel, const RunPlan& plan,
                                CpuCostMeter* meter) const;
  AnalyticsResult GlobalBottomUp(const TaskKernel& kernel, const RunPlan& plan,
                                 CpuCostMeter* meter) const;
  AnalyticsResult FileTaskTopDown(const TaskKernel& kernel,
                                  const RunPlan& plan,
                                  CpuCostMeter* meter) const;
  AnalyticsResult FileTaskBottomUp(const TaskKernel& kernel,
                                   const RunPlan& plan,
                                   CpuCostMeter* meter) const;
  AnalyticsResult SequenceTask(const TaskKernel& kernel, const RunPlan& plan,
                               CpuCostMeter* meter) const;

  const Grammar* g_;
  std::shared_ptr<const DocumentIndex> index_;
  CpuTadocOptions options_;
  /// The engine's plan cache when options_.plan_cache is null (shared so the
  /// value-type engine stays copyable).
  std::shared_ptr<PlanCache> owned_plan_cache_;
  PlanCache* plan_cache_ = nullptr;
  /// Whether Runs charge the DAG walk that builds index_ (true only when
  /// the engine built the index itself).
  bool charge_dag_walk_ = false;
};

/// \brief The CPU planner: charges the planning passes to a CpuCostMeter
/// over one document's DAG view, and prices plans under a CpuSpec.
///
/// Bounds run as a metered reverse-topological loop (the twin of the GPU's
/// genLocTblBound pass); the relevance probe charges its flat per-rule work.
/// It holds no engine: a CpuTadocEngine plans with its own meter, and the
/// serving Submit probe with a fresh one per document. `dag`, `cpu` and
/// `meter` must outlive the planner.
class CpuPlanner : public Planner {
 public:
  CpuPlanner(const DagView& dag, const gpu::CpuSpec& cpu, CpuCostMeter* meter)
      : dag_(dag), cpu_(cpu), meter_(meter) {}

  /// The shape a CPU plan key hashes: the query alone.
  static PlanShape Shape(const QuerySpec& query);

 protected:
  std::vector<uint64_t> BoundsTraversal(const WordFilter& filter,
                                        uint64_t vocab_clamp) override;
  /// The CPU sequence driver walks the full expanded stream and never reads
  /// expansion lengths, so its plans carry none.
  std::vector<uint64_t> ExpansionPass() override { return {}; }
  void ChargeFlat(const char* what, uint64_t items,
                  uint64_t ops_per_item) override;
  CostEstimate PriceEstimate(const PlanWorkProfile& p) override;

 private:
  const DagView& dag_;
  const gpu::CpuSpec& cpu_;
  CpuCostMeter* meter_;
};

}  // namespace gtadoc

#endif  // GTADOC_TADOC_CPU_ENGINE_H_
