#include "tadoc/cpu_engine.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "common/timer.h"
#include "gpu/ngram_table.h"

namespace gtadoc {

Result<CpuTadocEngine> CpuTadocEngine::Create(const Grammar* g,
                                              const CpuTadocOptions& options) {
  auto index = DocumentIndex::Build(*g);
  if (!index.ok()) return index.status();
  auto engine = Create(g, std::move(*index), options);
  if (engine.ok()) engine->charge_dag_walk_ = true;
  return engine;
}

Result<CpuTadocEngine> CpuTadocEngine::Create(
    const Grammar* g, std::shared_ptr<const DocumentIndex> index,
    const CpuTadocOptions& options) {
  GTADOC_RETURN_IF_ERROR(ValidateQuerySpec(options));
  CpuTadocEngine engine(g, std::move(index), options);
  if (options.plan_cache != nullptr) {
    engine.plan_cache_ = options.plan_cache;
  } else {
    engine.owned_plan_cache_ = std::make_shared<PlanCache>();
    engine.plan_cache_ = engine.owned_plan_cache_.get();
  }
  return engine;
}

TraversalStrategy CpuTadocEngine::ChosenStrategy(Task task) const {
  if (options_.strategy != TraversalStrategy::kAuto) return options_.strategy;
  const TaskInput input = MakeInput();
  return SelectStrategy(task, *g_, dag(), &input);
}

TaskInput CpuTadocEngine::MakeInput() const {
  // CpuTadocOptions IS-A QuerySpec; the flattening rule lives in
  // query_spec.h.
  return MakeTaskInput(options_);
}

// ---------------------------------------------------------------------------
// Planning: the CPU twins of the GPU passes, charged to a plan meter.
// ---------------------------------------------------------------------------

PlanShape CpuPlanner::Shape(const QuerySpec& query) {
  PlanShape shape;
  shape.input = MakeTaskInput(query);
  return shape;
}

std::vector<uint64_t> CpuPlanner::BoundsTraversal(const WordFilter& filter,
                                                  uint64_t vocab_clamp) {
  // Per-rule content bounds of the bottom-up state: own distinct accepted
  // words plus the children's bounds, clamped by the accepted vocabulary.
  std::vector<uint64_t> bound(dag_.num_rules(), 0);
  const auto& order = dag_.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint32_t r = *it;
    uint64_t b = 0;
    if (filter.selective()) {
      for (const RuleWordEntry& w : dag_.words(r)) {
        meter_->Charge(1);
        if (filter.Accepts(w.word)) ++b;
      }
    } else {
      b = dag_.words(r).size();
    }
    for (const RuleChildEntry& e : dag_.children(r)) {
      b += bound[e.child];
      meter_->Charge(1);
    }
    bound[r] = std::min<uint64_t>(std::max<uint64_t>(vocab_clamp, 1), b);
  }
  return bound;
}

void CpuPlanner::ChargeFlat(const char* what, uint64_t items,
                            uint64_t ops_per_item) {
  (void)what;
  meter_->Charge(items * ops_per_item);
}

CostEstimate CpuPlanner::PriceEstimate(const PlanWorkProfile& p) {
  // CPU pricing: one sequential thread at sustained throughput, no fixed
  // dispatch floor — which is why the CPU wins the selective tail. Table
  // updates pay the hash discipline; the sequence shape pays the full
  // expanded token stream ([2]'s recursive walk), which is exactly what
  // makes heavy sequence runs GPU-bound.
  CostEstimate e;
  const uint64_t ops =
      p.state_slots + 2 * p.traversal_items +
      p.reduce_items * kCpuHashUpdateOps +
      p.sequence_tokens * (2ull * p.window + kCpuSeqMapDescentOps);
  e.work_items = ops;
  e.seconds = static_cast<double>(ops) / cpu_.thread_ops_per_sec();
  return e;
}

Result<std::shared_ptr<const RunPlan>> CpuTadocEngine::PlanOnly(
    Task task, TraversalStrategy strategy_override) const {
  auto kernel_lookup = TaskRegistry::Get(task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  CpuCostMeter plan_meter(options_.cpu);
  CpuPlanner planner(dag(), options_.cpu, &plan_meter);
  const PlanShape shape = CpuPlanner::Shape(options_);
  return ResolvePlan(plan_cache_, &planner, **kernel_lookup, *g_, *index_,
                     shape,
                     MakePlanKey(kCpuPlanBackend, index_->fingerprint, task,
                                 strategy_override, options_.strategy, shape));
}

std::shared_ptr<const RunPlan> CpuTadocEngine::CachedPlan(
    Task task, TraversalStrategy strategy_override) const {
  return plan_cache_->Peek(MakePlanKey(kCpuPlanBackend, index_->fingerprint,
                                       task, strategy_override,
                                       options_.strategy,
                                       CpuPlanner::Shape(options_)));
}

// ---------------------------------------------------------------------------
// Run: plan resolution, then the shape executors.
// ---------------------------------------------------------------------------

Result<EngineRun> CpuTadocEngine::Run(
    Task task, TraversalStrategy strategy_override) const {
  auto kernel_lookup = TaskRegistry::Get(task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  Timer wall;
  // Plan resolution: a cache hit costs nothing; a miss runs the metered
  // relevance probe and bounds pass.
  CpuCostMeter plan_meter(options_.cpu);
  CpuPlanner planner(dag(), options_.cpu, &plan_meter);
  const PlanShape shape = CpuPlanner::Shape(options_);
  bool cache_hit = false;
  auto plan = ResolvePlan(
      plan_cache_, &planner, **kernel_lookup, *g_, *index_, shape,
      MakePlanKey(kCpuPlanBackend, index_->fingerprint, task,
                  strategy_override, options_.strategy, shape),
      &cache_hit);
  if (!plan.ok()) return plan.status();
  return Execute(**kernel_lookup, **plan, plan_meter, cache_hit, wall);
}

Result<EngineRun> CpuTadocEngine::Run(const RunPlan& plan) const {
  if (plan.key.backend != kCpuPlanBackend) {
    return Status::InvalidArgument("plan was built for the GPU backend");
  }
  if (plan.key.grammar_fp != index_->fingerprint) {
    return Status::InvalidArgument("plan was built for another grammar");
  }
  auto kernel_lookup = TaskRegistry::Get(plan.task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  Timer wall;
  const CpuCostMeter no_planning(options_.cpu);
  return Execute(**kernel_lookup, plan, no_planning, true, wall);
}

uint64_t CpuTadocEngine::DagWalkOps(const DagView& dag) {
  uint64_t ops = 0;
  for (uint32_t r = 0; r < dag.num_rules(); ++r) {
    ops += 2ull * dag.body_size(r);
    ops += dag.children(r).size() + dag.words(r).size();
  }
  return ops;
}

Result<EngineRun> CpuTadocEngine::Execute(const TaskKernel& kernel,
                                          const RunPlan& plan,
                                          const CpuCostMeter& plan_meter,
                                          bool cache_hit,
                                          const Timer& wall) const {
  EngineRun run;
  CpuCostMeter init_meter(options_.cpu);
  CpuCostMeter traverse_meter(options_.cpu);

  // Phase 1: data-structure preparation. The DAG walk that builds the view
  // is paid by an engine that built its own index, never by one bound to a
  // prebuilt index.
  if (charge_dag_walk_) init_meter.Charge(DagWalkOps(dag()));

  switch (kernel.shape()) {
    case TraversalShape::kGlobalWeight:
      run.result = plan.strategy == TraversalStrategy::kBottomUp
                       ? GlobalBottomUp(kernel, plan, &traverse_meter)
                       : GlobalTopDown(kernel, plan, &traverse_meter);
      break;
    case TraversalShape::kPerFileWeight:
      run.result = plan.strategy == TraversalStrategy::kBottomUp
                       ? FileTaskBottomUp(kernel, plan, &traverse_meter)
                       : FileTaskTopDown(kernel, plan, &traverse_meter);
      break;
    case TraversalShape::kSequence:
      run.result = SequenceTask(kernel, plan, &traverse_meter);
      break;
  }

  Canonicalize(&run.result);
  run.timing.plan_seconds = plan_meter.SequentialSeconds();
  run.timing.plan_cache_hits = cache_hit ? 1 : 0;
  run.timing.init_seconds =
      init_meter.SequentialSeconds() + run.timing.plan_seconds;
  run.timing.traversal_seconds = traverse_meter.SequentialSeconds();
  run.timing.wall_seconds = wall.ElapsedSeconds();
  run.timing.init_ops = init_meter.ops() + plan_meter.ops();
  run.timing.traversal_ops = traverse_meter.ops();
  return run;
}

namespace {

/// Binds a host arena to the plan's resolved regions: every view sits at
/// its planned offset, so the hit path re-plans nothing. The slab covers
/// only this group's extent — the plan's GPU-only groups (assembly lease,
/// sequence aux regions) cost the CPU nothing.
void BindArena(const RegionGroup& group, HostStateArena* arena) {
  arena->Bind(group.sizes, group.offsets, RegionGroupEnd(group));
}

/// Builds the bottom-up per-rule states over a host arena under the kernel's
/// layout: init, absorb own accepted words, fold in the children — the CPU
/// twin of the GPU genLocTbl rounds, charged with the CPU discipline. The
/// bounds and region offsets were resolved at plan time.
void BuildRuleStatesCpu(const DagView& dag, const RunPlan& plan,
                        const StateLayout& layout, CpuCostMeter* meter,
                        HostStateArena* arena) {
  BindArena(plan.state, arena);
  const WordFilter& filter = plan.filter;
  CpuStateOps ops(meter);
  const auto& order = dag.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint32_t r = *it;
    if (r == 0) continue;  // the root is reduced directly, not materialized
    const StateView state = arena->at(r);
    layout.Init(state, ops);
    for (const RuleWordEntry& w : dag.words(r)) {
      if (!filter.Accepts(w.word)) {
        meter->Charge(1);
        continue;
      }
      layout.Absorb(state, w.word, w.freq, ops);
    }
    for (const RuleChildEntry& e : dag.children(r)) {
      layout.Merge(state, arena->at(e.child), e.freq, ops);
    }
  }
}

/// Converts the per-file accumulation maps into the canonical (file, word,
/// count) triples every per-file kernel assembles from.
std::vector<FileWordCount> TriplesFromFileMaps(
    const std::vector<std::unordered_map<uint32_t, uint64_t>>& tv) {
  std::vector<FileWordCount> triples;
  for (uint32_t f = 0; f < tv.size(); ++f) {
    for (const auto& [word, c] : tv[f]) {
      if (c > 0) triples.push_back(FileWordCount{f, word, c});
    }
  }
  return triples;
}

}  // namespace

// ---------------------------------------------------------------------------
// kGlobalWeight
// ---------------------------------------------------------------------------

AnalyticsResult CpuTadocEngine::GlobalTopDown(const TaskKernel& kernel,
                                              const RunPlan& plan,
                                              CpuCostMeter* meter) const {
  AnalyticsResult out;
  out.task = kernel.task();
  const TaskInput input = MakeInput();
  const WordFilter& filter = plan.filter;
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kTopDown);
  const uint32_t n = static_cast<uint32_t>(dag().num_rules());

  // Rule occurrence weights carried in layout state over a host arena at the
  // plan's offsets, parents before children (Algorithm 1's effect, computed
  // sequentially in topological order).
  HostStateArena arena;
  BindArena(plan.state, &arena);
  CpuStateOps ops(meter);
  for (uint32_t r = 0; r < n; ++r) layout.Init(arena.at(r), ops);
  layout.Absorb(arena.at(0), 0, 1, ops);
  for (uint32_t r : dag().topo_order()) {
    for (const RuleChildEntry& e : dag().children(r)) {
      layout.Merge(arena.at(e.child), arena.at(r), e.freq, ops);
      meter->Charge(1);  // the readiness bookkeeping of the parallel rounds
    }
  }
  auto weight_of = [&](uint32_t r) {
    uint32_t key;
    uint64_t value;
    return layout.ReadSlot(arena.at(r), 0, &key, &value) ? value : 0;
  };

  // Reduce: every rule's accepted local words scaled by its weight.
  std::unordered_map<uint32_t, uint64_t> counts;
  for (uint32_t r = 0; r < n; ++r) {
    const uint64_t weight = weight_of(r);
    if (weight == 0) continue;
    for (const RuleWordEntry& w : dag().words(r)) {
      if (!filter.Accepts(w.word)) {
        meter->Charge(1);
        continue;
      }
      counts[w.word] += weight * w.freq;
      meter->Charge(kCpuHashUpdateOps);
    }
  }
  std::vector<std::pair<uint32_t, uint64_t>> pairs(counts.begin(),
                                                   counts.end());
  CpuAssembly assembly(meter);
  kernel.AssembleGlobal(input, pairs, &assembly, &out);
  return out;
}

AnalyticsResult CpuTadocEngine::GlobalBottomUp(const TaskKernel& kernel,
                                               const RunPlan& plan,
                                               CpuCostMeter* meter) const {
  AnalyticsResult out;
  out.task = kernel.task();
  const TaskInput input = MakeInput();
  const WordFilter& filter = plan.filter;
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kBottomUp);

  // Local state: full-expansion word tables per rule (Figure 2), restricted
  // to accepted words and shaped by the kernel's bottom-up layout over the
  // plan's regions.
  HostStateArena arena;
  BuildRuleStatesCpu(dag(), plan, layout, meter, &arena);
  CpuStateOps ops(meter);

  // Reduce from the root and its direct children (level-2 nodes).
  std::unordered_map<uint32_t, uint64_t> counts;
  for (const RuleWordEntry& w : dag().words(0)) {
    if (!filter.Accepts(w.word)) {
      meter->Charge(1);
      continue;
    }
    counts[w.word] += w.freq;
    meter->Charge(kCpuHashUpdateOps);
  }
  for (const RuleChildEntry& e : dag().children(0)) {
    layout.ForEach(arena.at(e.child), ops, [&](uint32_t word, uint64_t c) {
      counts[word] += c * e.freq;
      meter->Charge(kCpuHashUpdateOps);
    });
  }
  std::vector<std::pair<uint32_t, uint64_t>> pairs(counts.begin(),
                                                   counts.end());
  CpuAssembly assembly(meter);
  kernel.AssembleGlobal(input, pairs, &assembly, &out);
  return out;
}

// ---------------------------------------------------------------------------
// kPerFileWeight
// ---------------------------------------------------------------------------

AnalyticsResult CpuTadocEngine::FileTaskTopDown(const TaskKernel& kernel,
                                                const RunPlan& plan,
                                                CpuCostMeter* meter) const {
  AnalyticsResult out;
  out.task = kernel.task();
  const TaskInput input = MakeInput();
  const WordFilter& filter = plan.filter;
  const std::vector<uint8_t>& relevant = plan.relevant;
  const uint32_t num_files = g_->num_files();
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kTopDown);
  const uint32_t n = static_cast<uint32_t>(dag().num_rules());

  // Per-rule file state: how rule r's occurrences distribute over files, in
  // whatever shape the kernel's layout declares, at the plan's resolved
  // offsets. This is the "file information" the paper notes becomes
  // expensive with many files (Section VI-C). The plan's relevance mask
  // (the rule-Bloom probe) already pruned rules whose subtree cannot
  // contribute — they were planned no regions.
  HostStateArena arena;
  BindArena(plan.state, &arena);
  CpuStateOps ops(meter);
  for (uint32_t r = 1; r < n; ++r) {
    if (arena.at(r).valid()) layout.Init(arena.at(r), ops);
  }
  std::vector<std::unordered_map<uint32_t, uint64_t>> tv(num_files);

  // Root scan: positions -> files; root occurrences seed child states and
  // accepted root-owned words go straight to the per-file result.
  const std::vector<uint32_t>& root = g_->root();
  uint32_t cur_file = 0;
  for (uint32_t sym : root) {
    meter->Charge(1);
    if (g_->IsSplitter(sym)) {
      cur_file = g_->SplitterIndex(sym) + 1;
    } else if (g_->IsRule(sym)) {
      const uint32_t r = g_->RuleIndex(sym);
      if (relevant[r] == 0) continue;
      layout.Absorb(arena.at(r), cur_file, 1, ops);
    } else if (filter.Accepts(sym)) {
      ++tv[cur_file][sym];
      meter->Charge(kCpuHashUpdateOps);
    }
  }

  // Topological propagation of the file states, pruned to relevant subtrees
  // (the layout's cross-chunk reduce along each DAG edge).
  for (uint32_t r : dag().topo_order()) {
    if (r == 0 || relevant[r] == 0) continue;
    for (const RuleChildEntry& e : dag().children(r)) {
      if (relevant[e.child] == 0) continue;
      layout.Merge(arena.at(e.child), arena.at(r), e.freq, ops);
    }
  }

  // Reduce: accepted local words scaled by the rule's per-file state.
  for (uint32_t r = 1; r < n; ++r) {
    if (relevant[r] == 0) continue;
    for (const RuleWordEntry& w : dag().words(r)) {
      if (!filter.Accepts(w.word)) continue;
      layout.ForEach(arena.at(r), ops, [&](uint32_t file, uint64_t fw) {
        tv[file][w.word] += static_cast<uint64_t>(w.freq) * fw;
        meter->Charge(kCpuHashUpdateOps);
      });
    }
  }

  CpuAssembly assembly(meter);
  kernel.AssembleFileWord(input, num_files, TriplesFromFileMaps(tv),
                          &assembly, &out);
  return out;
}

AnalyticsResult CpuTadocEngine::FileTaskBottomUp(const TaskKernel& kernel,
                                                 const RunPlan& plan,
                                                 CpuCostMeter* meter) const {
  AnalyticsResult out;
  out.task = kernel.task();
  const TaskInput input = MakeInput();
  const WordFilter& filter = plan.filter;
  const uint32_t num_files = g_->num_files();
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kBottomUp);

  // Local state as in bottom-up word count, restricted to accepted words
  // (states of rules without accepted words stay empty, pruning the root
  // scan below for free).
  HostStateArena arena;
  BuildRuleStatesCpu(dag(), plan, layout, meter, &arena);
  CpuStateOps ops(meter);

  // Root scan: each level-2 occurrence merges its state into the
  // occurrence's file; accepted root-owned words go to their position's
  // file.
  std::vector<std::unordered_map<uint32_t, uint64_t>> tv(num_files);
  uint32_t cur_file = 0;
  for (uint32_t sym : g_->root()) {
    meter->Charge(1);
    if (g_->IsSplitter(sym)) {
      cur_file = g_->SplitterIndex(sym) + 1;
    } else if (g_->IsRule(sym)) {
      layout.ForEach(arena.at(g_->RuleIndex(sym)), ops,
                     [&](uint32_t word, uint64_t c) {
                       tv[cur_file][word] += c;
                       meter->Charge(kCpuHashUpdateOps);
                     });
    } else if (filter.Accepts(sym)) {
      ++tv[cur_file][sym];
      meter->Charge(kCpuHashUpdateOps);
    }
  }

  CpuAssembly assembly(meter);
  kernel.AssembleFileWord(input, num_files, TriplesFromFileMaps(tv),
                          &assembly, &out);
  return out;
}

// ---------------------------------------------------------------------------
// kSequence — [2]'s recursive full-stream walk.
//
// The CPU baseline visits every token of the original text with a sliding
// window (no head/tail state at all — the reuse opportunity G-TADOC's
// HeadTailLayout pipeline later exploits), so there is no per-rule
// accumulator here for a StateLayout to describe. The plan still supplies
// the kernel's window length (query-derived for phraseSearch).
// ---------------------------------------------------------------------------

AnalyticsResult CpuTadocEngine::SequenceTask(const TaskKernel& kernel,
                                             const RunPlan& plan,
                                             CpuCostMeter* meter) const {
  AnalyticsResult out;
  out.task = kernel.task();
  const TaskInput input = MakeInput();
  const uint32_t l = plan.window;

  // DFS token iterator over the full expansion (no materialization, but every
  // token of the original text is visited — the inefficiency the paper
  // reports for sequence tasks on CPU TADOC).
  std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint64_t> counts;
  std::deque<uint32_t> window;
  uint32_t cur_file = 0;

  std::vector<std::pair<uint32_t, size_t>> stack;  // (rule, position)
  stack.emplace_back(0, 0);
  while (!stack.empty()) {
    auto& [r, pos] = stack.back();
    const std::vector<uint32_t>& body = g_->rules[r];
    if (pos >= body.size()) {
      stack.pop_back();
      continue;
    }
    const uint32_t sym = body[pos++];
    meter->Charge(1);
    if (g_->IsRule(sym)) {
      stack.emplace_back(g_->RuleIndex(sym), 0);
    } else if (g_->IsSplitter(sym)) {
      window.clear();
      cur_file = g_->SplitterIndex(sym) + 1;
    } else {
      window.push_back(sym);
      if (window.size() > l) window.pop_front();
      if (window.size() == l) {
        std::vector<uint32_t> gram(window.begin(), window.end());
        ++counts[{cur_file, std::move(gram)}];
        // [2]'s per-window update is an ordered-map insert keyed by the word
        // sequence: a tree descent of ~log n node visits, each comparing up
        // to l words, plus the key copy. 16 is a conservative stand-in for
        // the descent; this is what makes CPU sequence tasks perform close to
        // uncompressed processing (Section VI-B observation 3).
        meter->Charge(2 * l + kCpuSeqMapDescentOps);
      }
    }
  }

  // Reshape the (file, gram) counts through the kernel, identically to the
  // GPU drain path.
  gpu::NgramCounts drained;
  drained.ngram_len = l;
  drained.files.reserve(counts.size());
  drained.words.reserve(counts.size() * l);
  drained.counts.reserve(counts.size());
  for (const auto& [key, c] : counts) {
    drained.Add(key.first, key.second.data(), c);
  }
  CpuAssembly assembly(meter);
  kernel.AssembleSequence(input, std::move(drained), &assembly, &out);
  return out;
}

}  // namespace gtadoc
