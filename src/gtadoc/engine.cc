#include "gtadoc/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "gpu/primitives.h"
#include "gtadoc/traversal_util.h"

namespace gtadoc {

GTadocEngine::GTadocEngine(const Options& options) : options_(options) {}

Result<std::unique_ptr<GTadocEngine>> GTadocEngine::Create(
    const Grammar* g, const Options& options) {
  auto index = DocumentIndex::Build(*g);
  if (!index.ok()) return index.status();
  return Create(g, std::move(*index), options);
}

Result<std::unique_ptr<GTadocEngine>> GTadocEngine::Create(
    const Grammar* g, std::shared_ptr<const DocumentIndex> index,
    const Options& options, GrammarLoad load) {
  GTADOC_RETURN_IF_ERROR(ValidateQuerySpec(options));
  if (options.shared_pool != nullptr && options.shared_device == nullptr) {
    return Status::InvalidArgument("shared_pool requires shared_device");
  }
  std::unique_ptr<GTadocEngine> engine(new GTadocEngine(options));
  if (options.shared_device != nullptr) {
    engine->device_ = options.shared_device;
  } else {
    engine->owned_device_ =
        std::make_unique<gpu::Device>(options.gpu, options.host_workers);
    engine->device_ = engine->owned_device_.get();
  }
  if (options.shared_pool == nullptr) {
    engine->owned_pool_ = std::make_unique<gpu::MemoryPool>(engine->device_);
  }
  if (options.plan_cache != nullptr) {
    engine->plan_cache_ = options.plan_cache;
  } else {
    engine->owned_plan_cache_ = std::make_shared<PlanCache>();
    engine->plan_cache_ = engine->owned_plan_cache_.get();
  }
  engine->Rebind(g, std::move(index), load);
  return engine;
}

Status GTadocEngine::Rebind(const Grammar* g) {
  auto index = DocumentIndex::Build(*g);
  if (!index.ok()) return index.status();
  Rebind(g, std::move(*index));
  return Status::OK();
}

void GTadocEngine::Rebind(const Grammar* g,
                          std::shared_ptr<const DocumentIndex> index,
                          GrammarLoad load) {
  g_ = g;
  index_ = std::move(index);
  dev_ = &index_->device_grammar;
  device_->ResetClock();
  const gpu::DeviceStats before = device_->stats();
  if (load != GrammarLoad::kResident) {
    dev_->Load(device_, options_.charge_pcie,
               load == GrammarLoad::kArena ? &arena_ : nullptr);
  }
  load_seconds_ = device_->SimSeconds();
  load_ops_ = device_->stats().total_ops - before.total_ops;
  upload_seconds_ =
      device_->TransferSeconds(device_->stats().h2d_bytes - before.h2d_bytes);
}

TraversalStrategy GTadocEngine::ChosenStrategy(Task task) const {
  if (options_.strategy != TraversalStrategy::kAuto) return options_.strategy;
  const TaskInput input = MakeInput();
  return SelectStrategy(task, *g_, dag(), &input);
}

TaskInput GTadocEngine::InputFromOptions(const Options& options) {
  // Options IS-A QuerySpec; the flattening rule lives in query_spec.h.
  return MakeTaskInput(options);
}

TaskInput GTadocEngine::MakeInput() const { return InputFromOptions(options_); }

// ---------------------------------------------------------------------------
// Planning: the GPU planner's charged passes and pricing.
// ---------------------------------------------------------------------------

PlanShape GpuPlanner::Shape(const GTadocEngine::Options& options) {
  PlanShape shape;
  shape.input = GTadocEngine::InputFromOptions(options);
  shape.scheduling = static_cast<int>(options.scheduling);
  shape.vertical_partition =
      options.scheduling == SchedulingMode::kVerticalPartition;
  shape.lock_mode = static_cast<int>(options.lock_mode);
  shape.split_threshold = options.split_threshold;
  return shape;
}

std::vector<uint64_t> GpuPlanner::BoundsTraversal(const WordFilter& filter,
                                                  uint64_t vocab_clamp) {
  // genLocTblBoundKernel: bound[r] = own distinct (accepted) words + sum of
  // children's bounds, clamped by the accepted vocabulary (Algorithm 2
  // lines 5-9) — the init-traversal memory-requirement transmission the
  // plan turns into resolved region offsets.
  const uint32_t n = dev_.num_rules;
  std::vector<uint64_t> bound(n, 0);
  internal::BottomUpRounds(
      device_, dev_, "genLocTblBound", [&](uint32_t r, gpu::ThreadCtx& ctx) {
        uint64_t b;
        if (filter.selective()) {
          b = 0;
          for (uint32_t e = dev_.word_off[r]; e < dev_.word_off[r + 1]; ++e) {
            ctx.Charge(1);
            if (filter.Accepts(dev_.word_id[e])) ++b;
          }
        } else {
          b = dev_.word_off[r + 1] - dev_.word_off[r];
        }
        for (uint32_t e = dev_.child_off[r]; e < dev_.child_off[r + 1]; ++e) {
          b += bound[dev_.child_id[e]];
          ctx.Charge(1);
        }
        bound[r] = std::min<uint64_t>(std::max<uint64_t>(vocab_clamp, 1), b);
      });
  return bound;
}

std::vector<uint64_t> GpuPlanner::ExpansionPass() {
  // expLenKernel: per-rule expansion lengths, leaves to root — the sequence
  // pipeline's sizing pass, cached with the plan so same-shape rebind runs
  // skip it.
  const uint32_t n = dev_.num_rules;
  std::vector<uint64_t> exp_len(n, 0);
  internal::BottomUpRounds(
      device_, dev_, "expLen", [&](uint32_t r, gpu::ThreadCtx& ctx) {
        uint64_t total = 0;
        for (uint32_t e = dev_.word_off[r]; e < dev_.word_off[r + 1]; ++e) {
          total += dev_.word_freq[e];
          ctx.Charge(1);
        }
        for (uint32_t e = dev_.child_off[r]; e < dev_.child_off[r + 1]; ++e) {
          total += exp_len[dev_.child_id[e]] * dev_.child_freq[e];
          ctx.Charge(1);
        }
        exp_len[r] = std::min<uint64_t>(total, 1ull << 62);
      });
  return exp_len;
}

void GpuPlanner::ChargeFlat(const char* what, uint64_t items,
                            uint64_t ops_per_item) {
  device_->Launch(what, static_cast<uint32_t>(std::max<uint64_t>(1, items)),
                  [ops_per_item](gpu::ThreadCtx& ctx) {
                    ctx.Charge(ops_per_item);
                  });
}

CostEstimate GpuPlanner::PriceEstimate(const PlanWorkProfile& p) {
  // GPU pricing: a fixed dispatch floor (round-ordered launches + one pool
  // allocation + the grammar upload when transfers are charged) plus work
  // spread across the device's sustained throughput. Atomic table updates
  // are an additive serialization term, as in the executors. The expanded
  // token stream is absent: the pipeline never leaves the compressed
  // domain.
  const gpu::GpuSpec& gpu = options_.gpu;
  CostEstimate e;
  e.fixed_seconds =
      static_cast<double>(p.rounds) * gpu.kernel_launch_us * 1e-6 +
      gpu.device_alloc_us * 1e-6;
  if (options_.charge_pcie) {
    e.fixed_seconds += static_cast<double>(p.upload_bytes) /
                       (gpu.pcie_bandwidth_gbps * 1e9);
  }
  e.work_items = p.traversal_items + p.reduce_items + p.state_slots;
  e.seconds =
      e.fixed_seconds +
      static_cast<double>(p.state_slots + 8 * p.traversal_items) /
          gpu.device_ops_per_sec() +
      static_cast<double>(p.reduce_items) / gpu.atomic_ops_per_sec;
  return e;
}

Result<std::shared_ptr<const RunPlan>> GTadocEngine::PlanOnly(
    Task task, TraversalStrategy strategy_override) {
  auto kernel_lookup = TaskRegistry::Get(task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  GpuPlanner planner(device_, *dev_, options_);
  const PlanShape shape = GpuPlanner::Shape(options_);
  return ResolvePlan(plan_cache_, &planner, **kernel_lookup, *g_, *index_,
                     shape,
                     MakePlanKey(kGpuPlanBackend, index_->fingerprint, task,
                                 strategy_override, options_.strategy, shape));
}

std::shared_ptr<const RunPlan> GTadocEngine::CachedPlan(
    Task task, TraversalStrategy strategy_override) const {
  return plan_cache_->Peek(MakePlanKey(kGpuPlanBackend, index_->fingerprint,
                                       task, strategy_override,
                                       options_.strategy,
                                       GpuPlanner::Shape(options_)));
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

gpu::GpuHashTable::Options GTadocEngine::WordTableOptions(
    const RunPlan& plan, uint64_t structural_bound) const {
  gpu::GpuHashTable::Options topt;
  // The plan's hint caps the node pool (the memory win); the bucket count
  // keeps the structural bound so chains — and try-lock contention per
  // bucket — stay as short as under generic sizing.
  topt.max_nodes = static_cast<uint32_t>(
      PlannedTableNodes(structural_bound, plan.expected_keys));
  topt.num_entries = static_cast<uint32_t>(
      std::min<uint64_t>(structural_bound + 64, 1ull << 28) / 2 + 64);
  topt.lock_mode = options_.lock_mode;
  return topt;
}

GTadocEngine::PlannedLease GTadocEngine::AcquirePlanned(const RunPlan& plan) {
  PlannedLease lease;
  gpu::MemoryPool* pool = options_.shared_pool != nullptr
                              ? options_.shared_pool
                              : owned_pool_.get();
  // A grown slab arrives zeroed; only a kept slab needs the scrub.
  if (!pool->EnsureCapacity(plan.total_slots)) pool->ResetForReuse();
  lease.pool = pool;
  lease.plan = &plan;
  return lease;
}

Result<EngineRun> GTadocEngine::Run(Task task,
                                    TraversalStrategy strategy_override) {
  auto kernel_lookup = TaskRegistry::Get(task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  Timer wall;
  device_->ResetClock();
  const gpu::DeviceStats before = device_->stats();
  // Plan resolution: a cache hit costs nothing; a miss runs the charged
  // planning passes (relevance probe, bounds/expansion traversals).
  GpuPlanner planner(device_, *dev_, options_);
  const PlanShape shape = GpuPlanner::Shape(options_);
  bool cache_hit = false;
  auto plan = ResolvePlan(
      plan_cache_, &planner, **kernel_lookup, *g_, *index_, shape,
      MakePlanKey(kGpuPlanBackend, index_->fingerprint, task,
                  strategy_override, options_.strategy, shape),
      &cache_hit);
  if (!plan.ok()) return plan.status();
  return Execute(**kernel_lookup, **plan, before, cache_hit, wall);
}

Result<EngineRun> GTadocEngine::Run(const RunPlan& plan) {
  if (plan.key.backend != kGpuPlanBackend) {
    return Status::InvalidArgument("plan was built for the CPU backend");
  }
  if (plan.key.grammar_fp != index_->fingerprint) {
    return Status::InvalidArgument("plan was built for another grammar");
  }
  auto kernel_lookup = TaskRegistry::Get(plan.task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  Timer wall;
  device_->ResetClock();
  return Execute(**kernel_lookup, plan, device_->stats(), true, wall);
}

Result<EngineRun> GTadocEngine::Execute(const TaskKernel& kernel,
                                        const RunPlan& plan,
                                        gpu::DeviceStats before,
                                        bool cache_hit, const Timer& wall) {
  EngineRun run;
  run.result.task = plan.task;
  const uint64_t ops_before = before.total_ops;
  const uint64_t allocs_before = before.device_allocs;
  const double plan_seconds = device_->SimSeconds();
  const uint64_t plan_ops = device_->stats().total_ops - ops_before;

  Status st;
  double phase1_extra = 0;  // shape-specific init (e.g. head/tail rounds)
  switch (kernel.shape()) {
    case TraversalShape::kGlobalWeight:
      if (options_.scheduling == SchedulingMode::kVerticalPartition) {
        st = GlobalVerticalPartition(kernel, plan, &run.result);
      } else if (plan.strategy == TraversalStrategy::kBottomUp) {
        st = GlobalBottomUp(kernel, plan, &run.result);
      } else {
        st = GlobalTopDown(kernel, plan, &run.result);
      }
      break;
    case TraversalShape::kPerFileWeight:
      st = plan.strategy == TraversalStrategy::kBottomUp
               ? FileTaskBottomUp(kernel, plan, &run.result)
               : FileTaskTopDown(kernel, plan, &run.result);
      break;
    case TraversalShape::kSequence:
      st = SequenceTask(kernel, plan, &run.result, &phase1_extra);
      break;
  }
  if (!st.ok()) return st;

  Canonicalize(&run.result);
  const double sim = device_->SimSeconds();
  // Mid-run allocation calls (pools, per-run tables) and the planning phase
  // belong to the paper's phase 1 ("pool planning"), not to graph traversal.
  const double alloc_seconds =
      device_->AllocSeconds(device_->stats().device_allocs - allocs_before);
  run.timing.init_seconds =
      load_seconds_ + plan_seconds + phase1_extra + alloc_seconds;
  run.timing.traversal_seconds =
      sim - plan_seconds - phase1_extra - alloc_seconds;
  run.timing.plan_seconds = plan_seconds;
  run.timing.plan_cache_hits = cache_hit ? 1 : 0;
  run.timing.upload_seconds = upload_seconds_;
  run.timing.download_seconds =
      device_->TransferSeconds(device_->stats().d2h_bytes - before.d2h_bytes);
  run.timing.wall_seconds = wall.ElapsedSeconds();
  run.timing.init_ops = load_ops_ + plan_ops;
  run.timing.traversal_ops =
      device_->stats().total_ops - ops_before - plan_ops;
  return run;
}

uint32_t GTadocEngine::ComputeGlobalWeights(const TaskKernel& kernel,
                                            const PlannedLease& lease,
                                            std::vector<uint64_t>* weights) {
  const uint32_t n = dev_->num_rules;
  weights->assign(n, 0);
  std::vector<uint64_t>& weight = *weights;

  // The per-rule weight state lives in the plan's pool regions, described by
  // the kernel's top-down layout (a scalar for the built-ins; custom kernels
  // may carry e.g. saturating counters through the same rounds).
  const StateLayout& layout = kernel.Layout(TraversalStrategy::kTopDown);

  // initTopDownMaskKernel: weights seeded with root frequencies; rules whose
  // only parent is the root start the traversal (Algorithm 1 lines 2, 9-11).
  // topDownKernel rounds (Algorithm 1 lines 3-7): a ready rule folds its
  // state into every child, scaled by the edge frequency.
  const uint32_t rounds = internal::TopDownRounds(
      device_, *dev_, "initTopDownMask", "topDown",
      [&](uint32_t r, gpu::ThreadCtx& ctx) {
        ctx.Charge(1);
        if (r == 0) return;
        GpuStateOps ops(&ctx);
        layout.Init(lease.state_at(r), ops);
        if (dev_->root_freq[r] != 0) {
          layout.Absorb(lease.state_at(r), 0, dev_->root_freq[r], ops);
        }
      },
      [&](uint32_t r, uint32_t c, uint32_t freq, gpu::ThreadCtx& ctx) {
        GpuStateOps ops(&ctx);
        layout.Merge(lease.state_at(c), lease.state_at(r), freq, ops);
      });

  weight[0] = 1;
  for (uint32_t r = 1; r < n; ++r) {
    uint32_t key;
    uint64_t value;
    weight[r] =
        layout.ReadSlot(lease.state_at(r), 0, &key, &value) ? value : 0;
  }
  return rounds;
}

void GTadocEngine::DrainWordTable(
    const gpu::GpuHashTable& table,
    std::vector<std::pair<uint32_t, uint64_t>>* counts) {
  auto pairs = table.Drain();
  if (options_.charge_pcie) device_->CopyDeviceToHost(pairs.size() * 16);
  counts->reserve(pairs.size());
  for (const auto& [w, c] : pairs) {
    counts->emplace_back(static_cast<uint32_t>(w), c);
  }
}

}  // namespace gtadoc
