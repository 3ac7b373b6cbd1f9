#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "analytics/run_plan.h"
#include "analytics/server.h"
#include "analytics/sharding.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "serve_util.h"
#include "tadoc/cpu_engine.h"

namespace gtadoc {
namespace {

GTadocEngine::Options GpuOptions() {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;
  return opt;
}

/// The marker fixture at a token scale where the two backends genuinely
/// disagree: sequence tasks walk the full expanded stream on the CPU (heavy
/// -> GPU wins), while Bloom-pruned keyword runs execute a handful of
/// documents with no GPU fixed costs to amortize (selective -> CPU wins).
MarkerCorpus MakeDispatchCorpus(uint64_t tokens_per_doc = 20000) {
  MarkerCorpusSpec spec;
  spec.num_docs = 10;
  spec.relevant = 3;
  spec.num_markers = 2;
  spec.tokens_per_doc = tokens_per_doc;
  auto built = BuildMarkerCorpus(spec);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

CorpusServer::Options HybridOptions(uint32_t cpu_lanes) {
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.scheduler.cpu_lanes = cpu_lanes;
  opt.cpu = gpu::PascalPlatform().cpu;
  return opt;
}

/// The mixed workload every dispatch test replays: selective keyword runs
/// interleaved with heavy sequence scans and a corpus-wide word count.
std::vector<CorpusServer::RunRequest> MixedWorkload(const MarkerCorpus& mc) {
  std::vector<CorpusServer::RunRequest> requests;
  CorpusServer::RunRequest keyword;
  keyword.task = Task::kKeywordSearch;
  keyword.query_words = {mc.markers[0]};
  CorpusServer::RunRequest sequence;
  sequence.task = Task::kSequenceCount;
  CorpusServer::RunRequest words;
  words.task = Task::kWordCount;
  requests.push_back(keyword);
  requests.push_back(sequence);
  requests.push_back(words);
  keyword.query_words = {mc.markers[1]};
  requests.push_back(keyword);
  requests.push_back(sequence);
  return requests;
}

// --------------------------------------------------------------------------
// CostEstimate: plan-derived, backend-priced, monotone in the work.
// --------------------------------------------------------------------------

TEST(CostEstimateTest, BothBackendsPriceEveryPlan) {
  MarkerCorpus mc = MakeDispatchCorpus(4000);
  const Grammar* doc = &mc.corpus.partitions[0];

  auto gpu_engine = GTadocEngine::Create(doc, GpuOptions());
  ASSERT_TRUE(gpu_engine.ok());
  auto gpu_plan = (*gpu_engine)->PlanOnly(Task::kWordCount);
  ASSERT_TRUE(gpu_plan.ok()) << gpu_plan.status().ToString();

  CpuTadocOptions copt;
  copt.cpu = gpu::PascalPlatform().cpu;
  auto cpu_engine = CpuTadocEngine::Create(doc, copt);
  ASSERT_TRUE(cpu_engine.ok());
  auto cpu_plan = cpu_engine->PlanOnly(Task::kWordCount);
  ASSERT_TRUE(cpu_plan.ok()) << cpu_plan.status().ToString();

  // Same work profile (the quantities are backend-neutral), different
  // pricing: the GPU carries a fixed dispatch floor, the CPU none.
  EXPECT_EQ((*gpu_plan)->profile, (*cpu_plan)->profile);
  EXPECT_GT((*gpu_plan)->estimate.seconds, 0.0);
  EXPECT_GT((*gpu_plan)->estimate.fixed_seconds, 0.0);
  EXPECT_GT((*cpu_plan)->estimate.seconds, 0.0);
  EXPECT_EQ((*cpu_plan)->estimate.fixed_seconds, 0.0);
  // The probe cached the plan: a run of the same shape is a free hit.
  auto repeat = cpu_engine->Run(Task::kWordCount);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->timing.plan_cache_hits, 1u);
  EXPECT_EQ(repeat->timing.plan_seconds, 0.0);
}

TEST(CostEstimateTest, MonotoneInDocumentSize) {
  // More tokens -> more rules/symbols -> strictly more priced work on both
  // backends.
  MarkerCorpus small = MakeDispatchCorpus(2000);
  MarkerCorpus large = MakeDispatchCorpus(16000);

  for (const bool cpu : {false, true}) {
    CostEstimate est_small, est_large;
    for (const auto* mc : {&small, &large}) {
      const Grammar* doc = &mc->corpus.partitions[0];
      CostEstimate* out = mc == &small ? &est_small : &est_large;
      if (cpu) {
        CpuTadocOptions copt;
        copt.cpu = gpu::PascalPlatform().cpu;
        auto engine = CpuTadocEngine::Create(doc, copt);
        ASSERT_TRUE(engine.ok());
        auto plan = engine->PlanOnly(Task::kWordCount);
        ASSERT_TRUE(plan.ok());
        *out = (*plan)->estimate;
      } else {
        auto engine = GTadocEngine::Create(doc, GpuOptions());
        ASSERT_TRUE(engine.ok());
        auto plan = (*engine)->PlanOnly(Task::kWordCount);
        ASSERT_TRUE(plan.ok());
        *out = (*plan)->estimate;
      }
    }
    EXPECT_LT(est_small.work_items, est_large.work_items) << "cpu=" << cpu;
    EXPECT_LT(est_small.seconds, est_large.seconds) << "cpu=" << cpu;
  }
}

TEST(CostEstimateTest, MonotoneInRelevanceMass) {
  // A selective plan prices only the relevant mass: widening the query from
  // one marker to the pair can only grow the relevant rule set, and with it
  // the priced traversal work.
  MarkerCorpus mc = MakeDispatchCorpus(4000);
  const Grammar* doc = &mc.corpus.partitions[0];

  GTadocEngine::Options narrow_opt = GpuOptions();
  narrow_opt.query_words = {mc.markers[0]};
  GTadocEngine::Options wide_opt = GpuOptions();
  wide_opt.query_words = {mc.markers[0], mc.markers[1]};

  auto narrow_engine = GTadocEngine::Create(doc, narrow_opt);
  auto wide_engine = GTadocEngine::Create(doc, wide_opt);
  ASSERT_TRUE(narrow_engine.ok());
  ASSERT_TRUE(wide_engine.ok());
  auto narrow = (*narrow_engine)->PlanOnly(Task::kKeywordSearch);
  auto wide = (*wide_engine)->PlanOnly(Task::kKeywordSearch);
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());

  EXPECT_LE((*narrow)->profile.relevant_rules, (*wide)->profile.relevant_rules);
  EXPECT_LE((*narrow)->profile.traversal_items,
            (*wide)->profile.traversal_items);
  EXPECT_LE((*narrow)->estimate.seconds, (*wide)->estimate.seconds);
  // Both prune against the full grammar.
  EXPECT_LT((*wide)->profile.relevant_rules, (*wide)->profile.num_rules);
}

TEST(CostEstimateTest, SequenceTokensOnlyChargeTheCpu) {
  // The CPU sequence driver walks the full expanded stream; the GPU stays in
  // the compressed domain. The profile records the stream once, and only the
  // CPU pricing consumes it — the asymmetry heavy dispatch rides on.
  MarkerCorpus mc = MakeDispatchCorpus(4000);
  const Grammar* doc = &mc.corpus.partitions[0];

  auto engine = GTadocEngine::Create(doc, GpuOptions());
  ASSERT_TRUE(engine.ok());
  auto seq_plan = (*engine)->PlanOnly(Task::kSequenceCount);
  auto count_plan = (*engine)->PlanOnly(Task::kWordCount);
  ASSERT_TRUE(seq_plan.ok());
  ASSERT_TRUE(count_plan.ok());
  EXPECT_GT((*seq_plan)->profile.sequence_tokens, 0u);
  EXPECT_EQ((*count_plan)->profile.sequence_tokens, 0u);
}

// --------------------------------------------------------------------------
// Dispatch: forced overrides, the auto decision, determinism.
// --------------------------------------------------------------------------

TEST(DispatchTest, ForcedBackendOverridesTheEstimate) {
  MarkerCorpus mc = MakeDispatchCorpus();
  auto server = CorpusServer::Create(&mc.corpus, HybridOptions(2));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  CorpusServer::RunRequest request;
  request.task = Task::kWordCount;

  CorpusServer::RunOptions force_gpu;
  force_gpu.backend = CorpusServer::RunBackend::kGpu;
  auto gpu_run = tenant->Submit(request, force_gpu);
  ASSERT_TRUE(gpu_run.ok());
  ASSERT_TRUE(gpu_run->admitted());
  EXPECT_EQ(gpu_run->admission->backend, CorpusServer::RunBackend::kGpu);
  EXPECT_GT(gpu_run->admission->backend_estimate_seconds, 0.0);
  // Only one side was probed: the losing estimate is 0 by contract.
  EXPECT_EQ(gpu_run->admission->losing_estimate_seconds, 0.0);
  EXPECT_GT(gpu_run->admission->footprint_slots, 0u);

  CorpusServer::RunOptions force_cpu;
  force_cpu.backend = CorpusServer::RunBackend::kCpu;
  auto cpu_run = tenant->Submit(request, force_cpu);
  ASSERT_TRUE(cpu_run.ok());
  ASSERT_TRUE(cpu_run->admitted());
  EXPECT_EQ(cpu_run->admission->backend, CorpusServer::RunBackend::kCpu);
  EXPECT_GT(cpu_run->admission->backend_estimate_seconds, 0.0);
  EXPECT_EQ(cpu_run->admission->losing_estimate_seconds, 0.0);
  // A CPU-lane run reserves ZERO device slots.
  EXPECT_EQ(cpu_run->admission->footprint_slots, 0u);

  ASSERT_TRUE((*server)->ServeUntilIdle().ok());
}

TEST(DispatchTest, AutoPicksTheCheaperEstimate) {
  MarkerCorpus mc = MakeDispatchCorpus();
  auto server = CorpusServer::Create(&mc.corpus, HybridOptions(2));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  bool saw_cpu = false;
  bool saw_gpu = false;
  for (const CorpusServer::RunRequest& request : MixedWorkload(mc)) {
    auto submitted = tenant->Submit(request);
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->admitted());
    const CorpusServer::Admission& admission = *submitted->admission;
    // kAuto probed both sides and kept the cheaper one.
    EXPECT_LE(admission.backend_estimate_seconds,
              admission.losing_estimate_seconds);
    EXPECT_GT(admission.losing_estimate_seconds, 0.0);
    if (admission.backend == CorpusServer::RunBackend::kCpu) {
      saw_cpu = true;
      EXPECT_EQ(admission.footprint_slots, 0u);
    } else {
      saw_gpu = true;
    }
  }
  // The workload genuinely splits: selective keyword runs go to the CPU
  // (no fixed costs), heavy sequence scans to the GPU (compressed domain).
  EXPECT_TRUE(saw_cpu);
  EXPECT_TRUE(saw_gpu);
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());
}

TEST(DispatchTest, WithoutLanesEverythingStaysOnTheGpu) {
  MarkerCorpus mc = MakeDispatchCorpus();
  auto server = CorpusServer::Create(&mc.corpus, HybridOptions(0));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  for (const CorpusServer::RunRequest& request : MixedWorkload(mc)) {
    auto submitted = tenant->Submit(request);
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->admitted());
    EXPECT_EQ(submitted->admission->backend, CorpusServer::RunBackend::kGpu);
    // The CPU side was never probed.
    EXPECT_EQ(submitted->admission->losing_estimate_seconds, 0.0);
  }
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());
  EXPECT_EQ((*server)->stats().cpu_backend.runs, 0u);
  EXPECT_EQ((*server)->stats().peak_cpu_lanes_in_use, 0u);
}

TEST(DispatchTest, ForcingCpuWithoutLanesIsMalformed) {
  MarkerCorpus mc = MakeDispatchCorpus(2000);
  auto server = CorpusServer::Create(&mc.corpus, HybridOptions(0));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunOptions force_cpu;
  force_cpu.backend = CorpusServer::RunBackend::kCpu;
  auto submitted = tenant->Submit({}, force_cpu);
  ASSERT_TRUE(submitted.ok());
  ASSERT_FALSE(submitted->admitted());
  EXPECT_EQ(submitted->rejection->reason,
            CorpusServer::Rejection::Reason::kMalformed);
  EXPECT_EQ((*server)->stats().rejected, 1u);
}

TEST(DispatchTest, LanesRequireACpuCostModel) {
  MarkerCorpus mc = MakeDispatchCorpus(2000);
  CorpusServer::Options opt = HybridOptions(2);
  opt.cpu = gpu::CpuSpec{};  // ghz = 0: nothing to price CPU work with
  auto server = CorpusServer::Create(&mc.corpus, opt);
  EXPECT_FALSE(server.ok());
  EXPECT_TRUE(server.status().IsInvalidArgument());
}

TEST(DispatchTest, DeterministicAcrossIdenticalServers) {
  MarkerCorpus mc = MakeDispatchCorpus();
  std::vector<std::vector<CorpusServer::RunBackend>> decisions;
  std::vector<std::vector<double>> estimates;
  for (int trial = 0; trial < 2; ++trial) {
    auto server = CorpusServer::Create(&mc.corpus, HybridOptions(2));
    ASSERT_TRUE(server.ok());
    auto tenant = (*server)->OpenTenant({});
    ASSERT_TRUE(tenant.ok());
    std::vector<CorpusServer::RunBackend> backends;
    std::vector<double> run_estimates;
    for (const CorpusServer::RunRequest& request : MixedWorkload(mc)) {
      auto submitted = tenant->Submit(request);
      ASSERT_TRUE(submitted.ok());
      ASSERT_TRUE(submitted->admitted());
      backends.push_back(submitted->admission->backend);
      run_estimates.push_back(submitted->admission->backend_estimate_seconds);
    }
    decisions.push_back(std::move(backends));
    estimates.push_back(std::move(run_estimates));
    ASSERT_TRUE((*server)->ServeUntilIdle().ok());
  }
  // Dispatch is a pure function of the submission: identical servers make
  // identical decisions at identical prices.
  EXPECT_EQ(decisions[0], decisions[1]);
  EXPECT_EQ(estimates[0], estimates[1]);
}

// --------------------------------------------------------------------------
// Bit-identity: the backend moves the schedule, never the answer.
// --------------------------------------------------------------------------

TEST(DispatchTest, ResultsBitIdenticalAcrossForcedAndAutoDispatch) {
  MarkerCorpus mc = MakeDispatchCorpus();
  const std::vector<CorpusServer::RunRequest> workload = MixedWorkload(mc);

  const CorpusServer::RunBackend modes[] = {
      CorpusServer::RunBackend::kGpu,
      CorpusServer::RunBackend::kCpu,
      CorpusServer::RunBackend::kAuto,
  };
  std::vector<std::vector<CorpusServer::ServedRun>> served_by_mode;
  for (CorpusServer::RunBackend mode : modes) {
    auto server = CorpusServer::Create(&mc.corpus, HybridOptions(2));
    ASSERT_TRUE(server.ok());
    auto tenant = (*server)->OpenTenant({});
    ASSERT_TRUE(tenant.ok());
    CorpusServer::RunOptions run_options;
    run_options.backend = mode;
    std::vector<CorpusServer::RunTicket> tickets;
    for (const CorpusServer::RunRequest& request : workload) {
      auto submitted = tenant->Submit(request, run_options);
      ASSERT_TRUE(submitted.ok());
      ASSERT_TRUE(submitted->admitted());
      tickets.push_back(*submitted->ticket);
    }
    std::vector<CorpusServer::ServedRun> served;
    for (CorpusServer::RunTicket& ticket : tickets) {
      auto run = ticket.Await();
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      served.push_back(std::move(*run));
    }
    served_by_mode.push_back(std::move(served));
  }

  for (size_t r = 0; r < workload.size(); ++r) {
    const CorpusServer::ServedRun& gpu_run = served_by_mode[0][r];
    for (size_t mode = 1; mode < served_by_mode.size(); ++mode) {
      const CorpusServer::ServedRun& other = served_by_mode[mode][r];
      EXPECT_TRUE(gpu_run.batch.merged.SameAs(other.batch.merged))
          << "run " << r << " merged result diverged in mode " << mode;
      ASSERT_EQ(gpu_run.batch.documents.size(), other.batch.documents.size());
      for (size_t d = 0; d < gpu_run.batch.documents.size(); ++d) {
        EXPECT_TRUE(gpu_run.batch.documents[d].result.SameAs(
            other.batch.documents[d].result))
            << "run " << r << " document " << d << " diverged in mode "
            << mode;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Scheduling invariants and the per-backend stats breakdown.
// --------------------------------------------------------------------------

TEST(DispatchTest, LaneAndBudgetInvariantsHold) {
  MarkerCorpus mc = MakeDispatchCorpus();
  CorpusServer::Options opt = HybridOptions(2);
  opt.device_slot_budget = 2'000'000;
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const CorpusServer::RunRequest& request : MixedWorkload(mc)) {
      auto submitted = tenant->Submit(request);
      ASSERT_TRUE(submitted.ok());
      ASSERT_TRUE(submitted->admitted()) << submitted->rejection->detail;
    }
  }
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());

  const CorpusServer::Stats& stats = (*server)->stats();
  // Device slots never exceed the budget; lanes never exceed the lane count
  // — and both resources were actually used.
  EXPECT_LE(stats.peak_admitted_slots, opt.device_slot_budget);
  EXPECT_GT(stats.peak_admitted_slots, 0u);
  EXPECT_LE(stats.peak_cpu_lanes_in_use, opt.scheduler.cpu_lanes);
  EXPECT_GT(stats.peak_cpu_lanes_in_use, 0u);
  EXPECT_EQ(stats.mid_run_pool_growths, 0u);
}

TEST(DispatchTest, PerBackendStatsSplitTheServedWork) {
  MarkerCorpus mc = MakeDispatchCorpus();
  auto server = CorpusServer::Create(&mc.corpus, HybridOptions(2));
  ASSERT_TRUE(server.ok());
  CorpusServer::TenantOptions tenant_options;
  tenant_options.name = "split";
  auto tenant = (*server)->OpenTenant(tenant_options);
  ASSERT_TRUE(tenant.ok());
  for (const CorpusServer::RunRequest& request : MixedWorkload(mc)) {
    auto submitted = tenant->Submit(request);
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->admitted());
  }
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());

  const CorpusServer::Stats& stats = (*server)->stats();
  EXPECT_EQ(stats.gpu_backend.runs + stats.cpu_backend.runs, stats.served);
  EXPECT_GT(stats.gpu_backend.runs, 0u);
  EXPECT_GT(stats.cpu_backend.runs, 0u);
  EXPECT_GT(stats.gpu_backend.simulated_seconds, 0.0);
  EXPECT_GT(stats.cpu_backend.simulated_seconds, 0.0);
  EXPECT_GT(stats.gpu_backend.ops, 0u);
  EXPECT_GT(stats.cpu_backend.ops, 0u);
  EXPECT_EQ(stats.gpu_backend.documents_executed +
                stats.cpu_backend.documents_executed,
            stats.documents_executed);

  // The tenant's own split mirrors the server totals (one tenant here).
  const CorpusServer::TenantStats& tstats =
      stats.tenants.at(tenant->id());
  EXPECT_EQ(tstats.gpu_backend.runs, stats.gpu_backend.runs);
  EXPECT_EQ(tstats.cpu_backend.runs, stats.cpu_backend.runs);

  // devices[] stays GPU-side only: every device-executed document is a
  // GPU-backend document, none leaked from the CPU lanes.
  ASSERT_EQ(stats.devices.size(), 1u);
  EXPECT_EQ(stats.devices[0].documents_executed,
            stats.gpu_backend.documents_executed);
  EXPECT_EQ(stats.devices[0].runs_routed, stats.gpu_backend.runs);
}

TEST(DispatchTest, PlanCacheCountersSurfaceInStats) {
  MarkerCorpus mc = MakeDispatchCorpus();
  auto server = CorpusServer::Create(&mc.corpus, HybridOptions(2));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  const std::vector<CorpusServer::RunRequest> workload = MixedWorkload(mc);
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const CorpusServer::RunRequest& request : workload) {
      auto submitted = tenant->Submit(request);
      ASSERT_TRUE(submitted.ok());
      ASSERT_TRUE(submitted->admitted());
    }
  }
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());

  const CorpusServer::Stats::PlanCacheStats& cache =
      (*server)->stats().plan_cache;
  // Cold probes miss, the repeat pass and execution hit, nothing was
  // evicted from a cache sized to the corpus.
  EXPECT_GT(cache.misses, 0u);
  EXPECT_GT(cache.hits, cache.misses);
  EXPECT_EQ(cache.evictions, 0u);
  EXPECT_EQ(cache.size, cache.misses);
  EXPECT_EQ(cache.hits, (*server)->plan_cache()->hits());
}

TEST(DispatchTest, PlanCacheEvictionCounterTracksFifoDrops) {
  MarkerCorpus mc = MakeDispatchCorpus(2000);
  PlanCache cache(1);
  CpuTadocOptions copt;
  copt.cpu = gpu::PascalPlatform().cpu;
  copt.plan_cache = &cache;
  // Two distinct shapes through a one-slot cache: the second insert must
  // drop the first, and the counter says so.
  for (Task task : {Task::kWordCount, Task::kSort}) {
    auto engine = CpuTadocEngine::Create(&mc.corpus.partitions[0], copt);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->PlanOnly(task).ok());
  }
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DispatchTest, CpuRunsOnShardedServersSkipTheDeviceGroup) {
  MarkerCorpus mc = MakeDispatchCorpus();
  CorpusServer::Options opt = HybridOptions(2);
  opt.num_devices = 3;
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  CorpusServer::RunOptions force_cpu;
  force_cpu.backend = CorpusServer::RunBackend::kCpu;
  CorpusServer::RunRequest request;
  request.task = Task::kWordCount;
  auto submitted = tenant->Submit(request, force_cpu);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->admitted());
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // The CPU run executed the whole corpus on the host: every device's
  // counters stayed untouched, and the result still matches a forced-GPU
  // sharded run of the same request.
  for (const CorpusServer::Stats::DeviceStats& device :
       (*server)->stats().devices) {
    EXPECT_EQ(device.documents_executed, 0u);
    EXPECT_EQ(device.runs_routed, 0u);
  }
  auto gpu_submitted = tenant->Submit(request);
  ASSERT_TRUE(gpu_submitted.ok());
  ASSERT_TRUE(gpu_submitted->admitted());
  auto gpu_served = gpu_submitted->ticket->Await();
  ASSERT_TRUE(gpu_served.ok());
  EXPECT_TRUE(served->batch.merged.SameAs(gpu_served->batch.merged));
}

// A CPU lane runs over the server's prebuilt document index, so it charges
// no phase-1 DAG walk — unlike an engine that builds its own index from the
// grammar — and does the same traversal work for the same result.
TEST(DispatchTest, CpuLaneRunsChargeNoDagWalk) {
  MarkerCorpus mc = MakeDispatchCorpus(4000);
  auto server = CorpusServer::Create(&mc.corpus, HybridOptions(2));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunOptions force_cpu;
  force_cpu.backend = CorpusServer::RunBackend::kCpu;
  CorpusServer::RunRequest request;
  request.task = Task::kWordCount;
  auto submitted = tenant->Submit(request, force_cpu);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted->admitted());
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->batch.timing.init_ops, 0u);

  const BatchEngine::DocumentRun& doc = served->batch.documents[0];
  ASSERT_FALSE(doc.skipped);
  EXPECT_EQ(doc.timing.init_ops, 0u);
  CpuTadocOptions copt;
  copt.cpu = gpu::PascalPlatform().cpu;
  auto engine = CpuTadocEngine::Create(&mc.corpus.partitions[0], copt);
  ASSERT_TRUE(engine.ok());
  auto standalone = engine->Run(Task::kWordCount);
  ASSERT_TRUE(standalone.ok());
  EXPECT_GT(standalone->timing.init_ops, 0u);
  EXPECT_EQ(standalone->timing.traversal_ops, doc.timing.traversal_ops);
  EXPECT_TRUE(standalone->result.SameAs(doc.result));

  // What a cold engine adds in phase 1 is exactly the DAG walk: an engine
  // over a prebuilt index with a fresh plan cache charges only the plan
  // build, task by task and in both directions.
  const Grammar* doc0 = &mc.corpus.partitions[0];
  auto index = DocumentIndex::Build(*doc0);
  ASSERT_TRUE(index.ok());
  const uint64_t dag_walk = CpuTadocEngine::DagWalkOps((*index)->dag);
  EXPECT_GT(dag_walk, 0u);
  uint64_t plan_ops = 0;
  for (Task task : AllTasks()) {
    for (TraversalStrategy strategy :
         {TraversalStrategy::kTopDown, TraversalStrategy::kBottomUp}) {
      auto cold = CpuTadocEngine::Create(doc0, copt);
      auto indexed = CpuTadocEngine::Create(doc0, *index, copt);
      ASSERT_TRUE(cold.ok() && indexed.ok());
      auto cold_run = cold->Run(task, strategy);
      auto indexed_run = indexed->Run(task, strategy);
      ASSERT_TRUE(cold_run.ok() && indexed_run.ok()) << TaskName(task);
      EXPECT_EQ(cold_run->timing.init_ops,
                dag_walk + indexed_run->timing.init_ops)
          << TaskName(task) << " " << StrategyName(strategy);
      plan_ops += indexed_run->timing.init_ops;
    }
  }
  EXPECT_GT(plan_ops, 0u);  // the bottom-up bounds pass charges ops
}

// A CPU lane runs only its executed documents and ends in the shared
// gather: the served timing is exactly those documents' CPU timings plus
// one merge over the whole corpus at the lane's thread rate. A run that
// executes nothing is the merge alone. Skips are counted once per run on
// both backends.
TEST(DispatchTest, CpuLaneGatherChargesTheMergeAtTheThreadRate) {
  MarkerCorpus mc = MakeDispatchCorpus(4000);
  const size_t n = mc.corpus.partitions.size();
  const CorpusServer::Options options = HybridOptions(2);
  auto server = CorpusServer::Create(&mc.corpus, options);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  CorpusServer::RunRequest keyword;
  keyword.task = Task::kKeywordSearch;
  keyword.query_words = {mc.markers[0]};
  CorpusServer::RunRequest nothing;  // empty query: every document skips
  nothing.task = Task::kKeywordSearch;
  uint64_t admitted_skips = 0;
  for (const CorpusServer::RunRequest& request : {keyword, nothing}) {
    CorpusServer::RunOptions force_cpu;
    force_cpu.backend = CorpusServer::RunBackend::kCpu;
    auto submitted = tenant->Submit(request, force_cpu);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted->admitted());
    admitted_skips += submitted->admission->documents_skipped;
    auto served = submitted->ticket->Await();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->admission.backend, CorpusServer::RunBackend::kCpu);
    const BatchEngine::BatchRun& batch = served->batch;

    RunTiming expected;
    expected.documents = 0;
    AnalyticsResult merged;
    merged.task = request.task;
    uint64_t merge_ops = 0;
    uint32_t executed = 0;
    for (const BatchEngine::DocumentRun& doc : batch.documents) {
      if (!doc.skipped) {
        expected.Accumulate(doc.timing);
        ++executed;
      }
      MergeResult(doc.result, doc.file_base, &merged, &merge_ops);
    }
    FinalizeMergedResult(&merged, &merge_ops);
    EXPECT_EQ(executed, served->admission.documents_to_execute);
    EXPECT_EQ(batch.documents_skipped, served->admission.documents_skipped);
    expected.traversal_seconds +=
        static_cast<double>(merge_ops) / options.cpu.thread_ops_per_sec();
    expected.traversal_ops += merge_ops;
    expected.documents = static_cast<uint32_t>(n);

    const RunTiming& t = batch.timing;
    EXPECT_EQ(t.init_seconds, expected.init_seconds);
    EXPECT_EQ(t.traversal_seconds, expected.traversal_seconds);
    EXPECT_EQ(t.init_ops, expected.init_ops);
    EXPECT_EQ(t.traversal_ops, expected.traversal_ops);
    EXPECT_EQ(t.plan_seconds, expected.plan_seconds);
    EXPECT_EQ(t.plan_cache_hits, expected.plan_cache_hits);
    EXPECT_EQ(t.upload_seconds, expected.upload_seconds);
    EXPECT_EQ(t.download_seconds, expected.download_seconds);
    EXPECT_EQ(t.overlap_saved_seconds, expected.overlap_saved_seconds);
    EXPECT_EQ(t.documents, expected.documents);
    EXPECT_TRUE(batch.merged.SameAs(merged));
    EXPECT_EQ(merge_ops > 0, executed > 0);
    EXPECT_EQ(served->gather_seconds, 0.0);
    EXPECT_TRUE(served->device_durations.empty());
  }
  EXPECT_GT(admitted_skips, 0u);

  // GPU runs count their skips the same way: once per run.
  for (const CorpusServer::RunRequest& request : {keyword, nothing}) {
    CorpusServer::RunOptions force_gpu;
    force_gpu.backend = CorpusServer::RunBackend::kGpu;
    auto submitted = tenant->Submit(request, force_gpu);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted->admitted());
    admitted_skips += submitted->admission->documents_skipped;
  }
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());
  EXPECT_EQ((*server)->stats().documents_skipped, admitted_skips);
  EXPECT_EQ((*server)->stats().documents_executed + admitted_skips, 4 * n);
}

TEST(DispatchTest, DeviceGroupRefusesCpuWork) {
  MarkerCorpus mc = MakeDispatchCorpus(2000);
  ShardedCorpus::Options sopt;
  sopt.num_devices = 2;
  auto sharded = ShardedCorpus::Create(&mc.corpus, sopt);
  ASSERT_TRUE(sharded.ok());
  CorpusIndex index(&mc.corpus.partitions);
  DeviceGroup group(sharded->get(), &index);

  // CPU plans handed to a device group are refused before any device
  // executes, so a dispatch bug cannot charge CPU work to device counters.
  auto cpu_plans = PlanDocuments(mc.corpus, GpuOptions(), Task::kWordCount,
                                 {}, kCpuPlanBackend);
  ASSERT_TRUE(cpu_plans.ok()) << cpu_plans.status().ToString();
  const std::vector<uint8_t> all(mc.corpus.partitions.size(), 1);
  ShardedCorpus::RoutePlan route = (*sharded)->Route(all, {}, {});
  DeviceGroup::RunSpec spec;
  spec.engine = GpuOptions();
  spec.route = &route;
  spec.plans = *cpu_plans;
  auto result = group.Execute(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  for (const DeviceGroup::DeviceCounters& counters : group.counters()) {
    EXPECT_EQ(counters.runs_routed, 0u);
    EXPECT_EQ(counters.documents_executed, 0u);
  }
}

}  // namespace
}  // namespace gtadoc
