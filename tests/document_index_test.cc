#include "analytics/document_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "analytics/server.h"
#include "analytics/sharding.h"
#include "analytics/uncompressed.h"
#include "common/random.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "tadoc/cpu_engine.h"
#include "serve_util.h"

namespace gtadoc {
namespace {

GTadocEngine::Options GpuOptions() {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;
  return opt;
}

MarkerCorpus MakeMarkerCorpus(uint32_t num_docs, uint32_t relevant) {
  MarkerCorpusSpec spec;
  spec.num_docs = num_docs;
  spec.relevant = relevant;
  spec.num_markers = 2;
  auto built = BuildMarkerCorpus(spec);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

/// A server with two CPU lanes next to `num_devices` simulated GPUs, so
/// every request can be forced onto either backend.
CorpusServer::Options LaneOptions(size_t num_devices = 1,
                                  size_t replication = 1) {
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.num_devices = num_devices;
  opt.replication = replication;
  opt.scheduler.cpu_lanes = 2;
  opt.cpu = gpu::PascalPlatform().cpu;
  return opt;
}

CorpusServer::RunRequest KeywordRequest(uint32_t word) {
  CorpusServer::RunRequest request;
  request.task = Task::kKeywordSearch;
  request.query_words = {word};
  return request;
}

CorpusServer::RunRequest TaskRequest(Task task) {
  CorpusServer::RunRequest request;
  request.task = task;
  return request;
}

Result<CorpusServer::ServedRun> SubmitAndAwait(
    CorpusServer::TenantHandle tenant, const CorpusServer::RunRequest& request,
    CorpusServer::RunBackend backend) {
  CorpusServer::RunOptions run_options;
  run_options.backend = backend;
  auto submitted = tenant.Submit(request, run_options);
  if (!submitted.ok()) return submitted.status();
  if (!submitted->admitted()) {
    return Status::Internal("rejected: " + submitted->rejection->detail);
  }
  return submitted->ticket->Await();
}

// --------------------------------------------------------------------------
// CSR DagView against a brute-force aggregation.
// --------------------------------------------------------------------------

/// Random files drawn from a few repeated phrases plus noise, so Sequitur
/// builds nested, shared rules.
std::vector<std::vector<uint32_t>> RandomFiles(Rng* rng, uint32_t num_words) {
  std::vector<std::vector<uint32_t>> phrases(2 + rng->Uniform(5));
  for (auto& phrase : phrases) {
    phrase.resize(2 + rng->Uniform(6));
    for (uint32_t& w : phrase) {
      w = static_cast<uint32_t>(rng->Uniform(num_words));
    }
  }
  std::vector<std::vector<uint32_t>> files(1 + rng->Uniform(3));
  for (auto& file : files) {
    const uint64_t pieces = 1 + rng->Uniform(120);
    for (uint64_t p = 0; p < pieces; ++p) {
      if (rng->Uniform(4) == 0) {
        file.push_back(static_cast<uint32_t>(rng->Uniform(num_words)));
      } else {
        const auto& phrase = phrases[rng->Uniform(phrases.size())];
        file.insert(file.end(), phrase.begin(), phrase.end());
      }
    }
  }
  return files;
}

TEST(DagViewCsrTest, MatchesBruteForceAggregationOnSequiturGrammars) {
  Rng rng(20240611);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const uint32_t num_words = 3 + static_cast<uint32_t>(rng.Uniform(40));
    auto g = CompressTokenStreams(RandomFiles(&rng, num_words), num_words);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    auto view = DagView::Build(*g);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    const DagView& v = *view;
    const uint32_t n = static_cast<uint32_t>(g->rules.size());
    ASSERT_EQ(v.num_rules(), n);

    // Brute force: ordered maps per rule give children/words by id; parents
    // are every rule whose body names the child, ascending.
    std::vector<std::map<uint32_t, uint32_t>> kids(n), words(n);
    std::vector<std::vector<uint32_t>> parents(n);
    for (uint32_t r = 0; r < n; ++r) {
      for (uint32_t sym : g->rules[r]) {
        if (g->IsRule(sym)) ++kids[r][g->RuleIndex(sym)];
        if (g->IsWord(sym)) ++words[r][sym];
      }
      for (const auto& [child, freq] : kids[r]) {
        (void)freq;
        parents[child].push_back(r);
      }
    }

    for (uint32_t r = 0; r < n; ++r) {
      ASSERT_EQ(v.children(r).size(), kids[r].size()) << "rule " << r;
      size_t i = 0;
      for (const auto& [child, freq] : kids[r]) {
        EXPECT_EQ(v.children(r)[i].child, child);
        EXPECT_EQ(v.children(r)[i].freq, freq);
        ++i;
      }
      ASSERT_EQ(v.words(r).size(), words[r].size()) << "rule " << r;
      i = 0;
      for (const RuleWordEntry& w : v.words(r)) {
        auto it = std::next(words[r].begin(), static_cast<long>(i++));
        EXPECT_EQ(w.word, it->first);
        EXPECT_EQ(w.freq, it->second);
      }
      EXPECT_EQ(std::vector<uint32_t>(v.parents(r).begin(),
                                      v.parents(r).end()),
                parents[r]);
      EXPECT_EQ(v.children(r).empty(), kids[r].empty());
      EXPECT_EQ(v.num_out_edges(r), kids[r].size());
      EXPECT_EQ(v.body_size(r), g->rules[r].size());
      const uint32_t from_root =
          r != 0 && kids[0].count(r) != 0 ? kids[0].at(r) : 0;
      EXPECT_EQ(v.root_freq(r), from_root);
      const bool root_parent = from_root != 0;
      EXPECT_EQ(v.num_in_edges_nonroot(r),
                parents[r].size() - (root_parent ? 1 : 0));
    }

    // Topological order: Kahn over the brute-force edges with a FIFO queue,
    // children released in id order, is exactly the view's order; depths
    // are longest paths from the root.
    std::vector<uint32_t> pending(n);
    for (uint32_t r = 0; r < n; ++r) {
      pending[r] = static_cast<uint32_t>(parents[r].size());
    }
    std::vector<uint32_t> order;
    std::vector<uint32_t> depth(n, 0);
    std::deque<uint32_t> ready = {0};
    while (!ready.empty()) {
      const uint32_t r = ready.front();
      ready.pop_front();
      order.push_back(r);
      for (const auto& [child, freq] : kids[r]) {
        (void)freq;
        depth[child] = std::max(depth[child], depth[r] + 1);
        if (--pending[child] == 0) ready.push_back(child);
      }
    }
    EXPECT_EQ(v.topo_order(), order);
    for (uint32_t r = 0; r < n; ++r) EXPECT_EQ(v.depth(r), depth[r]);
    EXPECT_EQ(v.max_depth(), *std::max_element(depth.begin(), depth.end()));
  }
}

// --------------------------------------------------------------------------
// CorpusIndex: lazy, once per document, failures cached.
// --------------------------------------------------------------------------

TEST(CorpusIndexTest, ConcurrentFirstUseBuildsEachDocumentOnce) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4);
  const std::vector<Grammar>& docs = mc.corpus.partitions;
  CorpusIndex index(&docs);
  EXPECT_EQ(index.builds(), 0u);

  constexpr int kThreads = 8;
  std::vector<std::vector<const DocumentIndex*>> seen(
      kThreads, std::vector<const DocumentIndex*>(docs.size(), nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the corpus from a different starting document,
      // so first uses collide.
      for (size_t k = 0; k < docs.size(); ++k) {
        const uint32_t d = static_cast<uint32_t>((k + t) % docs.size());
        auto entry = index.Get(d);
        if (entry.ok()) seen[t][d] = entry->get();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(index.builds(), docs.size());
  for (uint32_t d = 0; d < docs.size(); ++d) {
    EXPECT_EQ(index.builds(d), 1u);
    ASSERT_NE(seen[0][d], nullptr);
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][d], seen[0][d]);
    auto standalone = DocumentIndex::Build(docs[d]);
    ASSERT_TRUE(standalone.ok());
    EXPECT_EQ(seen[0][d]->fingerprint, (*standalone)->fingerprint);
    EXPECT_EQ(seen[0][d]->dag.topo_order(), (*standalone)->dag.topo_order());
  }
}

TEST(CorpusIndexTest, FailedBuildIsCachedWithItsStatus) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/4, /*relevant=*/2);
  std::vector<Grammar> docs = mc.corpus.partitions;
  docs[3].rules[1].push_back(docs[3].RuleId(1));  // rule references itself
  CorpusIndex index(&docs);
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto entry = index.Get(3);
    EXPECT_TRUE(entry.status().IsCorruption());
  }
  EXPECT_EQ(index.builds(3), 1u);
  EXPECT_TRUE(index.Get(0).ok());
  EXPECT_EQ(index.builds(), 2u);
  EXPECT_TRUE(index.Get(4).status().IsInvalidArgument());
}

TEST(CorpusIndexTest, ConcurrentBatchRunsShareOneIndex) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/3);
  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  bopt.host_workers = 4;
  auto reference = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(reference.ok());
  auto expected = (*reference)->Run(Task::kInvertedIndex);
  ASSERT_TRUE(expected.ok());

  CorpusIndex index(&mc.corpus.partitions);
  std::vector<Result<BatchEngine::BatchRun>> runs(
      2, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < runs.size(); ++t) {
    threads.emplace_back([&, t] {
      auto engine = BatchEngine::Create(&mc.corpus, bopt, &index);
      if (!engine.ok()) return;
      runs[t] = (*engine)->Run(Task::kInvertedIndex);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& run : runs) {
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->merged.SameAs(expected->merged));
    EXPECT_DOUBLE_EQ(run->timing.total_seconds(),
                     expected->timing.total_seconds());
  }
  EXPECT_EQ(index.builds(), mc.corpus.partitions.size());
}

// --------------------------------------------------------------------------
// Serving: each document's index is built once for the server's lifetime.
// --------------------------------------------------------------------------

TEST(DocumentIndexServingTest, ExecutedDocumentsBuiltOnceAcrossGpuAndCpuLanes) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/10, /*relevant=*/3);
  auto server = CorpusServer::Create(&mc.corpus, LaneOptions());
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  // Marker-only traffic first: documents the root Blooms reject are never
  // executed, so their indexes must not exist yet.
  std::vector<uint8_t> executed(mc.corpus.partitions.size(), 0);
  const CorpusServer::RunBackend backends[] = {CorpusServer::RunBackend::kGpu,
                                               CorpusServer::RunBackend::kCpu};
  for (int cycle = 0; cycle < 6; ++cycle) {
    auto served =
        SubmitAndAwait(*tenant, KeywordRequest(mc.markers[cycle % 2]),
                       backends[cycle % 2]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    for (const auto& doc : served->batch.documents) {
      if (!doc.skipped) executed[doc.doc] = 1;
    }
  }
  const CorpusIndex& index = (*server)->document_index();
  for (uint32_t d = 0; d < executed.size(); ++d) {
    EXPECT_EQ(index.builds(d), executed[d]) << "document " << d;
  }
  EXPECT_LT(index.builds(), mc.corpus.partitions.size());

  // Corpus-wide traffic on both backends: every document is built exactly
  // once, no matter how many runs, probes and lanes touch it.
  const Task tasks[] = {Task::kWordCount, Task::kInvertedIndex,
                        Task::kSequenceCount, Task::kTermVector};
  for (int cycle = 0; cycle < 8; ++cycle) {
    auto served = SubmitAndAwait(*tenant, TaskRequest(tasks[cycle % 4]),
                                 backends[(cycle / 4) % 2]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }
  for (uint32_t d = 0; d < executed.size(); ++d) {
    EXPECT_EQ(index.builds(d), 1u) << "document " << d;
  }
  EXPECT_EQ(index.builds(), mc.corpus.partitions.size());
}

TEST(DocumentIndexServingTest, BloomSkippedDocumentIsNeverBuilt) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/2);
  for (size_t num_devices : {1, 4}) {
    SCOPED_TRACE("devices=" + std::to_string(num_devices));
    auto server = CorpusServer::Create(&mc.corpus, LaneOptions(num_devices));
    ASSERT_TRUE(server.ok());
    CorpusServer::RunRequest request;
    request.task = Task::kKeywordSearch;
    request.query_sets = {{mc.markers[0]}, {mc.markers[1]}};
    std::vector<CorpusServer::RunRequest> requests(3, request);
    auto served = SubmitAndServe(server->get(), requests);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const CorpusIndex& index = (*server)->document_index();
    for (const auto& doc : (*served)[0].batch.documents) {
      EXPECT_EQ(index.builds(doc.doc), doc.skipped ? 0u : 1u)
          << "document " << doc.doc;
    }
    EXPECT_EQ((*served)[0].batch.documents_skipped,
              mc.corpus.partitions.size() - index.builds());
  }
}

TEST(DocumentIndexServingTest, ReplicasShareOneEntryPerGlobalDocument) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4);
  const size_t n = mc.corpus.partitions.size();
  ShardedCorpus::Options sopt;
  sopt.num_devices = 4;
  sopt.replication = 2;
  auto sharded = ShardedCorpus::Create(&mc.corpus, sopt);
  ASSERT_TRUE(sharded.ok());
  CorpusIndex index(&mc.corpus.partitions);
  DeviceGroup group(sharded->get(), &index);

  // Three routes that together execute every document on BOTH of its
  // homes: primaries, then load steering documents off devices {0, 2} and
  // off devices {1, 3} onto their second replica.
  const std::vector<uint8_t> all(n, 1);
  // Planned through a private index, so every build `index` counts comes
  // from a device executing the document.
  auto plans = PlanDocuments(mc.corpus, GpuOptions(), Task::kInvertedIndex);
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  EXPECT_EQ(index.builds(), 0u);
  const std::vector<std::vector<double>> loads = {
      {}, {1e9, 0, 1e9, 0}, {0, 1e9, 0, 1e9}};
  std::vector<std::vector<uint8_t>> ran_on(n, std::vector<uint8_t>(4, 0));
  std::vector<BatchEngine::BatchRun> runs;
  for (const std::vector<double>& load : loads) {
    const ShardedCorpus::RoutePlan route = (*sharded)->Route(all, {}, load);
    for (uint32_t d = 0; d < route.device_docs.size(); ++d) {
      for (uint32_t g : route.device_docs[d]) ran_on[g][d] = 1;
    }
    DeviceGroup::RunSpec spec;
    spec.task = Task::kInvertedIndex;
    spec.engine = GpuOptions();
    spec.route = &route;
    spec.plans = *plans;
    auto result = group.Execute(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    runs.push_back(std::move(result->batch));
  }
  for (uint32_t g = 0; g < n; ++g) {
    for (uint32_t d : (*sharded)->replicas(g)) {
      EXPECT_EQ(ran_on[g][d], 1u) << "document " << g << " device " << d;
    }
    EXPECT_EQ(index.builds(g), 1u) << "document " << g;
  }
  EXPECT_EQ(index.builds(), n);
  for (const BatchEngine::BatchRun& run : runs) {
    EXPECT_TRUE(run.merged.SameAs(runs[0].merged));
  }

  // The server keys its index the same way: one build per global document
  // however runs spread over replicas.
  auto server = CorpusServer::Create(&mc.corpus, LaneOptions(4, 2));
  ASSERT_TRUE(server.ok());
  std::vector<CorpusServer::RunRequest> requests;
  for (int i = 0; i < 6; ++i) {
    requests.push_back(TaskRequest(i % 2 == 0 ? Task::kWordCount
                                              : Task::kInvertedIndex));
  }
  auto served = SubmitAndServe(server->get(), requests);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ((*server)->document_index().builds(), n);
}

TEST(DocumentIndexServingTest, HostWorkersShareTheServerIndex) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/9, /*relevant=*/3);
  CorpusServer::Options options = LaneOptions(2, 2);
  options.host_workers = 4;
  auto server = CorpusServer::Create(&mc.corpus, options);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  for (CorpusServer::RunBackend backend :
       {CorpusServer::RunBackend::kCpu, CorpusServer::RunBackend::kGpu}) {
    auto served =
        SubmitAndAwait(*tenant, TaskRequest(Task::kTermVector), backend);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }
  EXPECT_EQ((*server)->document_index().builds(),
            mc.corpus.partitions.size());
}

TEST(DocumentIndexServingTest, CorruptDocumentFailsOnlyItsOwnRuns) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2);
  PartitionedCorpus corrupt = mc.corpus;
  const uint32_t bad = 5;  // marker-free: keyword runs Bloom-skip it
  corrupt.partitions[bad].rules[1].push_back(
      corrupt.partitions[bad].RuleId(1));

  auto clean_server = CorpusServer::Create(&mc.corpus, LaneOptions());
  auto server = CorpusServer::Create(&corrupt, LaneOptions());
  ASSERT_TRUE(clean_server.ok());
  ASSERT_TRUE(server.ok());
  auto clean_tenant = (*clean_server)->OpenTenant({});
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(clean_tenant.ok());
  ASSERT_TRUE(tenant.ok());

  for (CorpusServer::RunBackend backend :
       {CorpusServer::RunBackend::kGpu, CorpusServer::RunBackend::kCpu}) {
    // A run that must execute the corrupt document fails with Corruption,
    // every time, from the one cached build.
    for (int attempt = 0; attempt < 2; ++attempt) {
      CorpusServer::RunOptions run_options;
      run_options.backend = backend;
      auto submitted =
          tenant->Submit(TaskRequest(Task::kWordCount), run_options);
      ASSERT_FALSE(submitted.ok());
      EXPECT_TRUE(submitted.status().IsCorruption())
          << submitted.status().ToString();
    }
    // Runs that skip it are untouched: same results as the clean corpus.
    auto served =
        SubmitAndAwait(*tenant, KeywordRequest(mc.markers[0]), backend);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto clean = SubmitAndAwait(*clean_tenant, KeywordRequest(mc.markers[0]),
                                backend);
    ASSERT_TRUE(clean.ok());
    EXPECT_TRUE(served->batch.merged.SameAs(clean->batch.merged));
    EXPECT_TRUE(served->batch.documents[bad].skipped);
  }
  EXPECT_EQ((*server)->document_index().builds(bad), 1u);

  // The batch path reports the same failure for the corrupt document.
  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&corrupt, bopt);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE((*batch)->Run(Task::kWordCount).status().IsCorruption());
}

// --------------------------------------------------------------------------
// Plan-cache-first probes.
// --------------------------------------------------------------------------

TEST(ProbeTest, RepeatedShapeProbeBindsNoDeviceGrammar) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2);
  CorpusServer::Options options;
  options.engine = GpuOptions();
  // No allocation charge, so admission_seconds is the probe's alone (the
  // pre-sizing allocation charge would otherwise ride on every GPU run).
  options.engine.gpu.device_alloc_us = 0;
  auto server = CorpusServer::Create(&mc.corpus, options);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  const uint64_t n = mc.corpus.partitions.size();
  // The sequence pipeline's plan runs charged expansion rounds, so a miss
  // costs admission time.
  const CorpusServer::RunRequest request = TaskRequest(Task::kSequenceCount);

  auto first = Admit(*tenant, request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->admission->admission_seconds, 0.0);
  EXPECT_EQ((*server)->plan_cache()->misses(), n);
  ASSERT_TRUE(first->ticket->Await().ok());
  // One lookup per document at probe, none at execution (the run executes
  // the probe's plans); a miss is looked up once, then built.
  EXPECT_EQ((*server)->plan_cache()->misses(), n);
  EXPECT_EQ((*server)->plan_cache()->hits(), 0u);

  auto second = Admit(*tenant, request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->admission->admission_seconds, 0.0);
  EXPECT_EQ((*server)->plan_cache()->hits(), n);
  EXPECT_EQ((*server)->plan_cache()->misses(), n);
  auto second_run = second->ticket->Await();
  ASSERT_TRUE(second_run.ok());
  EXPECT_EQ(second_run->batch.timing.plan_seconds, 0.0);
}

// A cold Submit charges exactly what standalone engines charge to plan the
// executed documents, and prices the run with exactly their plans; a repeat
// Submit plans nothing.
TEST(ProbeTest, ColdSubmitChargesTheStandaloneEnginesPlanning) {
  using RunBackend = CorpusServer::RunBackend;
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/4, /*relevant=*/2);
  CorpusServer::Options options = LaneOptions();
  // No allocation charge: admission_seconds is then the plan builds alone.
  options.engine.gpu.device_alloc_us = 0;
  for (const RunBackend backend : {RunBackend::kGpu, RunBackend::kCpu}) {
    const bool cpu = backend == RunBackend::kCpu;
    auto server = CorpusServer::Create(&mc.corpus, options);
    ASSERT_TRUE(server.ok());
    auto tenant = (*server)->OpenTenant({});
    ASSERT_TRUE(tenant.ok());
    CorpusServer::RunOptions run_options;
    run_options.backend = backend;
    double charged = 0.0;
    for (const Task task : TaskRegistry::RegisteredTasks()) {
      SCOPED_TRACE(std::string(TaskName(task)) + (cpu ? " cpu" : " gpu"));
      CorpusServer::RunRequest request = TaskRequest(task);
      request.query_words = {mc.markers[0], mc.markers[1]};
      auto cold = tenant->Submit(request, run_options);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      ASSERT_TRUE(cold->admitted());
      auto served = cold->ticket->Await();
      ASSERT_TRUE(served.ok()) << served.status().ToString();

      GTadocEngine::Options gopt = options.engine;
      static_cast<QuerySpec&>(gopt) =
          ResolveQueryDefaults(request, options.engine);
      CpuTadocOptions copt;
      static_cast<QuerySpec&>(copt) = gopt;
      copt.cpu = options.cpu;
      copt.strategy = gopt.strategy;
      double plan_seconds = 0.0;
      double estimate_seconds = 0.0;
      for (size_t d = 0; d < mc.corpus.partitions.size(); ++d) {
        if (served->batch.documents[d].skipped) continue;
        const Grammar* doc = &mc.corpus.partitions[d];
        std::shared_ptr<const RunPlan> plan;
        if (cpu) {
          auto engine = CpuTadocEngine::Create(doc, copt);
          ASSERT_TRUE(engine.ok());
          auto run = engine->Run(task);
          ASSERT_TRUE(run.ok());
          plan_seconds += run->timing.plan_seconds;
          plan = engine->CachedPlan(task);
        } else {
          auto engine = GTadocEngine::Create(doc, gopt);
          ASSERT_TRUE(engine.ok());
          auto run = (*engine)->Run(task);
          ASSERT_TRUE(run.ok());
          plan_seconds += run->timing.plan_seconds;
          plan = (*engine)->CachedPlan(task);
        }
        ASSERT_NE(plan, nullptr);
        estimate_seconds += plan->estimate.seconds;
      }
      EXPECT_EQ(cold->admission->admission_seconds, plan_seconds);
      EXPECT_EQ(cold->admission->backend_estimate_seconds, estimate_seconds);
      charged += plan_seconds;

      const uint64_t misses = (*server)->plan_cache()->misses();
      auto repeat = tenant->Submit(request, run_options);
      ASSERT_TRUE(repeat.ok());
      ASSERT_TRUE(repeat->admitted());
      EXPECT_EQ(repeat->admission->admission_seconds, 0.0);
      EXPECT_EQ((*server)->plan_cache()->misses(), misses);
      ASSERT_TRUE(repeat->ticket->Await().ok());
    }
    // Some plan builds charge planning passes on either backend.
    EXPECT_GT(charged, 0.0) << (cpu ? "cpu" : "gpu");
  }
}

// An n-gram shorter than two words is refused at Submit on either backend,
// as both engines refuse it at Create.
TEST(ProbeTest, RejectsNgramLenBelowTwoOnEitherBackend) {
  using RunBackend = CorpusServer::RunBackend;
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/3, /*relevant=*/1);
  auto server = CorpusServer::Create(&mc.corpus, LaneOptions());
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest request = TaskRequest(Task::kSequenceCount);
  request.ngram_len = 1;
  for (const RunBackend backend : {RunBackend::kGpu, RunBackend::kCpu}) {
    CorpusServer::RunOptions run_options;
    run_options.backend = backend;
    auto submitted = (*tenant).Submit(request, run_options);
    EXPECT_TRUE(submitted.status().IsInvalidArgument())
        << (backend == RunBackend::kCpu ? "cpu: " : "gpu: ")
        << submitted.status().ToString();
  }
  EXPECT_EQ((*server)->queued(), 0u);
}

// --------------------------------------------------------------------------
// Identity: GPU == CPU == uncompressed, per document and merged, across
// device counts and replication.
// --------------------------------------------------------------------------

TEST(DocumentIndexServingTest, BitIdenticalToUncompressedAcrossTopologies) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/3);
  std::vector<CorpusServer::RunRequest> requests = {
      TaskRequest(Task::kWordCount), TaskRequest(Task::kInvertedIndex),
      TaskRequest(Task::kSequenceCount), KeywordRequest(mc.markers[0])};

  // Ground truth per document (document-local file ids) and for the whole
  // corpus (global file ids), from the decompressed token streams.
  std::vector<std::vector<std::vector<uint32_t>>> doc_files;
  std::vector<std::vector<uint32_t>> all_files;
  for (const Grammar& doc : mc.corpus.partitions) {
    auto files = ExpandFiles(doc);
    ASSERT_TRUE(files.ok());
    all_files.insert(all_files.end(), files->begin(), files->end());
    doc_files.push_back(std::move(*files));
  }
  std::vector<std::vector<AnalyticsResult>> doc_truth(requests.size());
  std::vector<AnalyticsResult> merged_truth;
  for (size_t r = 0; r < requests.size(); ++r) {
    const QuerySpec query = ResolveQueryDefaults(requests[r], GpuOptions());
    for (const auto& files : doc_files) {
      doc_truth[r].push_back(
          UncompressedAnalytics(files, query).RunSequential(requests[r].task));
    }
    UncompressedAnalytics corpus_truth(all_files, query);
    merged_truth.push_back(corpus_truth.RunSequential(requests[r].task));
  }

  for (size_t num_devices : {1, 2, 3, 4}) {
    for (size_t replication : {1, 2}) {
      auto server = CorpusServer::Create(&mc.corpus,
                                         LaneOptions(num_devices, replication));
      ASSERT_TRUE(server.ok());
      auto tenant = (*server)->OpenTenant({});
      ASSERT_TRUE(tenant.ok());
      for (CorpusServer::RunBackend backend :
           {CorpusServer::RunBackend::kGpu, CorpusServer::RunBackend::kCpu}) {
        for (size_t r = 0; r < requests.size(); ++r) {
          SCOPED_TRACE("devices=" + std::to_string(num_devices) +
                       " replication=" + std::to_string(replication) +
                       " backend=" +
                       std::to_string(static_cast<int>(backend)) +
                       " request=" + std::to_string(r));
          auto served = SubmitAndAwait(*tenant, requests[r], backend);
          ASSERT_TRUE(served.ok()) << served.status().ToString();
          EXPECT_TRUE(served->batch.merged.SameAs(merged_truth[r]))
              << served->batch.merged.Digest() << " vs "
              << merged_truth[r].Digest();
          for (size_t d = 0; d < doc_truth[r].size(); ++d) {
            EXPECT_TRUE(
                served->batch.documents[d].result.SameAs(doc_truth[r][d]))
                << "document " << d;
          }
        }
      }
      EXPECT_EQ((*server)->document_index().builds(),
                mc.corpus.partitions.size());
    }
  }
}

}  // namespace
}  // namespace gtadoc
