#include "analytics/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "datagen/datagen.h"
#include "format/serializer.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "serve_util.h"

namespace gtadoc {
namespace {

GTadocEngine::Options GpuOptions() {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;  // deterministic per-document runs
  return opt;
}

/// A corpus of template-heavy files pre-partitioned into documents sharing
/// one dictionary (the BatchEngine fixture, reused for serving tests).
PartitionedCorpus MakeCorpus(uint32_t num_files, uint32_t num_documents,
                             uint64_t tokens = 6000, uint64_t seed = 7) {
  DatasetSpec spec = DatasetA();
  spec.num_files = num_files;
  spec.total_tokens = tokens;
  spec.vocabulary = 300;
  spec.seed = seed;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, num_documents);
  EXPECT_TRUE(part.ok()) << part.status().ToString();
  return std::move(*part);
}

/// The deterministic corpus-skip fixture (datagen's BuildMarkerCorpus):
/// markers live only in documents [0, relevant), every marker-free
/// document's root Bloom provably rejects them, and `false_positive` is an
/// injected word document `relevant`'s root Bloom falsely passes.
MarkerCorpus MakeMarkerCorpus(uint32_t num_docs, uint32_t relevant,
                              uint32_t num_markers) {
  MarkerCorpusSpec spec;
  spec.num_docs = num_docs;
  spec.relevant = relevant;
  spec.num_markers = num_markers;
  auto built = BuildMarkerCorpus(spec);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

// --------------------------------------------------------------------------
// Plan-only footprint probe (the admission input).
// --------------------------------------------------------------------------

TEST(PlanOnlyTest, ProbeCachesThePlanTheRunConsumes) {
  PartitionedCorpus corpus = MakeCorpus(8, 1);
  auto engine = GTadocEngine::Create(&corpus.partitions[0], GpuOptions());
  ASSERT_TRUE(engine.ok());

  auto probed = (*engine)->PlanOnly(Task::kInvertedIndex);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  EXPECT_GT((*probed)->total_slots, 0u);

  // The probe resolved and cached the exact plan the run consumes: the run
  // is a hit, pays zero planning, and executes the same plan object.
  auto run = (*engine)->Run(Task::kInvertedIndex);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->timing.plan_seconds, 0.0);
  EXPECT_EQ(run->timing.plan_cache_hits, 1u);
  auto cached = (*engine)->CachedPlan(Task::kInvertedIndex);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached.get(), probed->get());
}

TEST(PlanOnlyTest, UnknownTaskIsNotFound) {
  PartitionedCorpus corpus = MakeCorpus(4, 1);
  auto engine = GTadocEngine::Create(&corpus.partitions[0], GpuOptions());
  ASSERT_TRUE(engine.ok());
  auto probed = (*engine)->PlanOnly(static_cast<Task>(987654));
  EXPECT_FALSE(probed.ok());
}

// --------------------------------------------------------------------------
// Admission control.
// --------------------------------------------------------------------------

TEST(CorpusServerTest, AdmittedRunsNeverExceedSlotBudget) {
  PartitionedCorpus corpus = MakeCorpus(16, 4);
  const std::vector<Task> tasks = {Task::kWordCount, Task::kInvertedIndex,
                                   Task::kTermVector, Task::kSort,
                                   Task::kInvertedIndex, Task::kWordCount};

  // Sizing pass: an unmetered server reports every run's footprint.
  CorpusServer::Options sizing;
  sizing.engine = GpuOptions();
  auto sizer = CorpusServer::Create(&corpus, sizing);
  ASSERT_TRUE(sizer.ok());
  auto sizing_tenant = (*sizer)->OpenTenant({});
  ASSERT_TRUE(sizing_tenant.ok());
  uint64_t max_fp = 0;
  uint64_t sum_fp = 0;
  for (Task t : tasks) {
    CorpusServer::RunRequest req;
    req.task = t;
    auto submitted = Admit(*sizing_tenant, req);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    EXPECT_GT(submitted->admission->footprint_slots, 0u);
    max_fp = std::max(max_fp, submitted->admission->footprint_slots);
    sum_fp += submitted->admission->footprint_slots;
  }

  // A budget below the total cannot hold every run at once: some run must
  // wait for another's release, and the reservation high-water mark proves
  // the budget held at every instant.
  CorpusServer::Options opt = sizing;
  opt.device_slot_budget = max_fp + max_fp / 2;
  ASSERT_LT(opt.device_slot_budget, sum_fp);
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  std::vector<CorpusServer::RunRequest> requests;
  for (Task t : tasks) {
    CorpusServer::RunRequest req;
    req.task = t;
    requests.push_back(req);
  }
  auto served = SubmitAndServe(server->get(), requests);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->size(), tasks.size());

  bool waited = false;
  for (const auto& run : *served) waited |= run.queue_wait_seconds > 0.0;
  EXPECT_TRUE(waited) << "the budget never made a run wait";
  const CorpusServer::Stats& stats = (*server)->stats();
  ASSERT_EQ(stats.devices.size(), 1u);
  EXPECT_GT(stats.devices[0].peak_admitted_slots, 0u);
  EXPECT_LE(stats.devices[0].peak_admitted_slots, opt.device_slot_budget);
  EXPECT_LE(stats.peak_admitted_slots, opt.device_slot_budget);
  EXPECT_EQ(stats.served, tasks.size());
}

TEST(CorpusServerTest, RunLargerThanBudgetIsRejectedAtSubmit) {
  PartitionedCorpus corpus = MakeCorpus(8, 2);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.device_slot_budget = 1;  // nothing real fits
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kWordCount;
  auto submitted = tenant->Submit(req);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_FALSE(submitted->admitted());
  EXPECT_EQ(submitted->rejection->reason,
            CorpusServer::Rejection::Reason::kOverBudget);
  EXPECT_EQ((*server)->stats().rejected, 1u);
  EXPECT_EQ((*server)->queued(), 0u);
}

TEST(CorpusServerTest, ServedFifoAndBitIdenticalToSerialBatchRuns) {
  PartitionedCorpus corpus = MakeCorpus(12, 4);
  const std::vector<Task> tasks = {Task::kWordCount, Task::kInvertedIndex,
                                   Task::kTopKWords, Task::kSequenceCount,
                                   Task::kTermVector};

  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  std::vector<CorpusServer::RunTicket> tickets;
  for (Task t : tasks) {
    CorpusServer::RunRequest req;
    req.task = t;
    auto submitted = Admit(*tenant, req);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    tickets.push_back(*submitted->ticket);
  }
  auto served = ServeAll(server->get(), tickets);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->size(), tasks.size());

  for (size_t i = 0; i < served->size(); ++i) {
    // FIFO: tickets ascend in submission order, and with equal priorities
    // and no deadlines runs start in ticket order.
    EXPECT_EQ((*served)[i].admission.ticket, tickets[i].id());
    if (i > 0) {
      EXPECT_GT(tickets[i].id(), tickets[i - 1].id());
      EXPECT_GE((*served)[i].start_seconds, (*served)[i - 1].start_seconds);
    }

    // Bit-identity: the served output equals a standalone serial
    // BatchEngine run of the same task with the same options.
    BatchEngine::Options bopt;
    bopt.engine = GpuOptions();
    auto batch = BatchEngine::Create(&corpus, bopt);
    ASSERT_TRUE(batch.ok());
    auto serial = (*batch)->Run(tasks[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_TRUE((*served)[i].batch.merged.SameAs(serial->merged))
        << TaskName(tasks[i]);
    ASSERT_EQ((*served)[i].batch.documents.size(),
              serial->documents.size());
    for (size_t d = 0; d < serial->documents.size(); ++d) {
      EXPECT_TRUE((*served)[i].batch.documents[d].result.SameAs(
          serial->documents[d].result))
          << TaskName(tasks[i]) << " doc " << d;
    }

    // Execution consumed the plans admission probed: zero planning.
    EXPECT_EQ((*served)[i].batch.timing.plan_seconds, 0.0)
        << TaskName(tasks[i]);
  }
}

TEST(CorpusServerTest, AdmissionPreSizingLeavesZeroMidRunGrowth) {
  PartitionedCorpus corpus = MakeCorpus(16, 4);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  std::vector<CorpusServer::RunRequest> requests;
  for (Task t : {Task::kWordCount, Task::kInvertedIndex, Task::kTermVector}) {
    CorpusServer::RunRequest req;
    req.task = t;
    requests.push_back(req);
  }
  auto served = SubmitAndServe(server->get(), requests);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ((*server)->stats().mid_run_pool_growths, 0u);
  for (const auto& run : *served) {
    EXPECT_EQ(run.batch.mid_run_pool_growths, 0u);
  }

  // Contrast: the same corpus through a bare BatchEngine (no pre-sizing)
  // grows its context pools while documents are executing.
  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto run = (*batch)->Run(Task::kInvertedIndex);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->mid_run_pool_growths, 0u);
}

// Admission hands its plans to execution: a queued run whose plans later
// probes evicted from the bounded cache still executes the plans it was
// admitted on. Nothing plans, and nothing touches the cache, after Submit.
TEST(CorpusServerTest, QueuedRunKeepsItsPlansPastCacheEviction) {
  PartitionedCorpus corpus = MakeCorpus(16, 8);
  const size_t n = corpus.partitions.size();
  for (uint32_t cpu_lanes : {0u, 2u}) {
    SCOPED_TRACE(cpu_lanes);
    CorpusServer::Options opt;
    opt.engine = GpuOptions();
    opt.scheduler.cpu_lanes = cpu_lanes;
    opt.cpu = gpu::PascalPlatform().cpu;
    auto server = CorpusServer::Create(&corpus, opt);
    ASSERT_TRUE(server.ok());
    auto tenant = (*server)->OpenTenant({});
    ASSERT_TRUE(tenant.ok());
    // With lanes, every run is forced onto them: the CPU probe's plans.
    CorpusServer::RunOptions run_options;
    if (cpu_lanes > 0) run_options.backend = CorpusServer::RunBackend::kCpu;

    CorpusServer::RunRequest word_count;
    word_count.task = Task::kWordCount;
    auto first = tenant->Submit(word_count, run_options);
    ASSERT_TRUE(first.ok() && first->admitted());
    std::vector<CorpusServer::RunTicket> tickets = {*first->ticket};
    // Distinct queries key distinct plans. The word-count plans went in
    // first, so the FIFO bound evicts them once n plans have been dropped.
    PlanCache* cache = (*server)->plan_cache();
    for (uint32_t w = 0; w < 300 && cache->evictions() < n; ++w) {
      CorpusServer::RunRequest keyword;
      keyword.task = Task::kKeywordSearch;
      keyword.query_words = {w};
      auto submitted = tenant->Submit(keyword, run_options);
      ASSERT_TRUE(submitted.ok() && submitted->admitted());
      tickets.push_back(*submitted->ticket);
    }
    ASSERT_GE(cache->evictions(), n) << "the probes never filled the cache";
    ASSERT_GT(cache->misses(), 256u);

    const uint64_t lookups = cache->hits() + cache->misses();
    ASSERT_TRUE((*server)->ServeUntilIdle().ok());
    const CorpusServer::Stats& stats = (*server)->stats();
    EXPECT_EQ(stats.plan_cache.hits + stats.plan_cache.misses, lookups)
        << "execution consulted the plan cache";
    EXPECT_EQ(stats.mid_run_pool_growths, 0u);

    std::vector<CorpusServer::ServedRun> served;
    for (CorpusServer::RunTicket& ticket : tickets) {
      auto run = ticket.Await();
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->batch.timing.plan_seconds, 0.0)
          << "ticket " << ticket.id() << " planned at execution";
      // A planning pass can be free (top-down wordCount charges none), so
      // also check every executed document ran a pre-resolved plan.
      const uint64_t executed =
          run->batch.documents.size() - run->batch.documents_skipped;
      EXPECT_EQ(run->batch.timing.plan_cache_hits, executed)
          << "ticket " << ticket.id() << " resolved plans at execution";
      served.push_back(std::move(*run));
    }

    // The evicted run is bit-identical to a serial BatchEngine run.
    BatchEngine::Options bopt;
    bopt.engine = GpuOptions();
    if (cpu_lanes > 0) {
      bopt.backend = kCpuPlanBackend;
      bopt.cpu = opt.cpu;
    }
    auto batch = BatchEngine::Create(&corpus, bopt);
    ASSERT_TRUE(batch.ok());
    auto serial = (*batch)->Run(Task::kWordCount);
    ASSERT_TRUE(serial.ok());
    EXPECT_TRUE(served[0].batch.merged.SameAs(serial->merged));
    for (size_t d = 0; d < n; ++d) {
      EXPECT_TRUE(served[0].batch.documents[d].result.SameAs(
          serial->documents[d].result))
          << "doc " << d;
    }
  }
}

// --------------------------------------------------------------------------
// Root-Bloom corpus skip.
// --------------------------------------------------------------------------

TEST(CorpusServerTest, BloomSkipIsBitIdenticalWithStrictlyLessWork) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4,
                                     /*num_markers=*/4);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.engine.charge_pcie = true;  // uploads visible, so the skip shows up
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) req.query_sets.push_back({m});
  auto submitted = Admit(*tenant, req);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  // Every marker-free document's root Bloom provably rejects every marker.
  EXPECT_EQ(submitted->admission->documents_skipped, 12u - 4u);
  EXPECT_EQ(submitted->admission->documents_to_execute, 4u);

  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const BatchEngine::BatchRun& skipped = served->batch;
  EXPECT_EQ(skipped.documents_skipped, 8u);
  for (size_t d = 0; d < skipped.documents.size(); ++d) {
    EXPECT_EQ(skipped.documents[d].skipped, d >= 4) << "doc " << d;
  }

  // The unskipped baseline: a serial BatchEngine run with identical
  // options. Results must be bit-identical; work must be strictly less.
  BatchEngine::Options bopt;
  bopt.engine = opt.engine;
  bopt.engine.plan_cache = nullptr;
  bopt.engine.query_sets = req.query_sets;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(skipped.merged.SameAs(full->merged))
      << skipped.merged.Digest() << " vs " << full->merged.Digest();
  for (size_t d = 0; d < full->documents.size(); ++d) {
    EXPECT_TRUE(
        skipped.documents[d].result.SameAs(full->documents[d].result))
        << "doc " << d;
  }
  EXPECT_LT(skipped.timing.traversal_ops, full->timing.traversal_ops);
  EXPECT_LT(skipped.timing.upload_seconds, full->timing.upload_seconds);
  // Only executed documents resolve plans — and all as admission-time hits.
  EXPECT_EQ(skipped.timing.plan_cache_hits, 4u);
  EXPECT_EQ(skipped.timing.plan_seconds, 0.0);
}

TEST(CorpusServerTest, BloomFalsePositiveDocExecutesAndStaysCorrect) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4,
                                     /*num_markers=*/2);
  ASSERT_NE(mc.false_positive, UINT32_MAX)
      << "no Bloom-false-positive candidate found for this seed";

  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());

  // Query the false-positive word: document 4 (the first marker-free doc)
  // passes the Bloom probe without containing the word — a superset, never
  // an error. It must execute, contribute nothing, and the merged result
  // must still equal the unskipped baseline.
  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;
  req.query_words = {mc.false_positive};
  auto served = SubmitAndServe(server->get(), {req});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const BatchEngine::BatchRun& run = (*served)[0].batch;
  EXPECT_FALSE(run.documents[4].skipped)
      << "a Bloom hit must execute, even when it is a false positive";
  EXPECT_TRUE(run.documents[4].result.keyword_search.empty());

  BatchEngine::Options bopt;
  bopt.engine = opt.engine;
  bopt.engine.plan_cache = nullptr;
  bopt.engine.query_words = req.query_words;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(run.merged.SameAs(full->merged));
  // Real hits land only in the marker-carrying documents' files.
  for (const auto& [file, hits] : run.merged.keyword_search) {
    EXPECT_LT(file, mc.corpus.file_base[4]) << "hit in a marker-free doc";
    EXPECT_GT(hits, 0u);
  }
}

TEST(CorpusServerTest, PhraseSkipNeedsEveryWordOfASet) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/10, /*relevant=*/3,
                                     /*num_markers=*/2);
  const TaskKernel& phrase = **TaskRegistry::Get(Task::kPhraseSearch);
  const TaskKernel& keyword = **TaskRegistry::Get(Task::kKeywordSearch);

  // A document carrying marker 0 but not marker 1 can match the keyword
  // query {m0} but never the phrase "m0 m1" — the sequence-shape mask may
  // skip it for the phrase while the weight-shape mask must execute it.
  std::vector<std::vector<uint32_t>> extra_files = {
      {1, 2, 3, mc.markers[0], 5, 6}};
  auto partial = CompressTokenStreams(extra_files, mc.num_words);
  ASSERT_TRUE(partial.ok());
  std::vector<Grammar> docs;
  for (auto& g : mc.corpus.partitions) docs.push_back(std::move(g));
  docs.push_back(std::move(*partial));
  auto corpus = CorpusFromDocuments(std::move(docs));
  ASSERT_TRUE(corpus.ok());
  const size_t partial_doc = corpus->partitions.size() - 1;

  TaskInput input;
  input.query_sets = {{mc.markers[0], mc.markers[1]}};
  input.query_words = {mc.markers[0], mc.markers[1]};

  const std::vector<uint64_t> blooms = DocumentBlooms(*corpus);
  std::vector<uint8_t> phrase_mask = BloomExecuteMask(blooms, phrase, input);
  ASSERT_EQ(phrase_mask.size(), corpus->partitions.size());
  EXPECT_EQ(phrase_mask[partial_doc], 0)
      << "phrase needs every word; a doc missing one is skippable";
  std::vector<uint8_t> keyword_mask = BloomExecuteMask(blooms, keyword, input);
  EXPECT_EQ(keyword_mask[partial_doc], 1)
      << "keyword needs any word; a doc holding one must execute";
  for (uint32_t d = 0; d < 3; ++d) {
    EXPECT_EQ(phrase_mask[d], 1) << "marker doc " << d;
    EXPECT_EQ(keyword_mask[d], 1) << "marker doc " << d;
  }

  // End to end: the phrase run over the extended corpus is bit-identical
  // to the unskipped baseline.
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&*corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kPhraseSearch;
  req.query_sets = input.query_sets;
  auto submitted = Admit(*tenant, req);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_GE(submitted->admission->documents_skipped, 7u);
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  BatchEngine::Options bopt;
  bopt.engine = opt.engine;
  bopt.engine.plan_cache = nullptr;
  bopt.engine.query_sets = req.query_sets;
  auto batch = BatchEngine::Create(&*corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kPhraseSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(served->batch.merged.SameAs(full->merged))
      << served->batch.merged.Digest() << " vs " << full->merged.Digest();
}

TEST(CorpusServerTest, EmptyQuerySkipsEveryDocumentAndStaysCorrect) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/2);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;  // empty query: nothing can match
  auto submitted = Admit(*tenant, req);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(submitted->admission->documents_to_execute, 0u);
  EXPECT_EQ(submitted->admission->footprint_slots, 0u);
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->batch.merged.keyword_search.empty());

  BatchEngine::Options bopt;
  bopt.engine = opt.engine;
  bopt.engine.plan_cache = nullptr;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(served->batch.merged.SameAs(full->merged));
}

TEST(CorpusServerTest, FullyMaskedShardHoldsNoDeviceState) {
  // With two host workers over 8 documents and a query whose markers live
  // only in documents 0-3, the device runs only those 4 routed documents,
  // split into two worker contexts: admission prices exactly the contexts
  // execution creates — ShardSplit(routed, 2) of them, each pre-sized to
  // the one-context footprint — and no masked document is priced or holds
  // a pool. No context grows mid-run.
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/4,
                                     /*num_markers=*/2);
  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) req.query_sets.push_back({m});

  CorpusServer::Options one;
  one.engine = GpuOptions();
  one.host_workers = 1;
  auto server_one = CorpusServer::Create(&mc.corpus, one);
  ASSERT_TRUE(server_one.ok());
  auto tenant_one = (*server_one)->OpenTenant({});
  ASSERT_TRUE(tenant_one.ok());
  auto admitted_one = Admit(*tenant_one, req);
  ASSERT_TRUE(admitted_one.ok()) << admitted_one.status().ToString();

  CorpusServer::Options two = one;
  two.host_workers = 2;
  auto server_two = CorpusServer::Create(&mc.corpus, two);
  ASSERT_TRUE(server_two.ok());
  auto tenant_two = (*server_two)->OpenTenant({});
  ASSERT_TRUE(tenant_two.ok());
  auto admitted_two = Admit(*tenant_two, req);
  ASSERT_TRUE(admitted_two.ok()) << admitted_two.status().ToString();
  const uint32_t routed = admitted_two->admission->documents_to_execute;
  ASSERT_EQ(routed, 4u);
  const uint64_t presize = admitted_one->admission->footprint_slots;
  ASSERT_GT(presize, 0u);
  EXPECT_EQ(admitted_two->admission->footprint_slots,
            BatchEngine::ShardSplit(routed, 2).size() * presize)
      << "contexts are split over the routed documents only";

  auto served = admitted_two->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ((*server_two)->stats().mid_run_pool_growths, 0u);
  EXPECT_EQ((*server_two)->stats().peak_admitted_slots,
            admitted_two->admission->footprint_slots);

  BatchEngine::Options bopt;
  bopt.engine = one.engine;
  bopt.engine.query_sets = req.query_sets;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto full = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(served->batch.merged.SameAs(full->merged));
}

TEST(CorpusServerTest, EmptyRequestFieldsInheritServerDefaults) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/1);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.engine.query_words = {mc.markers[0]};  // the server-wide default query
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  // An empty-query request inherits the default instead of silently
  // running (and Bloom-skipping) an empty accept set.
  CorpusServer::RunRequest inherit;
  inherit.task = Task::kKeywordSearch;
  auto inherited = Admit(*tenant, inherit);
  ASSERT_TRUE(inherited.ok()) << inherited.status().ToString();
  EXPECT_EQ(inherited->admission->documents_to_execute, 2u);

  CorpusServer::RunRequest explicit_req = inherit;
  explicit_req.query_words = {mc.markers[0]};
  auto explicit_admission = Admit(*tenant, explicit_req);
  ASSERT_TRUE(explicit_admission.ok());
  auto served = ServeAll(server->get(),
                         {*inherited->ticket, *explicit_admission->ticket});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->size(), 2u);
  EXPECT_TRUE(
      (*served)[0].batch.merged.SameAs((*served)[1].batch.merged));
  EXPECT_FALSE((*served)[0].batch.merged.keyword_search.empty());
}

TEST(CorpusServerTest, ExplicitQueryWordsReplaceDefaultQuerySets) {
  // A server-wide default query_sets must not shadow a request's explicit
  // query_words (the engines prefer query_sets whenever non-empty): an
  // explicit query replaces the default as a whole.
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/2);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.engine.query_sets = {{mc.markers[0]}, {mc.markers[1]}};
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;
  req.query_words = {mc.markers[1]};
  auto served = SubmitAndServe(server->get(), {req});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  // The run answered the request's single word, not the default sets.
  EXPECT_TRUE((*served)[0].batch.merged.keyword_multi.empty());

  CorpusServer::Options plain;
  plain.engine = GpuOptions();
  auto reference = CorpusServer::Create(&mc.corpus, plain);
  ASSERT_TRUE(reference.ok());
  auto expected = SubmitAndServe(reference->get(), {req});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_TRUE(
      (*served)[0].batch.merged.SameAs((*expected)[0].batch.merged));
  EXPECT_FALSE((*served)[0].batch.merged.keyword_search.empty());
}

TEST(CorpusServerTest, NonSelectiveTasksNeverSkip) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/2);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kWordCount;
  auto submitted = Admit(*tenant, req);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(submitted->admission->documents_skipped, 0u);
  EXPECT_EQ(submitted->admission->documents_to_execute, 6u);
}

// --------------------------------------------------------------------------
// Device residency: a document loads once per device, then stays.
// --------------------------------------------------------------------------

TEST(CorpusServerTest, SecondRunOfATaskFindsEveryDocumentResident) {
  PartitionedCorpus corpus = MakeCorpus(12, 4);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.engine.charge_pcie = true;
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  uint64_t corpus_bytes = 0;
  for (uint32_t d = 0; d < corpus.partitions.size(); ++d) {
    auto index = (*server)->document_index().Get(d);
    ASSERT_TRUE(index.ok());
    corpus_bytes += (*index)->device_grammar.DeviceBytes();
  }

  double uploaded = 0;
  bool first_run = true;
  for (Task task : {Task::kWordCount, Task::kInvertedIndex,
                    Task::kSequenceCount, Task::kTopKWords}) {
    CorpusServer::RunRequest req;
    req.task = task;
    BatchEngine::Options bopt;
    bopt.engine = opt.engine;
    auto batch = BatchEngine::Create(&corpus, bopt);
    ASSERT_TRUE(batch.ok());
    auto standalone = (*batch)->Run(task);
    ASSERT_TRUE(standalone.ok());
    auto truth = UncompressedTruth(corpus, req, opt.engine);
    ASSERT_TRUE(truth.ok());

    std::vector<CorpusServer::ServedRun> runs;
    for (int i = 0; i < 2; ++i) {
      auto submitted = Admit(*tenant, req);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      auto served = submitted->ticket->Await();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      runs.push_back(std::move(*served));
      // Retire the run on the simulated timeline, so the next one starts
      // after its loads have landed.
      ASSERT_TRUE((*server)->ServeUntilIdle().ok());
      // Every executed document is resident now, and stays so.
      const CorpusServer::Stats::DeviceStats& device =
          (*server)->stats().devices[0];
      EXPECT_EQ(device.resident_documents, corpus.partitions.size());
      EXPECT_EQ(device.resident_bytes, corpus_bytes);
      if (first_run) {
        uploaded = device.upload_seconds;
        first_run = false;
      }
      EXPECT_EQ(device.upload_seconds, uploaded) << TaskName(task);
    }
    for (const CorpusServer::ServedRun& run : runs) {
      EXPECT_TRUE(run.batch.merged.SameAs(standalone->merged))
          << TaskName(task);
      EXPECT_TRUE(run.batch.merged.SameAs(*truth)) << TaskName(task);
      for (size_t d = 0; d < corpus.partitions.size(); ++d) {
        EXPECT_TRUE(run.batch.documents[d].result.SameAs(
            standalone->documents[d].result))
            << TaskName(task) << " doc " << d;
      }
    }
    const RunTiming& first = runs[0].batch.timing;
    const RunTiming& second = runs[1].batch.timing;
    if (task == Task::kWordCount) {
      // The server's first run loads every document, exactly as a
      // standalone batch does; its repeat loads none.
      EXPECT_GT(first.upload_seconds, 0.0);
      EXPECT_DOUBLE_EQ(first.upload_seconds, standalone->timing.upload_seconds);
      EXPECT_LT(second.init_ops, first.init_ops);
      EXPECT_LT(second.total_seconds(), first.total_seconds());
    } else {
      EXPECT_EQ(first.upload_seconds, 0.0) << TaskName(task);
      EXPECT_LT(first.init_ops, standalone->timing.init_ops);
    }
    EXPECT_EQ(second.upload_seconds, 0.0) << TaskName(task);
    EXPECT_EQ(second.init_ops, 0u) << TaskName(task);
    // Nothing uploaded: only result downloads hide, each under the next
    // document's compute, so the saving is bounded by them.
    EXPECT_GT(second.download_seconds, 0.0) << TaskName(task);
    EXPECT_GT(second.overlap_saved_seconds, 0.0) << TaskName(task);
    EXPECT_LE(second.overlap_saved_seconds, second.download_seconds)
        << TaskName(task);
  }
  EXPECT_GT(uploaded, 0.0);
  EXPECT_EQ((*server)->stats().mid_run_pool_growths, 0u);
}

TEST(CorpusServerTest, CoResidentRunsCannotUseALoadStillInFlight) {
  PartitionedCorpus corpus = MakeCorpus(12, 4);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.engine.charge_pcie = true;
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kWordCount;

  // Two runs admitted together start together: neither can find the
  // other's uploads landed, so both load every document.
  auto first = Admit(*tenant, req);
  auto second = Admit(*tenant, req);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());
  auto a = first->ticket->Await();
  auto b = second->ticket->Await();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->start_seconds, b->start_seconds);
  EXPECT_GT(a->batch.timing.upload_seconds, 0.0);
  EXPECT_EQ(b->batch.timing.upload_seconds, a->batch.timing.upload_seconds);
  EXPECT_TRUE(b->batch.merged.SameAs(a->batch.merged));
  const CorpusServer::Stats::DeviceStats& device =
      (*server)->stats().devices[0];
  EXPECT_EQ(device.resident_documents, corpus.partitions.size());
  EXPECT_DOUBLE_EQ(device.upload_seconds, 2 * a->batch.timing.upload_seconds);

  // A run admitted after both completed finds every document resident.
  auto third = Admit(*tenant, req);
  ASSERT_TRUE(third.ok());
  auto c = third->ticket->Await();
  ASSERT_TRUE(c.ok());
  EXPECT_GE(c->start_seconds, b->completion_seconds);
  EXPECT_EQ(c->batch.timing.upload_seconds, 0.0);
  EXPECT_TRUE(c->batch.merged.SameAs(a->batch.merged));
}

TEST(CorpusServerTest, CreateRefusesDevicesThatCannotHoldTheirDocuments) {
  PartitionedCorpus corpus = MakeCorpus(12, 4);
  uint64_t corpus_bytes = 0;
  for (const Grammar& doc : corpus.partitions) {
    auto index = DocumentIndex::Build(doc);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(DeviceGrammar::BytesFor(doc),
              (*index)->device_grammar.DeviceBytes());
    corpus_bytes += DeviceGrammar::BytesFor(doc);
  }
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.device_slot_budget = 1000;
  // One device, or two devices that each replicate the whole corpus: every
  // device must hold all documents plus its budget at 8 bytes a slot.
  for (size_t devices : {1, 2}) {
    opt.num_devices = devices;
    opt.replication = devices;
    const uint64_t need = corpus_bytes + opt.device_slot_budget * 8;
    opt.engine.gpu.memory_bytes = need;
    EXPECT_TRUE(CorpusServer::Create(&corpus, opt).ok()) << devices;
    opt.engine.gpu.memory_bytes = need - 1;
    EXPECT_TRUE(
        CorpusServer::Create(&corpus, opt).status().IsResourceExhausted())
        << devices;
  }
  // A budget whose byte count would wrap around 64 bits is refused, not
  // waved through.
  opt.num_devices = 1;
  opt.replication = 1;
  opt.engine.gpu.memory_bytes = corpus_bytes + 1000 * 8;
  for (uint64_t budget : {(UINT64_MAX >> 3) + 1, UINT64_MAX}) {
    opt.device_slot_budget = budget;
    EXPECT_TRUE(
        CorpusServer::Create(&corpus, opt).status().IsResourceExhausted())
        << budget;
  }
  // Zero memory is unchecked.
  opt.device_slot_budget = 1000;
  opt.engine.gpu.memory_bytes = 0;
  EXPECT_TRUE(CorpusServer::Create(&corpus, opt).ok());
}

// --------------------------------------------------------------------------
// Plan-list BatchEngine runs (the server's execution seam).
// --------------------------------------------------------------------------

TEST(BatchMaskTest, MaskSizeMismatchIsInvalidArgument) {
  PartitionedCorpus corpus = MakeCorpus(8, 4);
  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&corpus, bopt);
  ASSERT_TRUE(batch.ok());
  for (size_t size : {0, 2, 5}) {
    auto run = (*batch)->Run(Task::kWordCount, PlanList(size));
    EXPECT_FALSE(run.ok()) << size;
    EXPECT_TRUE(run.status().IsInvalidArgument()) << size;
  }
}

// A BatchEngine executes every document it lists: a caller that skips
// documents lists only the executed ones, so a null plan entry is refused
// on both backends rather than assembled empty.
TEST(BatchMaskTest, NullPlanEntryIsInvalidArgument) {
  PartitionedCorpus corpus = MakeCorpus(8, 4);
  for (PlanBackend backend : {kGpuPlanBackend, kCpuPlanBackend}) {
    BatchEngine::Options bopt;
    bopt.engine = GpuOptions();
    bopt.backend = backend;
    bopt.cpu = gpu::PascalPlatform().cpu;
    auto plans =
        PlanDocuments(corpus, bopt.engine, Task::kWordCount, {}, backend);
    ASSERT_TRUE(plans.ok()) << plans.status().ToString();
    (*plans)[2] = nullptr;
    auto batch = BatchEngine::Create(&corpus, bopt);
    ASSERT_TRUE(batch.ok());
    auto run = (*batch)->Run(Task::kWordCount, *plans);
    EXPECT_TRUE(run.status().IsInvalidArgument())
        << "backend " << static_cast<int>(backend);
  }
}

TEST(BatchMaskTest, ForeignPlansAreInvalidArgument) {
  PartitionedCorpus corpus = MakeCorpus(8, 4);
  const GTadocEngine::Options eopt = GpuOptions();
  auto gpu_plans = PlanDocuments(corpus, eopt, Task::kWordCount);
  ASSERT_TRUE(gpu_plans.ok()) << gpu_plans.status().ToString();
  auto cpu_plans =
      PlanDocuments(corpus, eopt, Task::kWordCount, {}, kCpuPlanBackend);
  ASSERT_TRUE(cpu_plans.ok()) << cpu_plans.status().ToString();
  auto invalid = [](const auto& result) {
    return result.status().IsInvalidArgument();
  };

  // Both engines: another backend's plan, or another grammar's.
  auto gpu_engine = GTadocEngine::Create(&corpus.partitions[0], eopt);
  ASSERT_TRUE(gpu_engine.ok());
  EXPECT_TRUE(invalid((*gpu_engine)->Run(*(*cpu_plans)[0])));
  EXPECT_TRUE(invalid((*gpu_engine)->Run(*(*gpu_plans)[1])));
  CpuTadocOptions copt;
  copt.cpu = gpu::PascalPlatform().cpu;
  auto cpu_engine = CpuTadocEngine::Create(&corpus.partitions[0], copt);
  ASSERT_TRUE(cpu_engine.ok());
  EXPECT_TRUE(invalid(cpu_engine->Run(*(*gpu_plans)[0])));
  EXPECT_TRUE(invalid(cpu_engine->Run(*(*cpu_plans)[1])));

  // The matching plan runs with zero planning and the planning run's
  // result.
  auto handed = (*gpu_engine)->Run(*(*gpu_plans)[0]);
  ASSERT_TRUE(handed.ok()) << handed.status().ToString();
  EXPECT_EQ(handed->timing.plan_seconds, 0.0);
  EXPECT_EQ(handed->timing.plan_cache_hits, 1u);
  auto resolved = (*gpu_engine)->Run(Task::kWordCount);
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(handed->result.SameAs(resolved->result));

  // The batch engine: another backend, another grammar (two documents'
  // plans swapped), another task.
  BatchEngine::Options bopt;
  bopt.engine = eopt;
  auto batch = BatchEngine::Create(&corpus, bopt);
  ASSERT_TRUE(batch.ok());
  PlanList swapped = *gpu_plans;
  std::swap(swapped[0], swapped[1]);
  EXPECT_TRUE(invalid((*batch)->Run(Task::kWordCount, *cpu_plans)));
  EXPECT_TRUE(invalid((*batch)->Run(Task::kWordCount, swapped)));
  EXPECT_TRUE(invalid((*batch)->Run(Task::kSort, *gpu_plans)));
  bopt.backend = kCpuPlanBackend;
  bopt.cpu = gpu::PascalPlatform().cpu;
  auto cpu_batch = BatchEngine::Create(&corpus, bopt);
  ASSERT_TRUE(cpu_batch.ok());
  EXPECT_TRUE(invalid((*cpu_batch)->Run(Task::kWordCount, *gpu_plans)));

  // The right plans: bit-identical to a planning run, zero planning.
  auto run = (*batch)->Run(Task::kWordCount, *gpu_plans);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto planned = (*batch)->Run(Task::kWordCount);
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(run->merged.SameAs(planned->merged));
  EXPECT_EQ(run->timing.plan_seconds, 0.0);
  EXPECT_EQ(run->mid_run_pool_growths, 0u);
}

}  // namespace
}  // namespace gtadoc
