#include "analytics/sharding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "analytics/server.h"
#include "analytics/task_kernel.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "serve_util.h"
#include "sequitur/compressor.h"

namespace gtadoc {
namespace {

GTadocEngine::Options GpuOptions() {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;  // deterministic per-document runs
  return opt;
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

CorpusServer::Options ServerOptions(size_t num_devices, size_t replication,
                                    uint64_t budget = 0) {
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.device_slot_budget = budget;
  opt.num_devices = num_devices;
  opt.replication = replication;
  return opt;
}

/// The mixed workload every identity test serves: a marker-selective
/// multi-query run, two non-selective corpus runs, and a Bloom
/// false-positive probe (when the fixture found one).
std::vector<CorpusServer::RunRequest> MixedRequests(const MarkerCorpus& mc) {
  std::vector<CorpusServer::RunRequest> requests;
  CorpusServer::RunRequest keyword;
  keyword.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) keyword.query_sets.push_back({m});
  requests.push_back(keyword);

  CorpusServer::RunRequest word_count;
  word_count.task = Task::kWordCount;
  requests.push_back(word_count);

  CorpusServer::RunRequest index;
  index.task = Task::kInvertedIndex;
  requests.push_back(index);

  if (mc.false_positive != UINT32_MAX) {
    CorpusServer::RunRequest probe;
    probe.task = Task::kKeywordSearch;
    probe.query_words.push_back(mc.false_positive);
    requests.push_back(probe);
  }
  return requests;
}

// --------------------------------------------------------------------------
// ShardedCorpus topology and routing.
// --------------------------------------------------------------------------

TEST(ShardedCorpusTest, RoundRobinPlacementWithReplication) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/7, /*relevant=*/2,
                                     /*num_markers=*/1);
  ShardedCorpus::Options opt;
  opt.num_devices = 3;
  opt.replication = 2;
  auto sharded = ShardedCorpus::Create(&mc.corpus, opt);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  EXPECT_EQ((*sharded)->num_devices(), 3u);
  EXPECT_EQ((*sharded)->replication(), 2u);
  size_t placements = 0;
  for (uint32_t g = 0; g < 7; ++g) {
    const std::vector<uint32_t>& homes = (*sharded)->replicas(g);
    ASSERT_EQ(homes.size(), 2u) << "doc " << g;
    EXPECT_EQ(homes[0], g % 3) << "doc " << g;           // primary
    EXPECT_EQ(homes[1], (g + 1) % 3) << "doc " << g;     // next replica
  }
  for (size_t d = 0; d < 3; ++d) {
    const std::vector<uint32_t>& docs = (*sharded)->device_docs(d);
    placements += docs.size();
    // A device holds exactly the documents that list it as a replica, as
    // ascending global ids.
    EXPECT_TRUE(std::is_sorted(docs.begin(), docs.end())) << "device " << d;
    for (uint32_t g = 0; g < 7; ++g) {
      const std::vector<uint32_t>& homes = (*sharded)->replicas(g);
      const bool listed =
          std::find(homes.begin(), homes.end(), d) != homes.end();
      const bool held = std::find(docs.begin(), docs.end(), g) != docs.end();
      EXPECT_EQ(listed, held) << "device " << d << " doc " << g;
    }
  }
  EXPECT_EQ(placements, 7u * 2u);
  // Every device runs its documents out of the one global corpus.
  EXPECT_EQ((*sharded)->global_corpus(), &mc.corpus);
}

TEST(ShardedCorpusTest, OneDeviceTopologyAliasesTheCorpus) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/5, /*relevant=*/2,
                                     /*num_markers=*/1);
  // One device is the ordinary serving case: it holds the whole corpus in
  // order and runs it out of the corpus itself — no grammar copies.
  ShardedCorpus::Options opt;
  opt.num_devices = 1;
  opt.replication = 3;  // clamps to 1
  auto sharded = ShardedCorpus::Create(&mc.corpus, opt);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ((*sharded)->global_corpus(), &mc.corpus);
  EXPECT_EQ((*sharded)->replication(), 1u);
  ASSERT_EQ((*sharded)->device_docs(0).size(), 5u);
  for (uint32_t g = 0; g < 5; ++g) {
    EXPECT_EQ((*sharded)->device_docs(0)[g], g);
  }

  // The server serves its single device out of the caller's corpus, and
  // reports the topology's clamped values (0 devices count as 1).
  CorpusServer::Options server_opt = ServerOptions(0, 3);
  auto server = CorpusServer::Create(&mc.corpus, server_opt);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->sharded_corpus()->global_corpus(), &mc.corpus);
  EXPECT_EQ((*server)->num_devices(), 1u);
  EXPECT_EQ((*server)->options().num_devices, 1u);
  EXPECT_EQ((*server)->options().replication, 1u);

  // Two devices split the documents round-robin over the same corpus.
  opt.num_devices = 2;
  auto split = ShardedCorpus::Create(&mc.corpus, opt);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ((*split)->global_corpus(), &mc.corpus);
  EXPECT_EQ((*split)->replication(), 2u);
  EXPECT_EQ((*split)->device_docs(0).size(), 5u);
}

TEST(ShardedCorpusTest, RouteKeepsPrimaryOnTiesAndFollowsLoad) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/4, /*relevant=*/1,
                                     /*num_markers=*/1);
  ShardedCorpus::Options opt;
  opt.num_devices = 2;
  opt.replication = 2;
  auto sharded = ShardedCorpus::Create(&mc.corpus, opt);
  ASSERT_TRUE(sharded.ok());

  // Idle group, unit weights: pure round-robin (ties keep the primary).
  using Ids = std::vector<uint32_t>;
  ShardedCorpus::RoutePlan balanced = (*sharded)->Route({}, {}, {});
  ASSERT_EQ(balanced.device_docs.size(), 2u);
  EXPECT_EQ(balanced.device_docs[0], (Ids{0, 2}));
  EXPECT_EQ(balanced.device_docs[1], (Ids{1, 3}));

  // A heavily loaded device 0 pushes every replicated document to 1.
  ShardedCorpus::RoutePlan drained = (*sharded)->Route({}, {}, {100.0, 0.0});
  EXPECT_TRUE(drained.device_docs[0].empty());
  EXPECT_EQ(drained.device_docs[1], (Ids{0, 1, 2, 3}));

  // Masked documents route nowhere.
  ShardedCorpus::RoutePlan masked =
      (*sharded)->Route({1, 0, 0, 0}, {}, {});
  EXPECT_EQ(masked.device_docs[0], (Ids{0}));
  EXPECT_TRUE(masked.device_docs[1].empty());
}

// --------------------------------------------------------------------------
// Bit-identity: merged AND per-document results match a serial single-device
// BatchEngine run under every shard count and replication factor.
// --------------------------------------------------------------------------

TEST(ShardedServerTest, BitIdenticalToSingleDeviceAcrossShardsAndReplication) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4,
                                     /*num_markers=*/2);
  const std::vector<CorpusServer::RunRequest> requests = MixedRequests(mc);

  // The reference: each request as one serial BatchEngine run over the
  // documents the server's root-Bloom execute mask keeps, gathered.
  std::vector<BatchEngine::BatchRun> baseline;
  uint64_t expected_skipped = 0;
  uint64_t expected_executed = 0;
  for (const auto& request : requests) {
    GTadocEngine::Options engine = GpuOptions();
    static_cast<QuerySpec&>(engine) = ResolveQueryDefaults(request, engine);
    const TaskKernel& kernel = **TaskRegistry::Get(request.task);
    const std::vector<uint8_t> mask =
        BloomExecuteMask(DocumentBlooms(mc.corpus), kernel,
                         GTadocEngine::InputFromOptions(engine));
    auto run = SerialGatheredRun(mc.corpus, engine, request.task, mask);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    expected_skipped += run->documents_skipped;
    expected_executed += run->documents.size() - run->documents_skipped;
    baseline.push_back(std::move(*run));
  }

  for (size_t num_devices : {1, 2, 3, 4}) {
    for (size_t replication : {1, 2}) {
      SCOPED_TRACE("devices=" + std::to_string(num_devices) +
                   " replication=" + std::to_string(replication));
      auto server = CorpusServer::Create(
          &mc.corpus, ServerOptions(num_devices, replication));
      ASSERT_TRUE(server.ok());
      auto served = SubmitAndServe(server->get(), requests);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_EQ(served->size(), baseline.size());

      for (size_t r = 0; r < served->size(); ++r) {
        const BatchEngine::BatchRun& sharded = (*served)[r].batch;
        const BatchEngine::BatchRun& reference = baseline[r];
        EXPECT_TRUE(sharded.merged.SameAs(reference.merged))
            << "run " << r << ": " << sharded.merged.Digest() << " vs "
            << reference.merged.Digest();
        ASSERT_EQ(sharded.documents.size(), reference.documents.size());
        for (size_t d = 0; d < sharded.documents.size(); ++d) {
          EXPECT_TRUE(
              sharded.documents[d].result.SameAs(reference.documents[d].result))
              << "run " << r << " doc " << d;
          EXPECT_EQ(sharded.documents[d].skipped,
                    reference.documents[d].skipped)
              << "run " << r << " doc " << d;
          EXPECT_EQ(sharded.documents[d].file_base,
                    reference.documents[d].file_base);
        }
        EXPECT_EQ(sharded.documents_skipped, reference.documents_skipped);
        EXPECT_EQ(sharded.mid_run_pool_growths, 0u);
      }
      // Aggregate document accounting matches the reference too.
      EXPECT_EQ((*server)->stats().documents_executed, expected_executed);
      EXPECT_EQ((*server)->stats().documents_skipped, expected_skipped);
    }
  }
}

// --------------------------------------------------------------------------
// Bloom-driven routing: rejected shards receive no work at all.
// --------------------------------------------------------------------------

TEST(ShardedServerTest, BloomRejectedShardReceivesNoWork) {
  // Markers live only in documents 0 and 1; with 4 devices and round-robin
  // placement those are devices 0 and 1. Devices 2 and 3 hold only
  // documents whose root Blooms provably reject the query.
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/2,
                                     /*num_markers=*/2);
  auto server = CorpusServer::Create(&mc.corpus, ServerOptions(4, 1));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  CorpusServer::RunRequest request;
  request.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) request.query_sets.push_back({m});
  auto submitted = Admit(*tenant, request);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(submitted->admission->documents_to_execute, 2u);
  EXPECT_EQ(submitted->admission->documents_skipped, 6u);

  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  const CorpusServer::Stats& stats = (*server)->stats();
  ASSERT_EQ(stats.devices.size(), 4u);
  for (size_t d : {0, 1}) {
    EXPECT_EQ(stats.devices[d].runs_routed, 1u) << "device " << d;
    EXPECT_EQ(stats.devices[d].documents_executed, 1u) << "device " << d;
    EXPECT_GT(stats.devices[d].traversal_ops, 0u) << "device " << d;
  }
  // The witness: un-routed devices did NO work — no run, no upload, no
  // plan, no traversal, and never a slot reserved.
  for (size_t d : {2, 3}) {
    EXPECT_EQ(stats.devices[d].runs_routed, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].documents_executed, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].init_ops, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].traversal_ops, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].upload_seconds, 0.0) << "device " << d;
    EXPECT_EQ(stats.devices[d].peak_admitted_slots, 0u) << "device " << d;
    EXPECT_EQ(stats.devices[d].slot_seconds_held, 0.0) << "device " << d;
  }
  // Only routed devices ran, and only their shard durations are non-zero.
  const CorpusServer::ServedRun& run = *served;
  ASSERT_EQ(run.device_durations.size(), 4u);
  EXPECT_GT(run.device_durations[0], 0.0);
  EXPECT_GT(run.device_durations[1], 0.0);
  EXPECT_EQ(run.device_durations[2], 0.0);
  EXPECT_EQ(run.device_durations[3], 0.0);
  EXPECT_GT(run.gather_seconds, 0.0);
  const double longest =
      std::max(run.device_durations[0], run.device_durations[1]);
  EXPECT_DOUBLE_EQ(run.completion_seconds,
                   run.start_seconds + longest + run.gather_seconds);
}

TEST(ShardedServerTest, BloomFalsePositiveShardExecutesAndStaysCorrect) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4,
                                     /*num_markers=*/2);
  ASSERT_NE(mc.false_positive, UINT32_MAX)
      << "no Bloom-false-positive candidate found for this seed";

  CorpusServer::RunRequest probe;
  probe.task = Task::kKeywordSearch;
  probe.query_words.push_back(mc.false_positive);

  // The fixture only guarantees that document `relevant` (= 4) FALSELY
  // passes the probe word's Bloom test; other marker-free documents may
  // pass or reject depending on the seed. Derive the ground-truth execute
  // set the same way the server does, so the per-device assertions below
  // are exact rather than seed-lucky.
  GTadocEngine::Options query = GpuOptions();
  query.query_words = probe.query_words;
  const TaskKernel& kernel = **TaskRegistry::Get(Task::kKeywordSearch);
  std::vector<uint8_t> mask =
      BloomExecuteMask(DocumentBlooms(mc.corpus), kernel,
                       GTadocEngine::InputFromOptions(query));
  if (mask.empty()) mask.assign(mc.corpus.partitions.size(), 1);
  ASSERT_EQ(mask[4], 1u) << "the false-positive document must pass";

  // The unskipped serial reference.
  BatchEngine::Options bopt;
  bopt.engine = query;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto baseline = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(baseline.ok());

  auto server = CorpusServer::Create(&mc.corpus, ServerOptions(3, 1));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  auto submitted = Admit(*tenant, probe);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  uint32_t expected_execute = 0;
  for (uint8_t e : mask) expected_execute += e;
  EXPECT_EQ(submitted->admission->documents_to_execute, expected_execute);
  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // The false-positive document executed on its round-robin device (doc 4
  // -> device 1 over 3 devices), contributed NOTHING — it passed the Bloom
  // without containing the word — and every result still matches the
  // unsharded serial run bit for bit.
  const CorpusServer::Stats& stats = (*server)->stats();
  ASSERT_EQ(stats.devices.size(), 3u);
  std::vector<uint64_t> expected_per_device(3, 0);
  for (uint32_t g = 0; g < 12; ++g) {
    if (mask[g] != 0) ++expected_per_device[g % 3];
  }
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(stats.devices[d].documents_executed, expected_per_device[d])
        << "device " << d;
  }
  EXPECT_GE(stats.devices[4 % 3].documents_executed, 1u);
  const BatchEngine::BatchRun& run = served->batch;
  EXPECT_FALSE(run.documents[4].skipped);
  EXPECT_TRUE(run.documents[4].result.keyword_search.empty());
  EXPECT_TRUE(run.merged.SameAs(baseline->merged));
  for (size_t d = 0; d < 12; ++d) {
    EXPECT_TRUE(run.documents[d].result.SameAs(baseline->documents[d].result))
        << "doc " << d;
  }
}

// --------------------------------------------------------------------------
// Per-device budgets, rolling release, and cross-shard quotas.
// --------------------------------------------------------------------------

TEST(ShardedServerTest, PerDeviceBudgetNeverExceededUnderRollingAdmission) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/8,
                                     /*num_markers=*/2);
  CorpusServer::RunRequest request;
  request.task = Task::kInvertedIndex;

  // Sizing pass: one run on an unmetered sharded server exposes the
  // per-device footprint through each device's reservation peak.
  auto sizing = CorpusServer::Create(&mc.corpus, ServerOptions(2, 1));
  ASSERT_TRUE(sizing.ok());
  ASSERT_TRUE(SubmitAndServe(sizing->get(), {request}).ok());
  uint64_t max_device_footprint = 0;
  for (const auto& device : (*sizing)->stats().devices) {
    max_device_footprint =
        std::max(max_device_footprint, device.peak_admitted_slots);
  }
  ASSERT_GT(max_device_footprint, 0u);

  // A budget of 1.5x one run's per-device share admits at most one run per
  // device at a time: three identical runs must serialize, and no device's
  // peak may ever exceed its budget.
  const uint64_t budget = max_device_footprint * 3 / 2;
  auto server =
      CorpusServer::Create(&mc.corpus, ServerOptions(2, 1, budget));
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  for (int i = 0; i < 3; ++i) {
    auto submitted = Admit(*tenant, request);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  }
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());

  const CorpusServer::Stats& stats = (*server)->stats();
  ASSERT_EQ(stats.devices.size(), 2u);
  for (const auto& device : stats.devices) {
    EXPECT_LE(device.peak_admitted_slots, budget);
    EXPECT_GT(device.peak_admitted_slots, 0u);
  }
  // Serialized: the later runs waited on the simulated timeline.
  EXPECT_GT(stats.queue_wait_seconds, 0.0);
  EXPECT_EQ(stats.served, 3u);
  // Per-device slot-second slices add up to the tenant aggregate.
  const CorpusServer::TenantStats& tstats = stats.tenants.at(tenant->id());
  ASSERT_EQ(tstats.slot_seconds_per_device.size(), 2u);
  EXPECT_NEAR(
      tstats.slot_seconds_per_device[0] + tstats.slot_seconds_per_device[1],
      tstats.slot_seconds_held, 1e-9);
}

TEST(ShardedServerTest, TenantQuotaSpansShards) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/8,
                                     /*num_markers=*/2);
  CorpusServer::RunRequest request;
  request.task = Task::kInvertedIndex;

  auto sizing = CorpusServer::Create(&mc.corpus, ServerOptions(4, 1));
  ASSERT_TRUE(sizing.ok());
  auto sizing_tenant = (*sizing)->OpenTenant({});
  ASSERT_TRUE(sizing_tenant.ok());
  auto sized = Admit(*sizing_tenant, request);
  ASSERT_TRUE(sized.ok()) << sized.status().ToString();
  const uint64_t total_footprint = sized->admission->footprint_slots;
  ASSERT_GT(total_footprint, 0u);

  // Generous per-device budget; the tenant's quota is one slot short of
  // the run's TOTAL footprint, so the cross-shard sum — not any single
  // device's share — is what rejects it.
  auto server = CorpusServer::Create(
      &mc.corpus, ServerOptions(4, 1, total_footprint));
  ASSERT_TRUE(server.ok());
  CorpusServer::TenantOptions topt;
  topt.name = "quota-bound";
  topt.slot_quota = total_footprint - 1;
  auto tenant = (*server)->OpenTenant(topt);
  ASSERT_TRUE(tenant.ok());

  auto submitted = tenant->Submit(request);
  ASSERT_TRUE(submitted.ok());
  ASSERT_FALSE(submitted->admitted());
  EXPECT_EQ(submitted->rejection->reason,
            CorpusServer::Rejection::Reason::kOverQuota);
  EXPECT_EQ(submitted->rejection->requested_slots, total_footprint);

  // At exactly the total footprint the same run admits and serves.
  CorpusServer::TenantOptions fits;
  fits.name = "quota-fits";
  fits.slot_quota = total_footprint;
  auto tenant2 = (*server)->OpenTenant(fits);
  ASSERT_TRUE(tenant2.ok());
  auto admitted = tenant2->Submit(request);
  ASSERT_TRUE(admitted.ok());
  ASSERT_TRUE(admitted->admitted());
  auto run = admitted->ticket->Await();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // OpenTenant bounds quotas by the GROUP capacity (4 devices x budget).
  CorpusServer::TenantOptions too_big;
  too_big.slot_quota = total_footprint * 4 + 1;
  EXPECT_FALSE((*server)->OpenTenant(too_big).ok());
  CorpusServer::TenantOptions group_wide;
  group_wide.slot_quota = total_footprint * 4;
  EXPECT_TRUE((*server)->OpenTenant(group_wide).ok());
}

// A run over both its device budget and its tenant's quota is refused for
// the budget, with that device's share and the budget as its numbers: the
// ledger checks every device before the quota.
TEST(ShardedServerTest, OverBudgetIsReportedBeforeOverQuota) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/8,
                                     /*num_markers=*/2);
  CorpusServer::RunRequest request;
  request.task = Task::kInvertedIndex;

  // Sizing pass, as above: the run's largest per-device share and its total.
  auto sizing = CorpusServer::Create(&mc.corpus, ServerOptions(4, 1));
  ASSERT_TRUE(sizing.ok());
  ASSERT_TRUE(SubmitAndServe(sizing->get(), {request}).ok());
  uint64_t share = 0;
  for (const auto& device : (*sizing)->stats().devices) {
    share = std::max(share, device.peak_admitted_slots);
  }
  ASSERT_GT(share, 1u);
  ASSERT_GT((*sizing)->stats().peak_admitted_slots, share)
      << "the run must scatter, so its share differs from its total";

  auto server =
      CorpusServer::Create(&mc.corpus, ServerOptions(4, 1, share - 1));
  ASSERT_TRUE(server.ok());
  CorpusServer::TenantOptions topt;
  topt.slot_quota = 1;
  auto tenant = (*server)->OpenTenant(topt);
  ASSERT_TRUE(tenant.ok());
  auto submitted = tenant->Submit(request);
  ASSERT_TRUE(submitted.ok());
  ASSERT_FALSE(submitted->admitted());
  EXPECT_EQ(submitted->rejection->reason,
            CorpusServer::Rejection::Reason::kOverBudget);
  EXPECT_EQ(submitted->rejection->requested_slots, share);
  EXPECT_EQ(submitted->rejection->limit_slots, share - 1);
}

// The group's summed budget bounds quotas without wrapping: four devices of
// 2^62 slots sum past 2^64 - 1, so they bound no quota.
TEST(ShardedServerTest, QuotaBoundSumsTheBudgetWithoutOverflow) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/8,
                                     /*num_markers=*/2);
  CorpusServer::Options opt = ServerOptions(4, 1, 1ull << 62);
  opt.engine.gpu.memory_bytes = 0;  // unbounded memory takes any budget
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  CorpusServer::TenantOptions topt;
  topt.slot_quota = 100;
  auto tenant = (*server)->OpenTenant(topt);
  EXPECT_TRUE(tenant.ok()) << tenant.status().ToString();
  topt.slot_quota = std::numeric_limits<uint64_t>::max();
  EXPECT_TRUE((*server)->OpenTenant(topt).ok());

  // Four devices of 2^61 slots sum to exactly 2^63: a quota above it is
  // still refused.
  opt.device_slot_budget = 1ull << 61;
  auto bounded = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(bounded.ok());
  topt.slot_quota = 1ull << 63;
  EXPECT_TRUE((*bounded)->OpenTenant(topt).ok());
  topt.slot_quota = (1ull << 63) + 1;
  EXPECT_FALSE((*bounded)->OpenTenant(topt).ok());
}

// --------------------------------------------------------------------------
// Residency: each device loads a document once; replicas load their own copy.
// --------------------------------------------------------------------------

TEST(DeviceGroupTest, ReplicaPaysItsFirstLoadOnceOnItsOwnDevice) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/4, /*relevant=*/1,
                                     /*num_markers=*/1);
  ShardedCorpus::Options sopt;
  sopt.num_devices = 2;
  sopt.replication = 2;
  auto sharded = ShardedCorpus::Create(&mc.corpus, sopt);
  ASSERT_TRUE(sharded.ok());
  CorpusIndex index(&mc.corpus.partitions);
  DeviceGroup group(sharded->get(), &index);

  GTadocEngine::Options engine = GpuOptions();
  engine.charge_pcie = true;
  auto plans = PlanDocuments(mc.corpus, engine, Task::kWordCount, {},
                             kGpuPlanBackend, &index);
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  BatchEngine::Options bopt;
  bopt.engine = engine;
  auto batch = BatchEngine::Create(&mc.corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto standalone = (*batch)->Run(Task::kWordCount);
  ASSERT_TRUE(standalone.ok());
  CorpusServer::RunRequest request;
  request.task = Task::kWordCount;
  auto truth = UncompressedTruth(mc.corpus, request, engine);
  ASSERT_TRUE(truth.ok());
  uint64_t corpus_bytes = 0;
  for (uint32_t g = 0; g < 4; ++g) {
    corpus_bytes += (*index.Get(g))->device_grammar.DeviceBytes();
  }

  // Every document replicates to both devices; the load pushes the whole
  // run to one of them: 0, 0 again, then 1, then 1 again.
  const std::vector<std::vector<double>> loads = {
      {0.0, 1e9}, {0.0, 1e9}, {1e9, 0.0}, {1e9, 0.0}};
  std::vector<double> uploads;
  for (size_t r = 0; r < loads.size(); ++r) {
    const size_t target = r < 2 ? 0 : 1;
    ShardedCorpus::RoutePlan route = (*sharded)->Route({}, *plans, loads[r]);
    ASSERT_EQ(route.device_docs[target].size(), 4u) << "run " << r;
    DeviceGroup::RunSpec spec;
    spec.task = Task::kWordCount;
    spec.engine = engine;
    spec.route = &route;
    spec.plans = *plans;
    // A simulated second apart: every earlier run's loads have landed.
    spec.start_time = static_cast<double>(r);
    auto run = group.Execute(spec);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->batch.merged.SameAs(standalone->merged)) << "run " << r;
    EXPECT_TRUE(run->batch.merged.SameAs(*truth)) << "run " << r;
    uploads.push_back(run->batch.timing.upload_seconds);
    const DeviceGroup::DeviceCounters& c = group.counters()[target];
    EXPECT_EQ(c.resident_documents, 4u) << "run " << r;
    EXPECT_EQ(c.resident_bytes, corpus_bytes) << "run " << r;
  }
  // Each device's first run pays every upload once — the standalone
  // batch's upload — and its repeat pays none.
  EXPECT_GT(uploads[0], 0.0);
  EXPECT_DOUBLE_EQ(uploads[0], standalone->timing.upload_seconds);
  EXPECT_EQ(uploads[1], 0.0);
  EXPECT_DOUBLE_EQ(uploads[2], uploads[0]);
  EXPECT_EQ(uploads[3], 0.0);
  EXPECT_DOUBLE_EQ(group.counters()[0].upload_seconds, uploads[0]);
  EXPECT_DOUBLE_EQ(group.counters()[1].upload_seconds, uploads[2]);
}

// Each device runs exactly the documents a route sends it: replicas the
// route did not choose and Bloom-skipped documents never reach an engine,
// and the gather assembles each skipped document once.
TEST(DeviceGroupTest, DevicesRunOnlyTheirRoutedDocuments) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/3,
                                     /*num_markers=*/2);
  const size_t n = mc.corpus.partitions.size();
  ShardedCorpus::Options sopt;
  sopt.num_devices = 4;
  sopt.replication = 2;
  auto sharded = ShardedCorpus::Create(&mc.corpus, sopt);
  ASSERT_TRUE(sharded.ok());
  CorpusIndex index(&mc.corpus.partitions);
  DeviceGroup group(sharded->get(), &index);

  CorpusServer::RunRequest keyword;
  keyword.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) keyword.query_sets.push_back({m});
  CorpusServer::RunRequest corpus_wide;
  corpus_wide.task = Task::kInvertedIndex;
  uint64_t expected_skipped = 0;
  for (const CorpusServer::RunRequest& request : {keyword, corpus_wide}) {
    SCOPED_TRACE(TaskName(request.task));
    GTadocEngine::Options engine = GpuOptions();
    static_cast<QuerySpec&>(engine) = ResolveQueryDefaults(request, engine);
    const TaskKernel& kernel = **TaskRegistry::Get(request.task);
    const std::vector<uint8_t> mask =
        BloomExecuteMask(DocumentBlooms(mc.corpus), kernel,
                         GTadocEngine::InputFromOptions(engine));
    auto plans = PlanDocuments(mc.corpus, engine, request.task, mask,
                               kGpuPlanBackend, &index);
    ASSERT_TRUE(plans.ok()) << plans.status().ToString();
    // Load on device 0 steers its documents onto their second replica.
    const ShardedCorpus::RoutePlan route =
        (*sharded)->Route(mask, *plans, {1e9, 0, 0, 0});

    DeviceGroup::RunSpec spec;
    spec.task = request.task;
    spec.engine = engine;
    spec.route = &route;
    spec.plans = *plans;
    const std::vector<DeviceGroup::DeviceCounters> before = group.counters();
    auto result = group.Execute(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    std::vector<uint32_t> routed;
    for (size_t d = 0; d < 4; ++d) {
      const std::vector<uint32_t>& docs = route.device_docs[d];
      routed.insert(routed.end(), docs.begin(), docs.end());
      EXPECT_EQ(group.counters()[d].documents_executed -
                    before[d].documents_executed,
                docs.size())
          << "device " << d;
    }
    uint32_t executes = 0;
    for (uint8_t e : mask) executes += e;
    EXPECT_EQ(routed.size(), executes);

    const BatchEngine::BatchRun& batch = result->batch;
    EXPECT_EQ(batch.documents_skipped, n - executes);
    EXPECT_EQ(batch.timing.documents, n);
    ASSERT_EQ(batch.documents.size(), n);
    std::vector<uint32_t> executed;
    for (uint32_t g = 0; g < n; ++g) {
      EXPECT_EQ(batch.documents[g].doc, g);
      EXPECT_EQ(batch.documents[g].skipped, mask[g] == 0) << "doc " << g;
      if (!batch.documents[g].skipped) executed.push_back(g);
    }
    // The gathered batch lists each document once, so every routed document
    // ran exactly once, on one device, and nothing else ran.
    std::sort(routed.begin(), routed.end());
    EXPECT_EQ(routed, executed);
    expected_skipped += n - executes;

    // Bit-identical to the uncompressed truth and to a serial BatchEngine
    // run over every document.
    auto truth = UncompressedTruth(mc.corpus, request, GpuOptions());
    ASSERT_TRUE(truth.ok());
    EXPECT_TRUE(batch.merged.SameAs(*truth));
    BatchEngine::Options bopt;
    bopt.engine = engine;
    auto serial_engine = BatchEngine::Create(&mc.corpus, bopt);
    ASSERT_TRUE(serial_engine.ok());
    auto serial = (*serial_engine)->Run(request.task);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_TRUE(batch.merged.SameAs(serial->merged));
    for (uint32_t g = 0; g < n; ++g) {
      EXPECT_TRUE(batch.documents[g].result.SameAs(serial->documents[g].result))
          << "doc " << g;
    }
  }
  EXPECT_GT(expected_skipped, 0u);

  // The server counts each skipped document once, from the gathered batch,
  // however many replicas hold it.
  auto server = CorpusServer::Create(&mc.corpus, ServerOptions(4, 2));
  ASSERT_TRUE(server.ok());
  auto served = SubmitAndServe(server->get(), {keyword, corpus_wide});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ((*server)->stats().documents_skipped, expected_skipped);
  EXPECT_EQ((*server)->stats().documents_executed, 2 * n - expected_skipped);
}

TEST(DeviceGroupTest, DocumentIsResidentOnlyOnceItsLoadHasLanded) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/4, /*relevant=*/1,
                                     /*num_markers=*/1);
  auto sharded = ShardedCorpus::Create(&mc.corpus, {});
  ASSERT_TRUE(sharded.ok());
  CorpusIndex index(&mc.corpus.partitions);
  DeviceGroup group(sharded->get(), &index);
  GTadocEngine::Options engine = GpuOptions();
  engine.charge_pcie = true;
  auto plans = PlanDocuments(mc.corpus, engine, Task::kWordCount, {},
                             kGpuPlanBackend, &index);
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  ShardedCorpus::RoutePlan route = (*sharded)->Route({}, *plans, {});
  auto execute = [&](double start_time) {
    DeviceGroup::RunSpec spec;
    spec.task = Task::kWordCount;
    spec.engine = engine;
    spec.route = &route;
    spec.plans = *plans;
    spec.start_time = start_time;
    return group.Execute(spec);
  };

  // Two cold runs overlapping on the one device: the second starts before
  // any of the first's uploads has landed, so it loads every document too.
  auto first = execute(0.0);
  auto second = execute(0.0);
  ASSERT_TRUE(first.ok() && second.ok());
  const double upload = first->batch.timing.upload_seconds;
  EXPECT_GT(upload, 0.0);
  EXPECT_EQ(second->batch.timing.upload_seconds, upload);
  EXPECT_TRUE(second->batch.merged.SameAs(first->batch.merged));
  EXPECT_EQ(group.counters()[0].resident_documents, 4u);
  EXPECT_DOUBLE_EQ(group.counters()[0].upload_seconds, 2 * upload);

  // Just before the first run's shard ends, its last document has not
  // landed yet but its first has: a partial reload.
  const double landed = first->device_durations[0];
  auto partial = execute(0.999 * landed);
  ASSERT_TRUE(partial.ok());
  EXPECT_GT(partial->batch.timing.upload_seconds, 0.0);
  EXPECT_LT(partial->batch.timing.upload_seconds, upload);
  // From the shard's end on, every document is resident.
  auto warm = execute(landed);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->batch.timing.upload_seconds, 0.0);
  EXPECT_EQ(warm->batch.timing.init_ops, 0u);
  EXPECT_TRUE(warm->batch.merged.SameAs(first->batch.merged));
  EXPECT_EQ(group.counters()[0].resident_documents, 4u);
}

TEST(ShardedServerTest, DeviceUploadsGrowOnlyWithResidentDocuments) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/12, /*relevant=*/4,
                                     /*num_markers=*/2);
  CorpusServer::Options opt = ServerOptions(4, 2);
  opt.engine.charge_pcie = true;
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  std::vector<CorpusServer::RunRequest> requests;
  for (int round = 0; round < 4; ++round) {
    for (const CorpusServer::RunRequest& request : MixedRequests(mc)) {
      requests.push_back(request);
    }
  }
  std::vector<CorpusServer::Stats::DeviceStats> before(4);
  for (const CorpusServer::RunRequest& request : requests) {
    auto submitted = Admit(*tenant, request);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    auto served = submitted->ticket->Await();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    // Retire the run on the simulated timeline, so the next one starts
    // after its loads have landed.
    ASSERT_TRUE((*server)->ServeUntilIdle().ok());
    auto truth = UncompressedTruth(mc.corpus, request, opt.engine);
    ASSERT_TRUE(truth.ok());
    EXPECT_TRUE(served->batch.merged.SameAs(*truth));

    const std::vector<CorpusServer::Stats::DeviceStats>& now =
        (*server)->stats().devices;
    uint64_t newly_resident = 0;
    for (size_t d = 0; d < now.size(); ++d) {
      // A device uploads exactly when it takes on new documents.
      const bool loaded =
          now[d].resident_documents > before[d].resident_documents;
      EXPECT_EQ(now[d].upload_seconds > before[d].upload_seconds, loaded)
          << "device " << d;
      EXPECT_EQ(now[d].resident_bytes > before[d].resident_bytes, loaded)
          << "device " << d;
      newly_resident +=
          now[d].resident_documents - before[d].resident_documents;
    }
    EXPECT_EQ(served->batch.timing.upload_seconds > 0.0, newly_resident > 0);
    if (newly_resident == 0) {
      EXPECT_EQ(served->batch.timing.upload_seconds, 0.0);
    }
    before = now;
  }
  // No document is resident on a device that does not replicate it.
  for (size_t d = 0; d < before.size(); ++d) {
    EXPECT_LE(before[d].resident_documents,
              (*server)->sharded_corpus()->device_docs(d).size());
  }
  EXPECT_EQ((*server)->stats().mid_run_pool_growths, 0u);
}

TEST(ShardedServerTest, SingleDeviceStatsMirrorAggregates) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/1);
  auto server = CorpusServer::Create(&mc.corpus, ServerOptions(1, 1));
  ASSERT_TRUE(server.ok());
  CorpusServer::RunRequest request;
  request.task = Task::kWordCount;
  ASSERT_TRUE(SubmitAndServe(server->get(), {request}).ok());

  const CorpusServer::Stats& stats = (*server)->stats();
  ASSERT_EQ(stats.devices.size(), 1u);
  EXPECT_EQ(stats.devices[0].runs_routed, 1u);
  EXPECT_EQ(stats.devices[0].documents_executed, stats.documents_executed);
  EXPECT_EQ(stats.devices[0].peak_admitted_slots, stats.peak_admitted_slots);
  EXPECT_GT(stats.devices[0].busy_seconds, 0.0);
  EXPECT_GT(stats.makespan_seconds, 0.0);
}

}  // namespace
}  // namespace gtadoc
