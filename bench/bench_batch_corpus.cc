// Batched multi-document analytics: simulated total time for a 16-document
// corpus served by one BatchEngine (pool/arena reuse + transfer/compute
// pipelining + plan caching) versus 16 independent GTadocEngine lifecycles,
// and versus the coarse-grained parallel CPU baseline on the same
// partitioned corpus.
//
// Expected shape: batch < cold on every task — the reuse path drops the
// per-document allocation calls, and the pipeline hides each document's H2D
// upload and D2H result download under its neighbours' compute on two copy
// engines (transfers are charged here: charge_pcie, the serving regime where
// documents stream to the GPU and results stream back). The hidden% column
// is the transfer time the batch pipeline hid, as a share of the cold total.
// The warm pass (a second Run over the same corpus, the rebind-heavy serving
// hot path) additionally hits the batch's plan cache on every document: it
// must report plan_seconds == 0 — zero region planning, zero relevance/
// bounds/expansion traversals — and never run slower than the planning pass.
// Both properties are hard gates.
//
// SERVER MODE (the second part) drives the same machinery through the
// CorpusServer tenant API and hard-gates its two contracts:
//   1. Concurrent submits under a device slot budget are admitted by the
//      rolling scheduler with every context pool pre-sized from plan
//      metadata — ZERO mid-run pool growth charges (a bare BatchEngine on
//      the same corpus grows its pools while documents execute, printed as
//      the contrast) — the device's reservation peak stays within the
//      budget, and at least one run queued behind it (the budget bound).
//   2. A selective multi-query workload over a 16-document corpus skips at
//      least half the documents by root-Bloom rejection, with the merged
//      result bit-identical to the unskipped run.
//
// SHARDED MODE (the third part) scales the server out: the corpus is
// partitioned across N simulated devices (each with its own slot budget) and
// every admitted run is Bloom-routed only to the shards that can match, then
// gathered through the single-device merge path. Hard gates: >= 1.7x
// simulated throughput at 4 devices on the mixed workload, near-linear
// scaling on the Bloom-partitionable workload, merged AND per-document
// results bit-identical to the 1-device serial server for every shard count
// and replication factor, and no device's budget exceeded at any admission
// event.
//
// On success the whole run is also emitted machine-readably to
// BENCH_batch_corpus.json (per-mode speedups, queue waits, skip counts) so
// CI can archive the numbers next to the human-readable log.

#include <string>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "analytics/server.h"
#include "bench_util.h"
#include "sequitur/compressor.h"
#include "tadoc/parallel_engine.h"

using namespace gtadoc;

namespace {

constexpr uint32_t kDocuments = 16;

/// Minimal JSON number formatting (no dependency): %.6g keeps microsecond
/// resolution on millisecond-scale values without dumping noise digits.
std::string JsonNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string JsonNum(uint64_t v) { return std::to_string(v); }

/// The baseline batching is measured against: one independent
/// GTadocEngine lifecycle per document (own device, pool, grammar arena and
/// plan cache), run back to back with no upload pipelining, plus the corpus
/// merge a batch charges at device reduce throughput. Returns the makespan.
Result<double> ColdLifecyclesSeconds(const PartitionedCorpus& corpus,
                                     const GTadocEngine::Options& opt,
                                     Task task) {
  RunTiming timing;
  timing.documents = 0;
  AnalyticsResult merged;
  merged.task = task;
  uint64_t merge_ops = 0;
  for (size_t d = 0; d < corpus.partitions.size(); ++d) {
    auto engine = GTadocEngine::Create(&corpus.partitions[d], opt);
    if (!engine.ok()) return engine.status();
    auto run = (*engine)->Run(task);
    if (!run.ok()) return run.status();
    timing.Accumulate(run->timing);
    MergeResult(run->result, corpus.file_base[d], &merged, &merge_ops);
  }
  FinalizeMergedResult(&merged, &merge_ops);
  timing.traversal_seconds +=
      static_cast<double>(merge_ops) / opt.gpu.device_ops_per_sec();
  return timing.total_seconds();
}

struct BatchResultRow {
  double cold_total = 0;
  double batch_total = 0;
  double warm_total = 0;
  double warm_plan = 0;
  double cpu_total = 0;
  double overlap_saved = 0;
};

/// The server-mode section: admission packing + Bloom skip, both hard-gated.
/// Returns 0 on success, 1 on a gate failure.
int RunServerMode(const gpu::Platform& platform, double scale,
                  std::string* json) {
  bench::PrintRule('=');
  std::printf(
      "SERVER MODE: CorpusServer admission + root-Bloom skip over %u "
      "documents\n",
      kDocuments);

  // The deterministic corpus-skip fixture (datagen's BuildMarkerCorpus):
  // markers live only in the first half of the documents and every
  // marker-free document's persisted root Bloom provably rejects them —
  // the skip the gate measures is construction, not seed luck.
  MarkerCorpusSpec mspec;
  mspec.num_docs = kDocuments;
  mspec.relevant = kDocuments / 2;
  mspec.num_markers = 8;
  mspec.files_per_doc = 4;
  mspec.tokens_per_doc = 3000;
  mspec.seed = 23;
  mspec.scale = scale;
  auto built = BuildMarkerCorpus(mspec);
  if (!built.ok()) {
    std::fprintf(stderr, "GATE FAILED: marker corpus: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  MarkerCorpus mc = std::move(*built);

  CorpusServer::Options sizing;
  sizing.engine.gpu = platform.gpu;
  sizing.engine.charge_pcie = true;

  // The submitted workload: a packing mix of corpus-wide runs plus one
  // selective multi-query keyword run (8 single-marker query sets answered
  // in one pass).
  std::vector<CorpusServer::RunRequest> requests;
  for (Task t : {Task::kWordCount, Task::kInvertedIndex, Task::kTermVector,
                 Task::kSort, Task::kInvertedIndex, Task::kWordCount}) {
    CorpusServer::RunRequest req;
    req.task = t;
    requests.push_back(req);
  }
  {
    CorpusServer::RunRequest req;
    req.task = Task::kKeywordSearch;
    for (uint32_t m : mc.markers) req.query_sets.push_back({m});
    requests.push_back(req);
  }

  // Sizing pass: an unmetered server reports every run's plan-metadata
  // footprint; the real budget is set to 1.5x the largest so the runs
  // cannot all be resident at once.
  uint64_t max_fp = 0;
  uint64_t sum_fp = 0;
  {
    auto sizer = CorpusServer::Create(&mc.corpus, sizing);
    if (!sizer.ok()) return 1;
    auto tenant = (*sizer)->OpenTenant({});
    if (!tenant.ok()) return 1;
    for (const auto& req : requests) {
      auto submitted = tenant->Submit(req);
      if (!submitted.ok() || !submitted->admitted()) {
        std::fprintf(stderr, "sizing submit: %s\n",
                     submitted.ok() ? submitted->rejection->detail.c_str()
                                    : submitted.status().ToString().c_str());
        return 1;
      }
      max_fp = std::max(max_fp, submitted->admission->footprint_slots);
      sum_fp += submitted->admission->footprint_slots;
    }
  }

  CorpusServer::Options opt = sizing;
  opt.device_slot_budget = max_fp + max_fp / 2;
  auto server = CorpusServer::Create(&mc.corpus, opt);
  if (!server.ok()) return 1;
  auto tenant = (*server)->OpenTenant({});
  if (!tenant.ok()) return 1;
  std::vector<CorpusServer::RunTicket> tickets;
  for (const auto& req : requests) {
    auto submitted = tenant->Submit(req);
    if (!submitted.ok() || !submitted->admitted()) return 1;
    tickets.push_back(*submitted->ticket);
  }
  if (Status st = (*server)->ServeUntilIdle(); !st.ok()) {
    std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<CorpusServer::ServedRun> served;
  for (CorpusServer::RunTicket& ticket : tickets) {
    auto run = ticket.Await();
    if (!run.ok()) return 1;
    served.push_back(std::move(*run));
  }

  bench::PrintRule();
  std::printf("%-8s %-16s %14s %10s %6s %7s %12s\n", "ticket", "task",
              "footprint", "wait (ms)", "exec", "skip", "total (ms)");
  bench::PrintRule();
  uint64_t queued_runs = 0;
  for (const auto& run : served) {
    if (run.queue_wait_seconds > 0.0) ++queued_runs;
    std::printf("%-8llu %-16s %14llu %10.3f %6u %7u %12.3f\n",
                static_cast<unsigned long long>(run.admission.ticket),
                TaskName(run.batch.merged.task),
                static_cast<unsigned long long>(
                    run.admission.footprint_slots),
                run.queue_wait_seconds * 1e3,
                run.admission.documents_to_execute,
                run.admission.documents_skipped,
                run.batch.timing.total_seconds() * 1e3);
  }
  const CorpusServer::Stats& stats = (*server)->stats();
  std::printf(
      "budget %llu slots (sum of footprints %llu): %llu runs queued behind "
      "it, peak admitted %llu slots\n",
      static_cast<unsigned long long>(opt.device_slot_budget),
      static_cast<unsigned long long>(sum_fp),
      static_cast<unsigned long long>(queued_runs),
      static_cast<unsigned long long>(stats.devices[0].peak_admitted_slots));

  // --- Gate 1: admission pre-sizing means zero mid-run pool growth. -------
  if (stats.mid_run_pool_growths != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: %llu mid-run pool growth charges under the "
                 "server (must be 0)\n",
                 static_cast<unsigned long long>(stats.mid_run_pool_growths));
    return 1;
  }
  if (stats.devices[0].peak_admitted_slots > opt.device_slot_budget) {
    std::fprintf(stderr, "GATE FAILED: admitted set exceeded the budget\n");
    return 1;
  }
  if (queued_runs == 0) {
    std::fprintf(stderr,
                 "GATE FAILED: the budget never made a run wait (packing "
                 "untested)\n");
    return 1;
  }
  uint64_t naive_growths = 0;
  {
    BatchEngine::Options bopt;
    bopt.engine = sizing.engine;
    auto batch = BatchEngine::Create(&mc.corpus, bopt);
    if (!batch.ok()) return 1;
    auto run = (*batch)->Run(Task::kInvertedIndex);
    if (!run.ok()) return 1;
    naive_growths = run->mid_run_pool_growths;
  }
  std::printf(
      "mid-run pool growths: server 0 vs bare BatchEngine %llu (pool sized "
      "lazily per document)\n",
      static_cast<unsigned long long>(naive_growths));
  if (naive_growths == 0) {
    std::fprintf(stderr,
                 "GATE FAILED: contrast lost — the lazy pool path charged no "
                 "growth either\n");
    return 1;
  }

  // --- Gate 2: the selective run skipped >= half, bit-identically. --------
  const CorpusServer::ServedRun& selective = served.back();
  if (selective.admission.documents_skipped < kDocuments / 2) {
    std::fprintf(stderr,
                 "GATE FAILED: root Blooms skipped %u of %u documents "
                 "(need >= %u)\n",
                 selective.admission.documents_skipped, kDocuments,
                 kDocuments / 2);
    return 1;
  }
  BatchEngine::Options full_opt;
  full_opt.engine = sizing.engine;
  full_opt.engine.query_sets = requests.back().query_sets;
  auto full_engine = BatchEngine::Create(&mc.corpus, full_opt);
  if (!full_engine.ok()) return 1;
  auto full = (*full_engine)->Run(Task::kKeywordSearch);
  if (!full.ok()) return 1;
  if (!selective.batch.merged.SameAs(full->merged)) {
    std::fprintf(stderr, "GATE FAILED: skipped run diverged: %s vs %s\n",
                 selective.batch.merged.Digest().c_str(),
                 full->merged.Digest().c_str());
    return 1;
  }
  std::printf(
      "bloom skip: %u/%u documents rejected by the root filter, merged "
      "result bit-identical;\n            traversal ops %llu -> %llu "
      "(%.2fx), upload %.3f -> %.3f ms\n",
      selective.admission.documents_skipped, kDocuments,
      static_cast<unsigned long long>(full->timing.traversal_ops),
      static_cast<unsigned long long>(
          selective.batch.timing.traversal_ops),
      static_cast<double>(full->timing.traversal_ops) /
          static_cast<double>(
              std::max<uint64_t>(1, selective.batch.timing.traversal_ops)),
      full->timing.upload_seconds * 1e3,
      selective.batch.timing.upload_seconds * 1e3);
  if (selective.batch.timing.traversal_ops >= full->timing.traversal_ops ||
      selective.batch.timing.upload_seconds >=
          full->timing.upload_seconds) {
    std::fprintf(stderr,
                 "GATE FAILED: the skipped run did not do strictly less "
                 "work\n");
    return 1;
  }
  *json += "  \"server\": {\n";
  *json += "    \"budget_slots\": " + JsonNum(opt.device_slot_budget) + ",\n";
  *json += "    \"sum_footprint_slots\": " + JsonNum(sum_fp) + ",\n";
  *json += "    \"queued_runs\": " + JsonNum(queued_runs) + ",\n";
  *json += "    \"peak_admitted_slots\": " +
           JsonNum(stats.devices[0].peak_admitted_slots) + ",\n";
  *json += "    \"mid_run_pool_growths\": " +
           JsonNum(stats.mid_run_pool_growths) + ",\n";
  *json += "    \"bare_engine_pool_growths\": " + JsonNum(naive_growths) +
           ",\n";
  *json += "    \"documents\": " + JsonNum(uint64_t{kDocuments}) + ",\n";
  *json += "    \"bloom_skipped\": " +
           JsonNum(uint64_t{selective.admission.documents_skipped}) + ",\n";
  *json += "    \"full_traversal_ops\": " +
           JsonNum(full->timing.traversal_ops) + ",\n";
  *json += "    \"skipped_traversal_ops\": " +
           JsonNum(selective.batch.timing.traversal_ops) + "\n";
  *json += "  },\n";
  return 0;
}

/// One served sharded configuration, kept alive so tickets stay readable.
struct ShardedConfig {
  std::unique_ptr<CorpusServer> server;
  std::vector<CorpusServer::RunTicket> tickets;
};

/// Serves `requests` under rolling admission on an N-device server and
/// returns the live server + tickets (results are read through TryGet).
Result<ShardedConfig> ServeSharded(
    const PartitionedCorpus* corpus, CorpusServer::Options opt,
    size_t num_devices, size_t replication,
    const std::vector<CorpusServer::RunRequest>& requests) {
  opt.num_devices = num_devices;
  opt.replication = replication;
  auto server = CorpusServer::Create(corpus, opt);
  if (!server.ok()) return server.status();
  ShardedConfig out;
  out.server = std::move(*server);
  auto tenant = out.server->OpenTenant({});
  if (!tenant.ok()) return tenant.status();
  for (const auto& req : requests) {
    auto submitted = tenant->Submit(req);
    if (!submitted.ok()) return submitted.status();
    if (!submitted->admitted()) {
      return Status::Internal("sharded submit rejected: " +
                              submitted->rejection->detail);
    }
    out.tickets.push_back(*submitted->ticket);
  }
  Status st = out.server->ServeUntilIdle();
  if (!st.ok()) return st;
  return out;
}

/// The sharded-mode section: Bloom-routed scatter/gather across N simulated
/// devices, hard-gated on throughput scaling, bit-identity, and per-device
/// budgets. Returns 0 on success, 1 on a gate failure.
int RunShardedMode(const gpu::Platform& platform, double scale,
                   std::string* json) {
  bench::PrintRule('=');
  std::printf(
      "SHARDED MODE: Bloom-routed scatter/gather across simulated devices "
      "(%u documents)\n",
      kDocuments);

  MarkerCorpusSpec mspec;
  mspec.num_docs = kDocuments;
  mspec.relevant = kDocuments / 2;
  mspec.num_markers = 8;
  mspec.files_per_doc = 4;
  mspec.tokens_per_doc = 3000;
  mspec.seed = 23;
  mspec.scale = scale;
  auto built = BuildMarkerCorpus(mspec);
  if (!built.ok()) return 1;
  MarkerCorpus mc = std::move(*built);

  CorpusServer::Options base;
  base.engine.gpu = platform.gpu;
  base.engine.charge_pcie = true;

  // Two workloads. MIXED is the serving blend: corpus-wide runs (every
  // shard executes) around selective keyword runs. PARTITIONABLE is all
  // selective runs — root Blooms confine each to the marker-carrying half,
  // whose documents round-robin evenly across shards, so traversal itself
  // splits N ways.
  CorpusServer::RunRequest selective;
  selective.task = Task::kKeywordSearch;
  for (uint32_t m : mc.markers) selective.query_sets.push_back({m});
  std::vector<CorpusServer::RunRequest> mixed;
  for (Task t : {Task::kWordCount, Task::kInvertedIndex, Task::kTermVector,
                 Task::kInvertedIndex, Task::kWordCount}) {
    CorpusServer::RunRequest req;
    req.task = t;
    mixed.push_back(req);
    mixed.push_back(selective);
  }
  const std::vector<CorpusServer::RunRequest> partitionable(6, selective);

  // Sizing pass: the budget is 1.5x the largest single-device footprint, so
  // on ONE device the corpus-wide runs serialize; each extra device brings
  // its own budget (scale-out adds capacity, the multi-GPU premise).
  uint64_t max_fp = 0;
  {
    auto sizer = CorpusServer::Create(&mc.corpus, base);
    if (!sizer.ok()) return 1;
    auto tenant = (*sizer)->OpenTenant({});
    if (!tenant.ok()) return 1;
    for (const auto& req : mixed) {
      auto submitted = tenant->Submit(req);
      if (!submitted.ok() || !submitted->admitted()) return 1;
      max_fp = std::max(max_fp, submitted->admission->footprint_slots);
    }
  }
  CorpusServer::Options opt = base;
  opt.device_slot_budget = max_fp + max_fp / 2;

  struct Row {
    const char* workload;
    size_t devices;
    size_t replication;
    double makespan = 0;
    double queue_wait = 0;
    uint64_t max_peak = 0;
    double speedup = 0;
  };
  std::vector<Row> rows;
  double mixed_speedup_4 = 0;
  double partitionable_speedup_4 = 0;

  struct Sweep {
    const char* name;
    const std::vector<CorpusServer::RunRequest>* requests;
    std::vector<std::pair<size_t, size_t>> shapes;  // {devices, replication}
  };
  const Sweep sweeps[] = {
      {"mixed", &mixed, {{2, 1}, {4, 1}, {4, 2}}},
      {"partitionable", &partitionable, {{4, 1}}},
  };

  bench::PrintRule();
  std::printf("%-14s %8s %6s %14s %16s %12s %9s\n", "workload", "devices",
              "repl", "makespan (ms)", "queue wait (ms)", "peak/budget",
              "speedup");
  bench::PrintRule();

  for (const Sweep& sweep : sweeps) {
    // The 1-device serial reference for this workload: throughput baseline
    // AND bit-identity oracle.
    Result<ShardedConfig> baseline =
        ServeSharded(&mc.corpus, opt, 1, 1, *sweep.requests);
    if (!baseline.ok()) {
      std::fprintf(stderr, "GATE FAILED: %s baseline: %s\n", sweep.name,
                   baseline.status().ToString().c_str());
      return 1;
    }
    const double serial_makespan = baseline->server->stats().makespan_seconds;

    // The row-level checks shared by the baseline and every sharded shape:
    // per-device budget invariant, bit-identity against the baseline, the
    // printed table row, and the JSON row.
    auto check_and_report = [&](const ShardedConfig& cfg, size_t devices,
                                size_t replication) -> bool {
      const CorpusServer::Stats& stats = cfg.server->stats();
      Row row;
      row.workload = sweep.name;
      row.devices = devices;
      row.replication = replication;
      row.makespan = stats.makespan_seconds;
      row.queue_wait = stats.queue_wait_seconds /
                       static_cast<double>(sweep.requests->size());
      for (const auto& device : stats.devices) {
        row.max_peak = std::max(row.max_peak, device.peak_admitted_slots);
        // --- Gate: no device's budget exceeded at any admission event. ----
        if (device.peak_admitted_slots > opt.device_slot_budget) {
          std::fprintf(stderr,
                       "GATE FAILED: %s x%zu: a device peaked at %llu slots "
                       "over budget %llu\n",
                       sweep.name, devices,
                       static_cast<unsigned long long>(
                           device.peak_admitted_slots),
                       static_cast<unsigned long long>(
                           opt.device_slot_budget));
          return false;
        }
      }
      row.speedup = serial_makespan / row.makespan;

      // --- Gate: merged AND per-document results bit-identical to the
      // 1-device serial server for every shard count / replication. --------
      for (size_t i = 0; i < cfg.tickets.size(); ++i) {
        const CorpusServer::ServedRun* run = cfg.tickets[i].TryGet();
        const CorpusServer::ServedRun* ref = baseline->tickets[i].TryGet();
        if (run == nullptr || ref == nullptr) {
          std::fprintf(stderr, "GATE FAILED: %s x%zu: ticket %zu unserved\n",
                       sweep.name, devices, i);
          return false;
        }
        if (!run->batch.merged.SameAs(ref->batch.merged)) {
          std::fprintf(stderr,
                       "GATE FAILED: %s x%zu: merged diverged on ticket %zu: "
                       "%s vs %s\n",
                       sweep.name, devices, i,
                       run->batch.merged.Digest().c_str(),
                       ref->batch.merged.Digest().c_str());
          return false;
        }
        for (size_t d = 0; d < run->batch.documents.size(); ++d) {
          if (!run->batch.documents[d].result.SameAs(
                  ref->batch.documents[d].result) ||
              run->batch.documents[d].skipped !=
                  ref->batch.documents[d].skipped) {
            std::fprintf(stderr,
                         "GATE FAILED: %s x%zu: document %zu diverged on "
                         "ticket %zu\n",
                         sweep.name, devices, d, i);
            return false;
          }
        }
      }

      std::printf("%-14s %8zu %6zu %14.3f %16.3f %5llu/%-6llu %8.2fx\n",
                  row.workload, row.devices, row.replication,
                  row.makespan * 1e3, row.queue_wait * 1e3,
                  static_cast<unsigned long long>(row.max_peak),
                  static_cast<unsigned long long>(opt.device_slot_budget),
                  row.speedup);
      if (sweep.requests == &mixed && devices == 4 && replication == 1) {
        mixed_speedup_4 = row.speedup;
      }
      if (sweep.requests == &partitionable && devices == 4) {
        partitionable_speedup_4 = row.speedup;
      }
      rows.push_back(row);
      return true;
    };

    if (!check_and_report(*baseline, 1, 1)) return 1;
    for (const auto& [devices, replication] : sweep.shapes) {
      Result<ShardedConfig> config = ServeSharded(&mc.corpus, opt, devices,
                                                  replication,
                                                  *sweep.requests);
      if (!config.ok()) {
        std::fprintf(stderr, "GATE FAILED: %s x%zu: %s\n", sweep.name,
                     devices, config.status().ToString().c_str());
        return 1;
      }
      if (!check_and_report(*config, devices, replication)) return 1;
    }
  }

  std::printf(
      "scatter/gather: runs execute only on Bloom-matched shards, merge once "
      "in corpus order;\n                every shard count and replication "
      "factor above reproduced the serial results bit for bit\n");

  // --- Gate: >= 1.7x simulated throughput at 4 devices on the mix. --------
  if (mixed_speedup_4 < 1.7) {
    std::fprintf(stderr,
                 "GATE FAILED: mixed workload at 4 devices delivered %.2fx "
                 "(need >= 1.7x)\n",
                 mixed_speedup_4);
    return 1;
  }
  // --- Gate: near-linear scaling on the Bloom-partitionable workload. -----
  if (partitionable_speedup_4 < 2.8) {
    std::fprintf(stderr,
                 "GATE FAILED: partitionable workload at 4 devices delivered "
                 "%.2fx (need >= 2.8x of linear 4x)\n",
                 partitionable_speedup_4);
    return 1;
  }

  *json += "  \"sharded\": {\n";
  *json += "    \"device_slot_budget\": " + JsonNum(opt.device_slot_budget) +
           ",\n";
  *json += "    \"mixed_speedup_4dev\": " + JsonNum(mixed_speedup_4) + ",\n";
  *json += "    \"partitionable_speedup_4dev\": " +
           JsonNum(partitionable_speedup_4) + ",\n";
  *json += "    \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    *json += "      {\"workload\": \"" + std::string(row.workload) +
             "\", \"devices\": " + JsonNum(uint64_t{row.devices}) +
             ", \"replication\": " + JsonNum(uint64_t{row.replication}) +
             ", \"makespan_ms\": " + JsonNum(row.makespan * 1e3) +
             ", \"mean_queue_wait_ms\": " + JsonNum(row.queue_wait * 1e3) +
             ", \"max_device_peak_slots\": " + JsonNum(row.max_peak) +
             ", \"speedup_vs_serial\": " + JsonNum(row.speedup) + "}";
    *json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  *json += "    ]\n";
  *json += "  }\n";
  return 0;
}

}  // namespace

int main() {
  const double scale = bench::BenchScale();
  const gpu::Platform platform = gpu::VoltaPlatform();
  std::printf(
      "BATCH CORPUS: %u documents on %s (scale=%.2f, charge_pcie on)\n",
      kDocuments, platform.gpu.name.c_str(), scale);

  // A many-file corpus split into 16 documents sharing one dictionary.
  DatasetSpec spec = DatasetA();
  spec.num_files = 64;
  spec.total_tokens = 800000;
  Corpus corpus = GenerateCorpus(spec, scale);
  auto part = PartitionAndCompress(corpus, kDocuments);
  if (!part.ok()) {
    std::fprintf(stderr, "partition: %s\n", part.status().ToString().c_str());
    return 1;
  }

  BatchEngine::Options batch_opt;
  batch_opt.engine.gpu = platform.gpu;
  batch_opt.engine.charge_pcie = true;

  CpuTadocOptions cpu_opt;
  cpu_opt.cpu = platform.cpu;
  auto cpu_engine = ParallelTadocEngine::Create(&*part, cpu_opt);
  if (!cpu_engine.ok()) return 1;

  bench::PrintRule();
  std::printf("%-20s %12s %11s %11s %11s %9s %9s %8s\n", "Task",
              "16 cold (ms)", "batch (ms)", "warm (ms)", "CPU (ms)",
              "cold/warm", "cpu/warm", "hidden%");
  bench::PrintRule();

  std::string task_json;
  std::vector<double> batch_speedups, warm_speedups, cpu_speedups;
  for (Task task : AllTasks()) {
    BatchResultRow row;
    {
      auto cold = ColdLifecyclesSeconds(*part, batch_opt.engine, task);
      if (!cold.ok()) {
        std::fprintf(stderr, "cold %s: %s\n", TaskName(task),
                     cold.status().ToString().c_str());
        return 1;
      }
      row.cold_total = *cold;
    }
    AnalyticsResult merged;
    {
      auto engine = BatchEngine::Create(&*part, batch_opt);
      if (!engine.ok()) return 1;
      auto run = (*engine)->Run(task);
      if (!run.ok()) return 1;
      row.batch_total = run->timing.total_seconds();
      row.overlap_saved = run->timing.overlap_saved_seconds;
      merged = run->merged;

      // Warm pass: same engine, same corpus — every document's plan must be
      // a cache hit (the serving hot path pays zero planning).
      auto warm = (*engine)->Run(task);
      if (!warm.ok()) return 1;
      row.warm_total = warm->timing.total_seconds();
      row.warm_plan = warm->timing.plan_seconds;
      if (warm->timing.plan_cache_hits != warm->documents.size()) {
        std::fprintf(stderr,
                     "GATE FAILED %s: warm pass hit %llu plans, expected "
                     "%zu\n",
                     TaskName(task),
                     static_cast<unsigned long long>(
                         warm->timing.plan_cache_hits),
                     warm->documents.size());
        return 1;
      }
      if (row.warm_plan != 0.0) {
        std::fprintf(stderr,
                     "GATE FAILED %s: warm pass charged %.6f ms of planning "
                     "(must be 0)\n",
                     TaskName(task), row.warm_plan * 1e3);
        return 1;
      }
      if (row.warm_total > row.batch_total + 1e-12) {
        std::fprintf(stderr,
                     "GATE FAILED %s: warm %.3f ms slower than the planning "
                     "pass %.3f ms\n",
                     TaskName(task), row.warm_total * 1e3,
                     row.batch_total * 1e3);
        return 1;
      }
      if (!warm->merged.SameAs(merged)) {
        std::fprintf(stderr, "MISMATCH on warm %s\n", TaskName(task));
        return 1;
      }
    }
    {
      auto run = cpu_engine->Run(task);
      if (!run.ok()) return 1;
      row.cpu_total = run->timing.total_seconds();
      if (!merged.SameAs(run->result)) {
        std::fprintf(stderr, "MISMATCH on %s: %s vs %s\n", TaskName(task),
                     merged.Digest().c_str(), run->result.Digest().c_str());
        return 1;
      }
    }

    const double vs_cold = row.cold_total / row.batch_total;
    const double warm_vs_cold = row.cold_total / row.warm_total;
    const double vs_cpu = row.cpu_total / row.warm_total;
    batch_speedups.push_back(vs_cold);
    warm_speedups.push_back(warm_vs_cold);
    cpu_speedups.push_back(vs_cpu);
    std::printf("%-20s %12.3f %11.3f %11.3f %11.3f %8.2fx %8.2fx %7.1f%%\n",
                TaskName(task), row.cold_total * 1e3, row.batch_total * 1e3,
                row.warm_total * 1e3, row.cpu_total * 1e3, warm_vs_cold,
                vs_cpu, 100.0 * row.overlap_saved / row.cold_total);
    if (!task_json.empty()) task_json += ",\n";
    task_json += "      {\"task\": \"" + std::string(TaskName(task)) +
                 "\", \"cold_ms\": " + JsonNum(row.cold_total * 1e3) +
                 ", \"batch_ms\": " + JsonNum(row.batch_total * 1e3) +
                 ", \"warm_ms\": " + JsonNum(row.warm_total * 1e3) +
                 ", \"cpu_ms\": " + JsonNum(row.cpu_total * 1e3) +
                 ", \"cold_over_warm\": " + JsonNum(warm_vs_cold) +
                 ", \"cpu_over_warm\": " + JsonNum(vs_cpu) + "}";
  }

  bench::PrintRule('=');
  const double batch_geo = bench::GeoMean(batch_speedups);
  const double warm_geo = bench::GeoMean(warm_speedups);
  std::printf(
      "Batch vs 16 cold runs geomean: %.2fx   Warm (plan-cached) vs 16 cold "
      "geomean: %.2fx\n",
      batch_geo, warm_geo);
  std::printf("Warm batch vs parallel CPU geomean: %.2fx\n",
              bench::GeoMean(cpu_speedups));
  std::printf(
      "Savings: (1) one pool/arena per context instead of per-document "
      "allocation calls,\n         (2) document i+1's H2D upload and document "
      "i's D2H download hidden\n             under compute on two copy engines,"
      "\n         (3) warm runs execute cached plans: "
      "no relevance/bounds/expansion\n             traversals and no region "
      "planning (plan_seconds == 0).\n");
  if (warm_geo < batch_geo) {
    std::fprintf(stderr,
                 "GATE FAILED: warm geomean %.2fx below planning-pass geomean "
                 "%.2fx\n",
                 warm_geo, batch_geo);
    return 1;
  }

  std::string json = "{\n";
  json += "  \"bench\": \"batch_corpus\",\n";
  json += "  \"gpu\": \"" + platform.gpu.name + "\",\n";
  json += "  \"scale\": " + JsonNum(scale) + ",\n";
  json += "  \"documents\": " + JsonNum(uint64_t{kDocuments}) + ",\n";
  json += "  \"batch\": {\n";
  json += "    \"batch_vs_cold_geomean\": " + JsonNum(batch_geo) + ",\n";
  json += "    \"warm_vs_cold_geomean\": " + JsonNum(warm_geo) + ",\n";
  json += "    \"warm_vs_cpu_geomean\": " +
          JsonNum(bench::GeoMean(cpu_speedups)) + ",\n";
  json += "    \"tasks\": [\n" + task_json + "\n    ]\n";
  json += "  },\n";

  if (int rc = RunServerMode(platform, scale, &json); rc != 0) return rc;
  if (int rc = RunShardedMode(platform, scale, &json); rc != 0) return rc;
  json += "}\n";

  const char* json_path = "BENCH_batch_corpus.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "GATE FAILED: could not write %s\n", json_path);
    return 1;
  }
  return 0;
}
