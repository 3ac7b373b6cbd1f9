#include "analytics/sharding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/timer.h"

namespace gtadoc {

Result<std::unique_ptr<ShardedCorpus>> ShardedCorpus::Create(
    const PartitionedCorpus* corpus, const Options& options) {
  if (corpus == nullptr || corpus->partitions.empty()) {
    return Status::InvalidArgument(
        "sharded corpus needs at least one document");
  }
  if (corpus->file_base.size() != corpus->partitions.size()) {
    return Status::InvalidArgument("corpus file_base/partitions mismatch");
  }
  const size_t num_devices = std::max<size_t>(1, options.num_devices);
  const size_t replication =
      std::min(num_devices, std::max<size_t>(1, options.replication));

  std::unique_ptr<ShardedCorpus> sharded(new ShardedCorpus());
  sharded->corpus_ = corpus;
  sharded->replication_ = replication;
  sharded->device_docs_.resize(num_devices);
  sharded->doc_replicas_.resize(corpus->partitions.size());
  for (uint32_t g = 0; g < corpus->partitions.size(); ++g) {
    const size_t primary = g % num_devices;
    for (size_t r = 0; r < replication; ++r) {
      const size_t d = (primary + r) % num_devices;
      sharded->device_docs_[d].push_back(g);
      sharded->doc_replicas_[g].push_back(static_cast<uint32_t>(d));
    }
  }
  return sharded;
}

ShardedCorpus::RoutePlan ShardedCorpus::Route(
    const std::vector<uint8_t>& execute_mask, const PlanList& plans,
    const std::vector<double>& device_load) const {
  const size_t n = corpus_->partitions.size();
  RoutePlan plan;
  plan.device_docs.resize(num_devices());

  std::vector<double> load(num_devices(), 0.0);
  for (size_t d = 0; d < num_devices() && d < device_load.size(); ++d) {
    load[d] = device_load[d];
  }

  for (uint32_t g = 0; g < n; ++g) {
    if (!execute_mask.empty() && execute_mask[g] == 0) continue;
    // Least-loaded replica; a strict < keeps the primary on ties, so with
    // no load signal this is pure round-robin.
    const std::vector<uint32_t>& homes = doc_replicas_[g];
    uint32_t best = homes[0];
    for (uint32_t d : homes) {
      if (load[d] < load[best]) best = d;
    }
    const uint64_t slots =
        g < plans.size() && plans[g] != nullptr ? plans[g]->total_slots : 0;
    load[best] += slots > 0 ? static_cast<double>(slots) : 1.0;
    plan.device_docs[best].push_back(g);
  }
  return plan;
}

DeviceGroup::DeviceGroup(const ShardedCorpus* corpus, const CorpusIndex* index)
    : corpus_(corpus),
      index_(index),
      counters_(corpus->num_devices()),
      resident_since_(corpus->num_devices()) {
  for (std::vector<double>& since : resident_since_) {
    since.assign(corpus->global_corpus()->partitions.size(),
                 std::numeric_limits<double>::infinity());
  }
}

Result<DeviceGroup::RunResult> DeviceGroup::Execute(const RunSpec& spec) {
  Timer wall;
  const PartitionedCorpus* global = corpus_->global_corpus();
  const size_t n = global->partitions.size();
  const size_t num_devices = corpus_->num_devices();
  if (spec.route == nullptr || spec.route->device_docs.size() != num_devices ||
      spec.plans.size() != n) {
    return Status::InvalidArgument(
        "needs a route over the group's devices and one plan per document");
  }
  const ShardedCorpus::RoutePlan& route = *spec.route;
  // Slice the plans along the route before any device executes: device d
  // gets the plan of each document routed there, and a routed document
  // without a plan fails the whole run with no device touched.
  std::vector<PlanList> device_plans(num_devices);
  for (size_t d = 0; d < num_devices; ++d) {
    for (uint32_t g : route.device_docs[d]) {
      if (g >= n || spec.plans[g] == nullptr) {
        return Status::InvalidArgument("routed document " + std::to_string(g) +
                                       " has no plan");
      }
      device_plans[d].push_back(spec.plans[g]);
    }
  }

  RunResult out;
  out.device_durations.assign(num_devices, 0.0);
  BatchEngine::BatchRun& batch = out.batch;
  batch.timing.documents = 0;  // empty accumulator over the device shards
  double serial = 0.0;
  double longest = 0.0;

  // Scatter: one shard-local batch per device the route sends work to,
  // over exactly its routed documents. Devices routed nothing are never
  // touched — no engine, no device state. Host execution is serial over
  // devices (deterministic stats); on the SIMULATED timeline the shards
  // overlap, being separate GPUs.
  for (size_t d = 0; d < num_devices; ++d) {
    const std::vector<uint32_t>& docs = route.device_docs[d];
    if (docs.empty()) continue;
    BatchEngine::Options bopt;
    bopt.engine = spec.engine;
    bopt.host_workers = spec.host_workers;
    // The gather below performs the one corpus-order merge; shard-local
    // merges would charge duplicate reduce work the real run never does.
    bopt.merge_results = false;
    bopt.on_document_complete = spec.on_document_executed;
    // A document is resident for this run only if a load of it finished
    // on this device by the run's start.
    std::vector<uint8_t> resident(docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      resident[i] = resident_since_[d][docs[i]] <= spec.start_time ? 1 : 0;
    }
    auto engine = BatchEngine::Create(global, bopt, index_, &docs, &resident);
    if (!engine.ok()) return engine.status();
    auto run = (*engine)->Run(spec.task, device_plans[d]);
    if (!run.ok()) return run.status();

    const double duration = run->timing.total_seconds();
    out.device_durations[d] = duration;
    DeviceCounters& counters = counters_[d];
    ++counters.runs_routed;
    counters.documents_executed += docs.size();
    counters.init_ops += run->timing.init_ops;
    counters.traversal_ops += run->timing.traversal_ops;
    counters.upload_seconds += run->timing.upload_seconds;
    counters.busy_seconds += duration;
    counters.mid_run_pool_growths += run->mid_run_pool_growths;
    batch.mid_run_pool_growths += run->mid_run_pool_growths;
    // Every document this run loaded here is resident once the run has
    // finished it: by its place in the serial document order, which never
    // lands earlier than the pipelined schedule finishes the document,
    // capped at the shard's end.
    double executed_by = 0.0;
    for (size_t i = 0; i < docs.size(); ++i) {
      executed_by += run->documents[i].timing.serial_seconds();
      if (resident[i] != 0) continue;
      double& since = resident_since_[d][docs[i]];
      if (std::isinf(since)) {
        auto index = index_->Get(docs[i]);
        if (!index.ok()) return index.status();
        ++counters.resident_documents;
        counters.resident_bytes += (*index)->device_grammar.DeviceBytes();
      }
      since = std::min(since, spec.start_time + std::min(executed_by, duration));
    }

    // Device pipelines overlap on the simulated timeline: cross-device
    // parallelism goes into overlap_saved_seconds below.
    batch.timing.Accumulate(run->timing);
    serial += duration;
    longest = std::max(longest, duration);
    for (BatchEngine::DocumentRun& doc : run->documents) {
      batch.documents.push_back(std::move(doc));
    }
  }
  batch.timing.overlap_saved_seconds += serial - longest;

  // Gather: the executed runs already carry global ids and file bases; the
  // shared gather assembles the skipped documents and performs the one
  // corpus-order merge, charged at device reduce throughput as the serial
  // tail — total_seconds() is the sharded makespan.
  auto gather = BatchEngine::Gather(spec.task, spec.engine, *global,
                                    spec.engine.gpu.device_ops_per_sec(),
                                    &batch);
  if (!gather.ok()) return gather.status();
  out.gather_seconds = *gather;
  batch.timing.wall_seconds = wall.ElapsedSeconds();
  return out;
}

}  // namespace gtadoc
