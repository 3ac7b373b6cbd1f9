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

ShardedCorpus::RoutePlan ShardedCorpus::RouteToLane(
    const std::vector<uint8_t>& execute_mask) {
  RoutePlan plan;
  plan.lane_docs.emplace();
  for (uint32_t g = 0; g < execute_mask.size(); ++g) {
    if (execute_mask[g] != 0) plan.lane_docs->push_back(g);
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
  // A route names every device of the group and no lane, or one lane and
  // no device.
  const bool on_lane = spec.route != nullptr && spec.route->lane_docs;
  if (spec.route == nullptr || spec.plans.size() != n ||
      spec.route->device_docs.size() != (on_lane ? 0 : num_devices)) {
    return Status::InvalidArgument(
        "needs a route over every device of the group or one lane, and one "
        "plan per document");
  }
  const ShardedCorpus::RoutePlan& route = *spec.route;
  // A routed document without a plan fails the whole run before anything
  // executes.
  auto check_plans = [&](const std::vector<uint32_t>& docs) {
    for (uint32_t g : docs) {
      if (g >= n || spec.plans[g] == nullptr) {
        return Status::InvalidArgument("routed document " + std::to_string(g) +
                                       " has no plan");
      }
    }
    return Status::OK();
  };
  for (const std::vector<uint32_t>& docs : route.device_docs) {
    GTADOC_RETURN_IF_ERROR(check_plans(docs));
  }
  if (on_lane) GTADOC_RETURN_IF_ERROR(check_plans(*route.lane_docs));

  RunResult out;
  out.device_durations.assign(route.device_docs.size(), 0.0);
  BatchEngine::BatchRun& batch = out.batch;
  batch.timing.documents = 0;  // empty accumulator over the shards
  double serial = 0.0;
  double longest = 0.0;
  // One shard-local batch over a resource's routed documents, folded into
  // the run. The gather below performs the one corpus-order merge;
  // shard-local merges would charge duplicate reduce work the real run
  // never does.
  auto run_shard =
      [&](const std::vector<uint32_t>& docs, BatchEngine::Options bopt,
          const std::vector<uint8_t>* resident) -> Result<BatchEngine::BatchRun> {
    bopt.engine = spec.engine;
    bopt.host_workers = spec.host_workers;
    bopt.merge_results = false;
    bopt.on_document_complete = spec.on_document_executed;
    PlanList plans;
    for (uint32_t g : docs) plans.push_back(spec.plans[g]);
    auto engine = BatchEngine::Create(global, bopt, index_, &docs, resident);
    if (!engine.ok()) return engine.status();
    auto run = (*engine)->Run(spec.task, plans);
    if (!run.ok()) return run.status();
    batch.timing.Accumulate(run->timing);
    batch.mid_run_pool_growths += run->mid_run_pool_growths;
    serial += run->timing.total_seconds();
    longest = std::max(longest, run->timing.total_seconds());
    return run;
  };

  // Scatter: devices routed nothing are never touched — no engine, no
  // device state. Host execution is serial over resources (deterministic
  // stats); on the SIMULATED timeline the shards overlap, being separate
  // GPUs and lanes.
  for (size_t d = 0; d < route.device_docs.size(); ++d) {
    const std::vector<uint32_t>& docs = route.device_docs[d];
    if (docs.empty()) continue;
    // A document is resident for this run only if a load of it finished
    // on this device by the run's start.
    std::vector<uint8_t> resident(docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      resident[i] = resident_since_[d][docs[i]] <= spec.start_time ? 1 : 0;
    }
    auto run = run_shard(docs, BatchEngine::Options{}, &resident);
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
    for (BatchEngine::DocumentRun& doc : run->documents) {
      batch.documents.push_back(std::move(doc));
    }
  }
  // A lane runs the sequential CPU TADOC backend over its documents: no
  // device, no pool, no pre-sizing, no residency.
  if (on_lane && !route.lane_docs->empty()) {
    BatchEngine::Options bopt;
    bopt.backend = kCpuPlanBackend;
    bopt.cpu = spec.cpu;
    auto run = run_shard(*route.lane_docs, bopt, nullptr);
    if (!run.ok()) return run.status();
    for (BatchEngine::DocumentRun& doc : run->documents) {
      batch.documents.push_back(std::move(doc));
    }
  }
  // Cross-shard parallelism goes into overlap_saved_seconds.
  batch.timing.overlap_saved_seconds += serial - longest;

  // Gather: the executed runs already carry global ids and file bases; the
  // shared gather assembles the skipped documents and performs the one
  // corpus-order merge, charged at the merge rate of the resource that ran
  // the run. Devices are released at their own shards' ends, so on them
  // the merge is the run's tail; a lane runs the merge on its one thread
  // and is held through it. Either way total_seconds() is the makespan.
  auto gather = BatchEngine::Gather(
      spec.task, spec.engine, *global,
      on_lane ? spec.cpu.thread_ops_per_sec()
              : spec.engine.gpu.device_ops_per_sec(),
      &batch);
  if (!gather.ok()) return gather.status();
  out.gather_seconds = on_lane ? 0.0 : *gather;
  batch.timing.wall_seconds = wall.ElapsedSeconds();
  return out;
}

}  // namespace gtadoc
