#include "analytics/sharding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
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
  plan.doc_device.assign(n, kUnrouted);
  plan.device_documents.assign(num_devices(), 0);

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
    plan.doc_device[g] = best;
    ++plan.device_documents[best];
  }
  return plan;
}

DeviceGroup::DeviceGroup(const ShardedCorpus* corpus, const CorpusIndex* index)
    : corpus_(corpus),
      index_(index),
      counters_(corpus->num_devices()),
      resident_since_(corpus->num_devices()) {
  for (size_t d = 0; d < corpus->num_devices(); ++d) {
    resident_since_[d].assign(corpus->device_docs(d).size(),
                              std::numeric_limits<double>::infinity());
  }
}

Result<DeviceGroup::RunResult> DeviceGroup::Execute(const RunSpec& spec) {
  Timer wall;
  const PartitionedCorpus* global = corpus_->global_corpus();
  const size_t n = global->partitions.size();
  const size_t num_devices = corpus_->num_devices();
  if (spec.route == nullptr || spec.plans.size() != n) {
    return Status::InvalidArgument("needs a route and one plan per document");
  }
  const ShardedCorpus::RoutePlan& route = *spec.route;
  // Slice the plans along the route before any device executes: device d
  // gets a plan for each of its documents the route sent there, and a
  // routed document without a plan fails the whole run with no device
  // touched.
  std::vector<PlanList> device_plans(num_devices);
  for (size_t d = 0; d < num_devices; ++d) {
    const std::vector<uint32_t>& docs = corpus_->device_docs(d);
    device_plans[d].resize(docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      if (route.doc_device[docs[i]] != d) continue;
      if (spec.plans[docs[i]] == nullptr) {
        return Status::InvalidArgument(
            "routed document " + std::to_string(docs[i]) + " has no plan");
      }
      device_plans[d][i] = spec.plans[docs[i]];
    }
  }

  RunResult out;
  out.device_durations.assign(num_devices, 0.0);

  // Scatter: one shard-local batch per device the route sends work to.
  // Devices routed nothing are never touched — no engine, no device state.
  // Host execution is serial over devices (deterministic stats); on the
  // SIMULATED timeline the shards overlap, being separate GPUs.
  std::vector<std::optional<BatchEngine::BatchRun>> device_runs(num_devices);
  for (size_t d = 0; d < num_devices; ++d) {
    if (route.device_documents[d] == 0) continue;
    BatchEngine::Options bopt;
    bopt.engine = spec.engine;
    bopt.host_workers = spec.host_workers;
    // The gather below performs the one corpus-order merge; shard-local
    // merges would charge duplicate reduce work the real run never does.
    bopt.merge_results = false;
    if (spec.on_document_executed) {
      // Executed documents only: masked replicas and skipped documents
      // would double-count across devices.
      const auto& notify = spec.on_document_executed;
      bopt.on_document_complete = [&notify](const BatchEngine::DocumentRun& r) {
        if (!r.skipped) notify(r);
      };
    }
    // A document is resident for this run only if a load of it finished
    // on this device by the run's start.
    std::vector<uint8_t> resident(resident_since_[d].size());
    for (size_t i = 0; i < resident.size(); ++i) {
      resident[i] = resident_since_[d][i] <= spec.start_time ? 1 : 0;
    }
    auto engine = BatchEngine::Create(global, bopt, index_,
                                      &corpus_->device_docs(d), &resident);
    if (!engine.ok()) return engine.status();
    auto run = (*engine)->Run(spec.task, device_plans[d]);
    if (!run.ok()) return run.status();

    out.device_durations[d] = run->timing.total_seconds();
    DeviceCounters& counters = counters_[d];
    ++counters.runs_routed;
    counters.documents_executed += route.device_documents[d];
    counters.init_ops += run->timing.init_ops;
    counters.traversal_ops += run->timing.traversal_ops;
    counters.upload_seconds += run->timing.upload_seconds;
    counters.busy_seconds += run->timing.total_seconds();
    counters.mid_run_pool_growths += run->mid_run_pool_growths;
    out.batch.mid_run_pool_growths += run->mid_run_pool_growths;
    // Every document this run loaded here is resident once the run has
    // finished it: by its place in the serial document order, which never
    // lands earlier than the pipelined schedule finishes the document,
    // capped at the shard's end.
    double executed_by = 0.0;
    for (size_t i = 0; i < device_plans[d].size(); ++i) {
      executed_by += run->documents[i].timing.serial_seconds();
      if (device_plans[d][i] == nullptr || resident[i] != 0) continue;
      double& since = resident_since_[d][i];
      if (std::isinf(since)) {
        auto index = index_->Get(corpus_->device_docs(d)[i]);
        if (!index.ok()) return index.status();
        ++counters.resident_documents;
        counters.resident_bytes += (*index)->device_grammar.DeviceBytes();
      }
      const double landed =
          spec.start_time + std::min(executed_by, out.device_durations[d]);
      since = std::min(since, landed);
    }
    device_runs[d] = std::move(*run);
  }

  // Gather: global documents in corpus order. Executed documents come from
  // the device the route chose (their runs already carry global ids and
  // file bases); skipped documents are assembled empty through the same
  // kernel path a single-device batch uses for documents handed no plan.
  BatchEngine::BatchRun& batch = out.batch;
  batch.documents.resize(n);
  for (size_t d = 0; d < num_devices; ++d) {
    if (!device_runs[d].has_value()) continue;
    const std::vector<uint32_t>& docs = corpus_->device_docs(d);
    for (size_t i = 0; i < docs.size(); ++i) {
      if (route.doc_device[docs[i]] != d) continue;
      batch.documents[docs[i]] = std::move(device_runs[d]->documents[i]);
    }
  }
  for (uint32_t g = 0; g < n; ++g) {
    if (route.doc_device[g] != ShardedCorpus::kUnrouted) continue;
    BatchEngine::DocumentRun& doc = batch.documents[g];
    doc.doc = g;
    doc.file_base = global->file_base[g];
    Status st = BatchEngine::AssembleSkippedDocument(
        spec.task, spec.engine, global->partitions[g].num_files(),
        &doc.result);
    if (!st.ok()) return st;
    doc.skipped = true;
    ++batch.documents_skipped;
  }

  // The one corpus-order merge — identical inputs and order to a
  // single-device batch, so identical merged output.
  batch.merged.task = spec.task;
  uint64_t merge_ops = 0;
  for (const BatchEngine::DocumentRun& doc : batch.documents) {
    MergeResult(doc.result, doc.file_base, &batch.merged, &merge_ops);
  }
  FinalizeMergedResult(&batch.merged, &merge_ops);
  out.gather_seconds =
      static_cast<double>(merge_ops) / spec.engine.gpu.device_ops_per_sec();

  // Composed timing: device pipelines overlap on the simulated timeline
  // (cross-device parallelism goes into overlap_saved_seconds), the gather
  // merge is the serial tail — total_seconds() is the sharded makespan.
  RunTiming timing;
  timing.documents = 0;
  double serial = 0.0;
  double longest = 0.0;
  for (size_t d = 0; d < num_devices; ++d) {
    if (!device_runs[d].has_value()) continue;
    timing.Accumulate(device_runs[d]->timing);
    serial += out.device_durations[d];
    longest = std::max(longest, out.device_durations[d]);
  }
  timing.traversal_seconds += out.gather_seconds;
  timing.traversal_ops += merge_ops;
  timing.overlap_saved_seconds += serial - longest;
  timing.documents = static_cast<uint32_t>(n);
  batch.timing = timing;
  batch.timing.wall_seconds = wall.ElapsedSeconds();
  return out;
}

}  // namespace gtadoc
