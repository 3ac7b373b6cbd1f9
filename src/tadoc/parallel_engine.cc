#include "tadoc/parallel_engine.h"

#include <algorithm>

#include "analytics/batch.h"
#include "common/timer.h"

namespace gtadoc {

Result<ParallelTadocEngine> ParallelTadocEngine::Create(
    const PartitionedCorpus* corpus, const CpuTadocOptions& options) {
  if (corpus->partitions.empty()) {
    return Status::InvalidArgument("no partitions");
  }
  return ParallelTadocEngine(corpus, options);
}

Result<ParallelTadocEngine::PartitionOutcome>
ParallelTadocEngine::RunPartitions(Task task) const {
  BatchEngine::Options batch_options;
  static_cast<QuerySpec&>(batch_options.engine) = options_;
  batch_options.engine.strategy = options_.strategy;
  batch_options.engine.plan_cache = options_.plan_cache;
  batch_options.backend = kCpuPlanBackend;
  batch_options.cpu = options_.cpu;
  CorpusIndex index(&corpus_->partitions);
  auto engine = BatchEngine::Create(corpus_, batch_options, &index);
  if (!engine.ok()) return engine.status();
  auto batch = (*engine)->Run(task);
  if (!batch.ok()) return batch.status();

  PartitionOutcome o;
  for (const BatchEngine::DocumentRun& doc : batch->documents) {
    // The batch ran over prebuilt indexes; a cold partition also walks its
    // grammar to build one, so that walk is charged back to its phase 1.
    auto doc_index = index.Get(doc.doc);
    if (!doc_index.ok()) return doc_index.status();
    const uint64_t init_ops =
        CpuTadocEngine::DagWalkOps((*doc_index)->dag) + doc.timing.init_ops;
    o.init_total_ops += init_ops;
    o.init_max_ops = std::max(o.init_max_ops, init_ops);
    o.total_ops += doc.timing.traversal_ops;
    o.max_partition_ops =
        std::max(o.max_partition_ops, doc.timing.traversal_ops);
  }
  o.merge_ops = batch->timing.traversal_ops - o.total_ops;
  o.merged = std::move(batch->merged);
  return o;
}

Result<EngineRun> ParallelTadocEngine::Run(Task task) const {
  Timer wall;
  auto outcome = RunPartitions(task);
  if (!outcome.ok()) return outcome.status();
  const gpu::CpuSpec& cpu = options_.cpu;
  // One phase: the work spread over the socket, or the heaviest partition on
  // one core, whichever takes longer.
  const auto spread_or_critical = [&cpu](uint64_t total, uint64_t max) {
    return std::max(static_cast<double>(total) / cpu.socket_ops_per_sec(),
                    static_cast<double>(max) / cpu.thread_ops_per_sec());
  };

  EngineRun run;
  run.result = std::move(outcome->merged);
  run.timing.init_seconds =
      spread_or_critical(outcome->init_total_ops, outcome->init_max_ops);
  run.timing.traversal_seconds =
      spread_or_critical(outcome->total_ops, outcome->max_partition_ops) +
      static_cast<double>(outcome->merge_ops) / cpu.thread_ops_per_sec();
  run.timing.init_ops = outcome->init_total_ops;
  run.timing.traversal_ops = outcome->total_ops + outcome->merge_ops;
  run.timing.wall_seconds = wall.ElapsedSeconds();
  return run;
}

Result<EngineRun> ParallelTadocEngine::RunOnCluster(
    Task task, const gpu::ClusterSpec& cluster) const {
  Timer wall;
  auto outcome = RunPartitions(task);
  if (!outcome.ok()) return outcome.status();

  // One partition per node (partition count should equal node count; extra
  // partitions round-robin onto nodes).
  const double node_tput = cluster.node_cpu.socket_ops_per_sec();
  const size_t parts = corpus_->partitions.size();
  const double waves =
      static_cast<double>((parts + cluster.nodes - 1) / cluster.nodes);

  EngineRun run;
  run.result = std::move(outcome->merged);
  const double scale = cluster.workload_scale > 0 ? cluster.workload_scale : 1;
  const double latency = cluster.per_round_latency_s / scale;
  run.timing.init_seconds =
      waves * static_cast<double>(outcome->init_max_ops) / node_tput + latency;
  const double compute =
      waves * static_cast<double>(outcome->max_partition_ops) / node_tput;
  // Shuffle volume is the merged result's serialized size. Down-scaled
  // corpora keep near-full vocabularies (results shrink far less than
  // compute), so the shuffle term is corrected by the same workload factor
  // to preserve the paper-regime shuffle:compute ratio.
  const double shuffle =
      static_cast<double>(ResultBytes(run.result, options_.ngram_len)) *
      (static_cast<double>(cluster.nodes - 1) / cluster.nodes) /
      (cluster.network_gbps * 1e9 / 8.0) / scale;
  const double merge = static_cast<double>(outcome->merge_ops) /
                       cluster.node_cpu.thread_ops_per_sec();
  run.timing.traversal_seconds =
      compute + shuffle + merge + latency * cluster.shuffle_rounds;
  run.timing.init_ops = outcome->init_total_ops;
  run.timing.traversal_ops = outcome->total_ops + outcome->merge_ops;
  run.timing.wall_seconds = wall.ElapsedSeconds();
  return run;
}

}  // namespace gtadoc
