#ifndef GTADOC_TADOC_PARALLEL_ENGINE_H_
#define GTADOC_TADOC_PARALLEL_ENGINE_H_

#include "analytics/engine.h"
#include "common/result.h"
#include "sequitur/compressor.h"
#include "tadoc/cpu_engine.h"

namespace gtadoc {

/// \brief Coarse-grained parallel CPU TADOC ([4]) and its distributed
/// extension (the paper's 10-node Spark baseline for dataset C).
///
/// A timing model over one CPU-backend BatchEngine run: every partition runs
/// on the sequential engine and the batch merges the results in partition
/// order. Each partition is charged as a cold engine would be — its phase-1
/// DAG walk (CpuTadocEngine::DagWalkOps) on top of the batch's per-document
/// ops. Simulated time composes those ops:
///   - multicore mode: charged work spread over the socket, with the heaviest
///     partition as the critical path, plus the sequential merge;
///   - cluster mode: heaviest node (socket width per node) plus a shuffle
///     term (result bytes over the network) and per-round scheduling latency.
class ParallelTadocEngine {
 public:
  static Result<ParallelTadocEngine> Create(const PartitionedCorpus* corpus,
                                            const CpuTadocOptions& options);

  /// Multicore coarse-grained run.
  Result<EngineRun> Run(Task task) const;

  /// Distributed run under `cluster`'s cost model.
  Result<EngineRun> RunOnCluster(Task task,
                                 const gpu::ClusterSpec& cluster) const;

 private:
  ParallelTadocEngine(const PartitionedCorpus* corpus,
                      const CpuTadocOptions& options)
      : corpus_(corpus), options_(options) {}

  struct PartitionOutcome {
    AnalyticsResult merged;       ///< merged result in global file ids
    uint64_t total_ops = 0;       ///< sum over partitions (traversal)
    uint64_t max_partition_ops = 0;
    uint64_t merge_ops = 0;
    uint64_t init_total_ops = 0;
    uint64_t init_max_ops = 0;
  };
  Result<PartitionOutcome> RunPartitions(Task task) const;

  const PartitionedCorpus* corpus_;
  CpuTadocOptions options_;
};

}  // namespace gtadoc

#endif  // GTADOC_TADOC_PARALLEL_ENGINE_H_
