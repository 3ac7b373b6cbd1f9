#ifndef GTADOC_ANALYTICS_SHARDING_H_
#define GTADOC_ANALYTICS_SHARDING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "analytics/batch.h"
#include "common/result.h"
#include "sequitur/compressor.h"

namespace gtadoc {

/// \brief A compressed corpus partitioned across N simulated GPUs.
///
/// Documents are placed round-robin (document g's primary device is g mod N)
/// so selective workloads whose relevant documents cluster anywhere in the
/// corpus still spread across devices. With `replication` R > 1 each
/// document additionally lives on the R-1 devices following its primary
/// (mod N) — hot documents can then be served by whichever replica is least
/// loaded, at the cost of R grammar copies of (simulated) device memory.
///
/// The topology is placement metadata only: each device's documents are a
/// list of global document ids (device_docs), and its BatchEngine runs the
/// ones a route sends it straight out of the global corpus — no grammar is
/// copied on the host. A per-device DocumentRun therefore carries its global
/// id and file base and comes back gather-ready: the cross-device merge is
/// the same MergeResult-in-corpus-order pass a single-device batch performs,
/// which is what keeps sharded results bit-identical to a one-device serial
/// run under every shard count and replication factor.
class ShardedCorpus {
 public:
  /// Create clamps both fields; num_devices() and replication() report the
  /// values in effect.
  struct Options {
    size_t num_devices = 1;  ///< simulated GPUs; 0 counts as 1
    /// Grammar copies per document, clamped to [1, num_devices]. R > 1
    /// enables least-loaded replica selection per run.
    size_t replication = 1;
  };

  /// One run's scatter decision: which documents each resource it holds
  /// executes. A GPU run names every device of the group and no lane; a
  /// CPU-dispatched run names one lane and no device. The run's
  /// reservation names the same resources (SlotLedger).
  struct RoutePlan {
    /// Per device, the global ids of the documents routed there, ascending
    /// (one list per device of the group; none on a lane run). A device
    /// with an empty list receives NO work at all — no engine, no upload,
    /// no plan, no traversal. A document in no list (root-Bloom skipped or
    /// masked out) reaches no engine and is assembled empty at the gather;
    /// replicas the route did not choose never see the run.
    std::vector<std::vector<uint32_t>> device_docs;
    /// On a CPU-dispatched run, the global ids its one lane executes,
    /// ascending; absent on a GPU run.
    std::optional<std::vector<uint32_t>> lane_docs;
  };

  /// The corpus must outlive the sharded view (every device runs its
  /// documents out of it). Fails on an empty corpus.
  static Result<std::unique_ptr<ShardedCorpus>> Create(
      const PartitionedCorpus* corpus, const Options& options);

  size_t num_devices() const { return device_docs_.size(); }
  size_t replication() const { return replication_; }
  const PartitionedCorpus* global_corpus() const { return corpus_; }
  /// Device d's documents as global document ids, ascending; empty when the
  /// corpus is smaller than the device count.
  const std::vector<uint32_t>& device_docs(size_t d) const {
    return device_docs_[d];
  }
  /// Devices holding document g, primary first.
  const std::vector<uint32_t>& replicas(uint32_t global_doc) const {
    return doc_replicas_[global_doc];
  }

  /// Scatters one run: every executed document (execute_mask[g] != 0;
  /// empty mask = all) goes to its least-loaded replica, where load is
  /// `device_load` (the caller's standing per-device load, e.g. slots
  /// routed by previously admitted runs) plus the slots this plan has
  /// already placed — ties keep the primary, so an idle group degenerates
  /// to pure round-robin. `plans` weighs documents by their planned pool
  /// footprint, RunPlan::total_slots (empty or null entries = unit
  /// weights). Deterministic: a pure function of its arguments.
  RoutePlan Route(const std::vector<uint8_t>& execute_mask,
                  const PlanList& plans,
                  const std::vector<double>& device_load) const;
  /// Routes every executed document (execute_mask[g] != 0) to one CPU
  /// lane: no device is named, so none is reserved or touched.
  static RoutePlan RouteToLane(const std::vector<uint8_t>& execute_mask);

 private:
  ShardedCorpus() = default;

  const PartitionedCorpus* corpus_ = nullptr;
  size_t replication_ = 1;
  std::vector<std::vector<uint32_t>> device_docs_;
  std::vector<std::vector<uint32_t>> doc_replicas_;
};

/// \brief Scatter/gather executor over a ShardedCorpus and the CPU lanes —
/// every served run, on either backend, executes here.
///
/// Execute() runs a BatchEngine over exactly the documents the RoutePlan
/// sends to each device (devices routed zero documents are never touched —
/// the per-device counters witness it), or to its CPU lane (the sequential
/// TADOC backend, no device state), one plan per routed document. It then
/// gathers through BatchEngine::Gather: each executed document's run comes
/// from the one resource that ran it, Gather assembles the skipped
/// documents empty, and ONE corpus-order merge produces the global result —
/// the same merge a single-device batch performs, on identical inputs, so
/// the merged view is bit-identical to the unsharded run. The merge is
/// charged at the rate of the resource that executed the run: device
/// reduce throughput, or one CPU thread on a lane.
///
/// On the simulated timeline the device pipelines overlap (they are separate
/// GPUs): the run's duration is the slowest device's shard plus the gather
/// merge, and each device is individually releasable at its own shard
/// completion (RunScheduler::Finish). A lane runs the merge itself, so it
/// is held through it: its duration includes the merge and the run has no
/// tail.
///
/// Devices keep the documents they execute resident across Execute calls,
/// on the simulated timeline: a run that loads a document (the grammar
/// arena allocation, the H2D upload and the root scan) makes it resident on
/// that device from the moment the run has finished executing it there.
/// Runs starting at or after that moment pay none of the load; a run that
/// starts earlier — co-resident with the loading run — cannot use a copy
/// still in flight and loads the document itself. So once every document
/// routed to a device is resident and later runs start after the loads
/// land, the device's upload_seconds stops growing. Each replica is its own
/// copy: a document's first route to another replica loads it there.
class DeviceGroup {
 public:
  /// One sharded run.
  struct RunSpec {
    Task task = Task::kWordCount;
    /// Fully-resolved per-run engine options (query fields included).
    GTadocEngine::Options engine;
    /// The scatter decision; must outlive the call.
    const ShardedCorpus::RoutePlan* route = nullptr;
    /// Simulated time the run starts (the scheduler's admission time): it
    /// finds resident exactly the documents whose loads landed by then.
    double start_time = 0.0;
    /// The run's plan per global document (null where nothing runs); must
    /// hold one for every routed document, of the backend it is routed to.
    /// Each device executes its routed slice of them and pre-sizes its
    /// pools to the slice's largest total_slots — the footprint admission
    /// reserved there. BatchEngine's backend check refuses CPU plans before
    /// a device executes, so a dispatch bug cannot charge CPU work to
    /// device counters.
    PlanList plans;
    /// Cost model of the CPU lanes; required (ghz > 0) when the route names
    /// a lane.
    gpu::CpuSpec cpu;
    /// Forwarded to each resource's BatchEngine, which splits its routed
    /// documents over that many worker contexts.
    size_t host_workers = 1;
    /// Forwarded to each resource's BatchEngine: invoked once per executed
    /// document, on the resource that ran it (resources run only their
    /// routed documents, so no document is reported twice). Must be
    /// thread-safe; may be null.
    std::function<void(const BatchEngine::DocumentRun&)> on_document_executed;
  };

  struct RunResult {
    /// The gathered global batch: documents in corpus order with global
    /// ids, merged corpus view, composed timing whose total_seconds() is
    /// the run's makespan (slowest device + gather, or the lane's run).
    BatchEngine::BatchRun batch;
    /// Simulated duration of each device's shard, one per device the route
    /// names (0 for idle devices; none on a lane run).
    std::vector<double> device_durations;
    /// The cross-device merge tail after the slowest shard, charged at
    /// device reduce throughput; 0 on a lane run, whose lane holds the
    /// merge.
    double gather_seconds = 0;
  };

  /// Cumulative per-device accounting across Execute() calls — the base of
  /// the serving layer's per-device stats (CorpusServer::Stats::DeviceStats),
  /// and the routing tests' "this device did no work" witness.
  struct DeviceCounters {
    uint64_t runs_routed = 0;         ///< runs that executed >= 1 doc here
    uint64_t documents_executed = 0;  ///< over all routed runs
    uint64_t init_ops = 0;            ///< simulated phase-1 ops charged
    uint64_t traversal_ops = 0;       ///< simulated phase-2 ops charged
    /// Simulated H2D time charged here: a document uploads only in runs
    /// that start before a load of it has landed on this device, so this
    /// stops growing once every document routed here is resident.
    double upload_seconds = 0;
    /// Summed simulated shard durations (the gather merge tail is not
    /// device-local work and is not included).
    double busy_seconds = 0;
    uint64_t mid_run_pool_growths = 0;
    /// Documents resident on this device (counted at their first load,
    /// never evicted), and their summed DeviceGrammar::DeviceBytes.
    uint64_t resident_documents = 0;
    uint64_t resident_bytes = 0;
  };

  /// The sharded corpus and `index` — the lazily built DocumentIndexes of
  /// the GLOBAL corpus — must outlive the group. Every device borrows its
  /// documents' indexes by global id, so a document's replicas share one
  /// entry.
  DeviceGroup(const ShardedCorpus* corpus, const CorpusIndex* index);

  Result<RunResult> Execute(const RunSpec& spec);

  const std::vector<DeviceCounters>& counters() const { return counters_; }

 private:
  const ShardedCorpus* corpus_;
  const CorpusIndex* index_;
  std::vector<DeviceCounters> counters_;
  /// Per device, per global document id: the simulated time the document's
  /// earliest load there finished; infinity until it loads.
  std::vector<std::vector<double>> resident_since_;
};

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_SHARDING_H_
