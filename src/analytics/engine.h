#ifndef GTADOC_ANALYTICS_ENGINE_H_
#define GTADOC_ANALYTICS_ENGINE_H_

#include <cstdint>

#include "analytics/results.h"
#include "gpu/platform.h"

namespace gtadoc {

/// \brief Simulated + measured timing of one engine run, split into the
/// paper's two phases (Section IV-A): initialization (data-structure
/// preparation + light-weight scanning) and graph traversal (+ result
/// merging).
///
/// A RunTiming can also describe an aggregate over a batch of documents
/// (`documents` > 1): the phase fields then hold per-document sums, and
/// `overlap_saved_seconds` holds the transfer time the batch pipeline hides
/// under other documents' compute — document i+1's H2D grammar upload and
/// document i's D2H result download both run on copy engines while the GPU
/// computes — so `total_seconds()` is the pipeline makespan rather than the
/// serial sum.
struct RunTiming {
  double init_seconds = 0;       ///< phase 1 (simulated)
  double traversal_seconds = 0;  ///< phase 2 (simulated)
  double wall_seconds = 0;       ///< real host wall clock of this run
  uint64_t init_ops = 0;         ///< abstract ops charged in phase 1
  uint64_t traversal_ops = 0;    ///< abstract ops charged in phase 2

  /// Share of init_seconds spent building the RunPlan (strategy decision,
  /// relevance mask, region layout, table geometry). Zero on a plan-cache
  /// hit: the hit path performs no planning at all, which is the whole win
  /// of rebind-heavy serving over same-shape documents.
  double plan_seconds = 0;
  /// Runs this timing aggregates that executed a pre-resolved plan — a
  /// plan-cache hit, or a plan handed to Run(plan) (0 or 1 for a single
  /// run).
  uint64_t plan_cache_hits = 0;

  /// H2D share of init_seconds (the grammar upload). This is the part of
  /// phase 1 a batch can overlap with the previous document's compute;
  /// zero when the dataset is modeled as GPU-resident (charge_pcie off).
  double upload_seconds = 0;
  /// D2H share of traversal_seconds (draining the result tables to the
  /// host). The part of phase 2 a batch can overlap with the next
  /// document's compute; zero when transfers are not charged (charge_pcie
  /// off).
  double download_seconds = 0;
  /// Transfer time (uploads and downloads) hidden under other documents'
  /// compute by the batch pipeline. Zero for single runs.
  double overlap_saved_seconds = 0;
  /// Number of documents this timing aggregates (1 for a single run).
  uint32_t documents = 1;

  double total_seconds() const {
    return init_seconds + traversal_seconds - overlap_saved_seconds;
  }
  /// Serial cost had every document run back-to-back with no overlap.
  double serial_seconds() const { return init_seconds + traversal_seconds; }

  /// Folds one timing (a single document, or a whole sub-aggregate) into
  /// this aggregate: phases, ops, pipeline overlap and document counts all
  /// sum, so serial_seconds()/total_seconds() of the aggregate equal the sum
  /// of its parts. Start from a zeroed aggregate with `documents = 0` (the
  /// default 1 describes a single run, not an empty accumulator); wall-clock
  /// accounting stays the batch scheduler's job.
  void Accumulate(const RunTiming& doc) {
    init_seconds += doc.init_seconds;
    traversal_seconds += doc.traversal_seconds;
    plan_seconds += doc.plan_seconds;
    plan_cache_hits += doc.plan_cache_hits;
    upload_seconds += doc.upload_seconds;
    download_seconds += doc.download_seconds;
    overlap_saved_seconds += doc.overlap_saved_seconds;
    init_ops += doc.init_ops;
    traversal_ops += doc.traversal_ops;
    documents += doc.documents;
  }
};

/// One engine execution: the task output plus its timing.
struct EngineRun {
  AnalyticsResult result;
  RunTiming timing;
};

/// Charge constants shared by the CPU-side engines. The cost model's unit is
/// "one simple ALU/L1 operation" (the CpuSpec throughput is ghz x efficiency
/// ops/s, i.e. about one per cycle). Composite operations charge accordingly:
///
///  - kCpuHashUpdateOps: one std::unordered_map find-or-insert + increment —
///    hash, bucket load, chain compare, RMW; ~6 ns on a 4 GHz core.
///  - kCpuSeqMapDescentOps: the tree descent of an ordered map keyed by an
///    l-word sequence ([2]'s sequence-count structure), excluding the
///    per-word key comparisons which are charged as 2*l on top.
inline constexpr uint64_t kCpuHashUpdateOps = 24;
inline constexpr uint64_t kCpuSeqMapDescentOps = 24;

/// \brief Operation meter for CPU-side engines.
///
/// CPU engines charge abstract ops through the same discipline as GPU kernels
/// (roughly one op per memory access / hash step), so the simulated CPU and
/// GPU times are mutually comparable. A meter's time is single-threaded: its
/// ops over one core's throughput. Coarse-grained parallel time is composed
/// from per-partition ops by ParallelTadocEngine.
class CpuCostMeter {
 public:
  explicit CpuCostMeter(const gpu::CpuSpec& spec) : spec_(spec) {}

  void Charge(uint64_t ops) { ops_ += ops; }
  uint64_t ops() const { return ops_; }

  /// Seconds for a single-threaded execution of the charged work.
  double SequentialSeconds() const {
    return static_cast<double>(ops_) / spec_.thread_ops_per_sec();
  }

  const gpu::CpuSpec& spec() const { return spec_; }

 private:
  gpu::CpuSpec spec_;
  uint64_t ops_ = 0;
};

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_ENGINE_H_
