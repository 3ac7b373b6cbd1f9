#ifndef GTADOC_ANALYTICS_SCHEDULER_H_
#define GTADOC_ANALYTICS_SCHEDULER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "gpu/memory_pool.h"

namespace gtadoc {

/// Absent deadline: orders after every finite deadline.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// One queued unit of work as the scheduler sees it: an opaque ticket plus
/// the admission-relevant facts (footprint, owner, QoS knobs). Durations are
/// unknown until the run executes; see RunScheduler::FinishStarted.
struct ScheduledRun {
  uint64_t ticket = 0;           ///< caller-issued, unique, FIFO-ordered
  uint64_t tenant = 0;           ///< SlotBudget owner id (0 = default)
  uint64_t footprint_slots = 0;  ///< device-slot reservation while resident
  /// The run's reservation on each device of the group (one entry per
  /// scheduler device; zero = the run does not touch that device). May be
  /// left empty — Enqueue then places footprint_slots on device 0. When
  /// set, footprint_slots is normalized to the entries' sum.
  std::vector<uint64_t> device_slots;
  int32_t priority = 0;           ///< higher starts first
  double deadline = kNoDeadline;  ///< absolute simulated s; ties break EDF
  double submit_time = 0.0;       ///< stamped by Enqueue from the sim clock
  /// CPU-dispatched run: occupies one simulated CPU lane for its full
  /// duration and ZERO device slots (Enqueue clears its footprint). Lane
  /// runs never reserve against the budgets, so they overlap GPU device
  /// time freely and backfill past GPU-bound queues; their only admission
  /// constraint is RunSchedulerOptions::cpu_lanes.
  bool cpu_lane = false;
};

struct RunSchedulerOptions {
  /// Starvation bound: once a queued run has been bypassed (a later-ordered
  /// run started ahead of it) this many times, it becomes "urgent" — no
  /// further backfill past it until it starts. Because every enqueued run's
  /// footprint is validated to fit an empty device, the urgent run is
  /// admitted no later than when the active set drains.
  uint32_t aging_limit = 8;
  /// Simulated CPU lanes: how many cpu_lane runs may be co-resident. A lane
  /// is the CPU-side analogue of a device-slot reservation, but with a
  /// zero-slot budget — lane runs consume no device capacity. 0 disables
  /// CPU-lane admission (a queued cpu_lane run then never starts, the same
  /// precondition violation as an oversize footprint).
  uint32_t cpu_lanes = 0;
};

/// What StartNext decided, for the serving layer's stats and ServedRun
/// metadata. All times are simulated seconds on the scheduler's clock.
struct AdmissionDecision {
  uint64_t ticket = 0;
  uint64_t tenant = 0;
  double start_time = 0.0;
  double queue_wait = 0.0;  ///< start_time - submit_time
  /// True when this run started while a QoS-earlier run was still queued
  /// (a backfill).
  bool backfilled = false;
};

/// \brief Rolling-admission scheduler on a simulated timeline over the
/// SlotBudgets of an N-device group (N = 1 included).
///
/// The model: admitted runs are co-resident on the device group, overlapping
/// in SIMULATED time — run i occupies its per-device footprints for
/// [start_i, completion). Host execution stays serial in admission order
/// (which keeps results and durations deterministic and bit-identical to
/// serial runs); the scheduler's clock, queue waits, and budget occupancy
/// all live on the simulated timeline. Each device a run holds is released
/// at that device's OWN completion, and the next eligible queued run starts
/// the moment its footprint fits — per-completion-event admission.
///
/// Protocol (driven by the serving layer, single-threaded):
///   1. Enqueue every submitted run (footprint known from its RunPlan).
///   2. Loop: StartNext() picks a run and reserves its footprint on every
///      device it touches, all or nothing (possibly first advancing the
///      clock through completion events to free slots); the caller executes
///      it and reports the measured duration(s) via FinishStarted (one
///      duration for every device, e.g. a CPU-lane run) or FinishSharded
///      (per-device durations + the scatter/gather tail). Repeat until
///      StartNext returns nullopt.
///   3. DrainActive() retires the remaining completions.
///
/// Ordering: priority desc, then deadline asc (EDF, kNoDeadline last), then
/// ticket asc (FIFO). Runs that do not fit are backfilled past, bounded by
/// the aging limit.
///
/// Multi-device reservations go through gpu::SlotBudgetGroup: a run holds
/// slots on all its devices or none (the deadlock-free all-or-nothing
/// protocol), and per-tenant group quotas bind across shards.
class RunScheduler {
 public:
  /// Single-device scheduler (a group of one). `budget` must outlive the
  /// scheduler; reservations are tagged with each run's tenant so per-tenant
  /// quotas bind (see SlotBudget::SetOwnerQuota).
  explicit RunScheduler(gpu::SlotBudget* budget,
                        RunSchedulerOptions options = {})
      : RunScheduler(std::vector<gpu::SlotBudget*>{budget}, options) {}

  /// Sharded scheduler over one SlotBudget per device. The budgets must
  /// outlive the scheduler.
  explicit RunScheduler(std::vector<gpu::SlotBudget*> budgets,
                        RunSchedulerOptions options = {})
      : budgets_(std::move(budgets)), group_(budgets_), options_(options) {}

  size_t num_devices() const { return budgets_.size(); }
  /// The group-reservation seam (per-tenant cross-shard quotas live here).
  gpu::SlotBudgetGroup* group() { return &group_; }

  /// Queues a run. Its submit_time is stamped from the scheduler clock.
  /// Precondition (caller-validated): every per-device footprint fits that
  /// device empty and the tenant's quota, so every queued run can
  /// eventually start.
  void Enqueue(ScheduledRun run);

  /// Starts the next eligible run: reserves its footprint against the
  /// budget(s) and returns the admission decision. Advances the simulated
  /// clock through completion events (releasing their reservations) as
  /// needed to make room. Returns nullopt when the queue is empty, or when
  /// nothing queued can ever fit (a precondition violation).
  std::optional<AdmissionDecision> StartNext();

  /// Reports the measured duration of a started run; its completion event
  /// (start + duration) is when its reservation becomes releasable. Must be
  /// called before the next StartNext (execution is serial).
  void FinishStarted(uint64_t ticket, double duration_seconds);

  /// Sharded completion report: device d's reservation becomes releasable
  /// at start + device_durations[d] (one entry per device; entries for
  /// devices the run holds no slots on are ignored except for the run's
  /// overall completion), and the run itself completes at
  /// start + max(device_durations) + gather_seconds — the scatter/gather
  /// barrier plus the merge tail.
  void FinishSharded(uint64_t ticket,
                     const std::vector<double>& device_durations,
                     double gather_seconds);

  /// Retires every remaining active run by walking the remaining completion
  /// events. The clock ends at the last completion — the workload's
  /// makespan.
  void DrainActive();

  /// Abandons every queued (not-yet-started) run — the serving layer's
  /// failure path. Active runs are untouched; DrainActive retires them.
  void ClearQueue() { queue_.clear(); }

  double now() const { return now_; }
  size_t queued() const { return queue_.size(); }
  size_t active() const { return active_.size(); }
  bool idle() const { return queue_.empty() && active_.empty(); }
  /// Starts that jumped ahead of a QoS-earlier queued run.
  uint64_t backfills() const { return backfills_; }
  /// Per-tenant footprint-slots x simulated-seconds held, accumulated at
  /// each release.
  const std::map<uint64_t, double>& slot_seconds() const {
    return slot_seconds_;
  }
  /// The per-device split of slot_seconds(): element d of a tenant's vector
  /// is the slot-seconds its reservations held on device d.
  const std::map<uint64_t, std::vector<double>>& slot_seconds_per_device()
      const {
    return slot_seconds_per_device_;
  }
  /// CPU lanes currently held by active cpu_lane runs.
  uint32_t cpu_lanes_in_use() const { return lanes_in_use_; }
  /// High-water mark of co-resident cpu_lane runs (the dispatch bench's
  /// lane-saturation gate).
  uint32_t peak_cpu_lanes_in_use() const { return peak_lanes_in_use_; }

 private:
  struct QueuedEntry {
    ScheduledRun run;
    uint32_t bypass = 0;  ///< times a later-ordered run started first
  };
  struct ActiveRun {
    uint64_t ticket = 0;
    uint64_t tenant = 0;
    std::vector<uint64_t> device_slots;  ///< per device; zeroed on release
    std::vector<bool> device_released;
    /// Per-device completion (start + that device's shard duration);
    /// < 0 until a Finish* call reports durations.
    std::vector<double> device_completion;
    double start_time = 0.0;
    double completion = -1.0;  ///< full completion incl. the gather tail
    bool cpu_lane = false;     ///< holds a lane, not device slots
  };

  /// QoS order: priority desc, deadline asc, ticket asc.
  static bool QosBefore(const ScheduledRun& a, const ScheduledRun& b);

  /// Index into queue_ of the run to start now, or -1 when none fits (or
  /// when the first non-fitting urgent run blocks backfill).
  int PickCandidate() const;
  /// Reserves and starts queue_[index]; maintains bypass counters.
  AdmissionDecision Start(size_t index);
  /// Retires the earliest pending (run, device) completion event; the run
  /// leaves the active set when its last device is freed.
  void PopEarliestCompletion();
  /// Folds one release into the aggregate and per-device slot-second
  /// accounts.
  void AccountRelease(const ActiveRun& run, size_t device, double held_until);

  std::vector<gpu::SlotBudget*> budgets_;
  gpu::SlotBudgetGroup group_;
  RunSchedulerOptions options_;
  double now_ = 0.0;
  std::vector<QueuedEntry> queue_;  // ticket (FIFO) order
  std::vector<ActiveRun> active_;
  uint64_t backfills_ = 0;
  uint32_t lanes_in_use_ = 0;
  uint32_t peak_lanes_in_use_ = 0;
  std::map<uint64_t, double> slot_seconds_;
  std::map<uint64_t, std::vector<double>> slot_seconds_per_device_;
};

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_SCHEDULER_H_
