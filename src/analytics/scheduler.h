#ifndef GTADOC_ANALYTICS_SCHEDULER_H_
#define GTADOC_ANALYTICS_SCHEDULER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace gtadoc {

/// Absent deadline: orders after every finite deadline.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// What one run holds while it is active: slots on every device of the
/// group (a GPU run) or one CPU lane (a CPU-dispatched run), never both.
struct Reservation {
  /// Slots on each device: one entry per device of the group (0 holds that
  /// device with nothing reserved there); empty on a lane run.
  std::vector<uint64_t> device_slots;
  /// True for a lane run. Lanes are not slots: they count toward no slot
  /// total, tenant quota or slot-seconds.
  bool lane = false;
};

/// \brief The admission ledger of an N-device group (N = 1 included) and its
/// CPU lanes: one slot budget per device and one lane capacity, reserved all
/// or nothing.
///
/// Every admitted GPU run reserves its pool footprint (known before
/// execution from `RunPlan::total_slots`) on each device it scatters to,
/// and frees each device's share when that device's shard completes; a
/// CPU-dispatched run reserves one lane instead. TryReserve never blocks
/// and never oversubscribes: it checks every device, the lanes and the
/// tenant's quota under one lock before applying anything, so a run holds
/// all it names or nothing (partial holds would deadlock admission: run A
/// holding device 0 waiting for device 1, run B the reverse). A run that
/// does not fit is queued instead, which is how admitted runs never need a
/// mid-run EnsureCapacity growth.
///
/// Resources are indexed for release: device d is resource d, and the lane
/// pool is resource lane_resource() == num_devices().
///
/// A device capacity of 0 means unmetered: every share fits there (in-use
/// and peak are still tracked). A lane capacity of 0 means no lanes: no
/// reservation naming one fits. Tenant quotas span the devices: a tenant's
/// quota bounds its reserved slots summed over all of them, so it stays
/// meaningful when the tenant's runs scatter across shards. Tenant 0 is the
/// untagged default.
class SlotLedger {
 public:
  /// One budget per device, `capacities[d]` slots on device d, and `lanes`
  /// CPU lanes.
  explicit SlotLedger(std::vector<uint64_t> capacities, uint32_t lanes = 0);

  size_t num_devices() const { return devices_.size(); }
  size_t lane_resource() const { return devices_.size(); }

  /// Would TryReserve(reservation, tenant) succeed right now? Read-only
  /// peek for admission policies that rank candidates before reserving.
  bool CanReserve(const Reservation& reservation, uint64_t tenant = 0) const;
  /// Reserves slots[d] on every device d, or one lane, for `tenant`, all
  /// or nothing. False, and no state change, on a reservation that names
  /// neither every device alone nor a lane alone, a device or the lanes
  /// without room, or a tenant quota the slot total would exceed.
  bool TryReserve(const Reservation& reservation, uint64_t tenant = 0);
  /// Returns `units` of `tenant`'s reservation on one resource only (slots
  /// on a device, or the lane): a sharded run frees each device the moment
  /// that device's shard completes. Releasing more than is held clamps to
  /// zero (a caller bug, defended).
  void ReleaseOn(size_t resource, uint64_t units, uint64_t tenant = 0);
  /// Ceiling on `tenant`'s reserved slots summed over devices; 0 =
  /// unquotaed (only the device capacities bound it).
  void SetTenantQuota(uint64_t tenant, uint64_t quota_slots);

  /// Reserved slots summed over devices, now and at the high-water mark.
  uint64_t in_use() const;
  uint64_t peak_in_use() const;
  /// Device `device`'s reserved slots, now and at the high-water mark (the
  /// "admitted set never exceeded the budget" witness).
  uint64_t in_use_on(size_t device) const;
  uint64_t peak_in_use_on(size_t device) const;
  /// `tenant`'s reserved slots summed over devices.
  uint64_t tenant_in_use(uint64_t tenant) const;
  /// Reserved CPU lanes, now and at the high-water mark.
  uint64_t lanes_in_use() const;
  uint64_t peak_lanes_in_use() const;

 private:
  struct ResourceState {
    uint64_t capacity = 0;  ///< devices: 0 = unmetered; lanes: 0 = none
    uint64_t in_use = 0;
    uint64_t peak = 0;
  };
  struct TenantState {
    uint64_t quota = 0;  ///< 0 = unquotaed
    uint64_t in_use = 0;
  };

  /// Every device's capacity, the lanes and the tenant's quota; caller
  /// holds mu_.
  bool FitsLocked(const Reservation& reservation, uint64_t tenant) const;

  mutable std::mutex mu_;
  std::vector<ResourceState> devices_;
  ResourceState lanes_;
  uint64_t in_use_ = 0;
  uint64_t peak_ = 0;
  std::map<uint64_t, TenantState> tenants_;
};

/// One queued unit of work as the scheduler sees it: an opaque ticket plus
/// the admission-relevant facts (footprint, tenant, QoS knobs). Durations
/// are unknown until the run executes; see RunScheduler::Finish.
struct ScheduledRun {
  uint64_t ticket = 0;  ///< caller-issued, unique, FIFO-ordered
  uint64_t tenant = 0;  ///< SlotLedger tenant id (0 = default)
  /// What the run holds while resident: slots on every device of the group
  /// (a GPU run) or one CPU lane (a CPU-dispatched run, which then overlaps
  /// GPU device time and backfills past GPU-bound queues).
  Reservation reservation;
  int32_t priority = 0;           ///< higher starts first
  double deadline = kNoDeadline;  ///< absolute simulated s; ties break EDF
  double submit_time = 0.0;       ///< stamped by Enqueue from the sim clock
};

struct RunSchedulerOptions {
  /// Starvation bound: once a queued run has been bypassed (a later-ordered
  /// run started ahead of it) this many times, it becomes "urgent" — no
  /// further backfill past it until it starts. Because every enqueued run's
  /// footprint is validated to fit an empty device, the urgent run is
  /// admitted no later than when the active set drains.
  uint32_t aging_limit = 8;
  /// Simulated CPU lanes: the SlotLedger's lane capacity, i.e. how many
  /// runs reserving a lane may be co-resident. Lanes are a ledger resource
  /// beside the device slots, but not slots themselves: they add nothing to
  /// slot totals, tenant quotas or slot-seconds. 0 disables CPU-lane
  /// admission (a queued lane run then never starts, the same precondition
  /// violation as an oversize footprint).
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
/// SlotLedger of an N-device group (N = 1 included).
///
/// The model: admitted runs are co-resident on the device group, overlapping
/// in SIMULATED time — run i occupies its per-device footprints (or its
/// CPU lane) for [start_i, completion). Host execution stays serial in
/// admission order (which keeps results and durations deterministic and
/// bit-identical to serial runs); the scheduler's clock, queue waits, and
/// budget occupancy all live on the simulated timeline. Each resource a run
/// holds is released at that resource's OWN completion, and the next
/// eligible queued run starts the moment its reservation fits —
/// per-completion-event admission.
///
/// Protocol (driven by the serving layer, single-threaded):
///   1. Enqueue every submitted run (footprint known from its RunPlan).
///   2. Loop: StartNext() picks a run and reserves what it names, all or
///      nothing (possibly first advancing the clock through completion
///      events to free room); the caller executes it and reports one
///      measured duration per held resource and its tail via Finish.
///      Repeat until StartNext returns nullopt.
///   3. DrainActive() retires the remaining completions.
///
/// Ordering: priority desc, then deadline asc (EDF, kNoDeadline last), then
/// ticket asc (FIFO). Runs that do not fit are backfilled past, bounded by
/// the aging limit.
///
/// Reservations go through the scheduler's SlotLedger: a run holds all it
/// names (slots on its devices, or a lane) or nothing, and per-tenant quotas
/// bind across shards.
class RunScheduler {
 public:
  /// Scheduler over one slot budget per device, `device_capacities[d]`
  /// slots on device d (0 = unmetered), and options.cpu_lanes lanes.
  explicit RunScheduler(std::vector<uint64_t> device_capacities,
                        RunSchedulerOptions options = {})
      : ledger_(std::move(device_capacities), options.cpu_lanes),
        options_(options) {}

  size_t num_devices() const { return ledger_.num_devices(); }
  /// The reservations of every admitted run; tenant quotas are set here and
  /// slot and lane peaks read.
  SlotLedger* ledger() { return &ledger_; }

  /// Queues a run. Its submit_time is stamped from the scheduler clock.
  /// Precondition (caller-validated): the reservation fits an empty ledger
  /// (every device entry its device and the slot total the tenant's quota,
  /// or a lane and a nonzero lane capacity), so every queued run can
  /// eventually start.
  void Enqueue(ScheduledRun run);

  /// Starts the next eligible run: reserves its footprint in the ledger
  /// and returns the admission decision. Advances the simulated
  /// clock through completion events (releasing their reservations) as
  /// needed to make room. Returns nullopt when the queue is empty, or when
  /// nothing queued can ever fit (a precondition violation).
  std::optional<AdmissionDecision> StartNext();

  /// Reports a started run's measured durations, one per resource it holds
  /// (each device it names in order, or its lane; a missing entry counts
  /// as 0); must be called before the next StartNext
  /// (execution is serial). Each resource becomes releasable at start +
  /// its duration (a device the run holds no slots on counts only toward
  /// the run's completion), and the run itself completes at
  /// start + max(durations) + tail_seconds: the scatter/gather barrier plus
  /// the merge tail. A lane holds its run's merge, so a lane run reports
  /// one duration, merge included, and a tail of 0.
  void Finish(uint64_t ticket, const std::vector<double>& durations,
              double tail_seconds);

  /// Retires every remaining active run by walking the remaining completion
  /// events. The clock ends at the last completion — the workload's
  /// makespan.
  void DrainActive();

  /// Abandons every queued (not-yet-started) run — the serving layer's
  /// failure path. Active runs are untouched; DrainActive retires them.
  void ClearQueue() { queue_.clear(); }

  double now() const { return now_; }
  size_t queued() const { return queue_.size(); }
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

 private:
  struct QueuedEntry {
    ScheduledRun run;
    uint32_t bypass = 0;  ///< times a later-ordered run started first
  };
  /// One resource an active run holds, released at its own completion.
  struct Hold {
    size_t resource = 0;  ///< SlotLedger resource index
    uint64_t units = 0;   ///< slots on a device, or 1 lane
    /// start + this resource's duration; < 0 until Finish reports it.
    double completion = -1.0;
    bool released = false;
  };
  struct ActiveRun {
    uint64_t ticket = 0;
    uint64_t tenant = 0;
    std::vector<Hold> holds;  ///< every device in order, or the lane
    double start_time = 0.0;
    double completion = -1.0;  ///< full completion incl. the gather tail
  };

  /// QoS order: priority desc, deadline asc, ticket asc.
  static bool QosBefore(const ScheduledRun& a, const ScheduledRun& b);

  /// Index into queue_ of the run to start now, or -1 when none fits (or
  /// when the first non-fitting urgent run blocks backfill).
  int PickCandidate() const;
  /// Reserves and starts queue_[index]; maintains bypass counters.
  AdmissionDecision Start(size_t index);
  /// Retires the earliest pending (run, resource) completion event; the run
  /// leaves the active set when its last hold is freed.
  void PopEarliestCompletion();
  /// Folds one device release into the aggregate and per-device
  /// slot-second accounts (a lane holds no slots and adds nothing).
  void AccountRelease(const ActiveRun& run, const Hold& hold,
                      double held_until);

  SlotLedger ledger_;
  RunSchedulerOptions options_;
  double now_ = 0.0;
  std::vector<QueuedEntry> queue_;  // ticket (FIFO) order
  std::vector<ActiveRun> active_;
  uint64_t backfills_ = 0;
  std::map<uint64_t, double> slot_seconds_;
  std::map<uint64_t, std::vector<double>> slot_seconds_per_device_;
};

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_SCHEDULER_H_
