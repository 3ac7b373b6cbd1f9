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

/// \brief The admission ledger of an N-device group (N = 1 included): one
/// slot budget per device, reserved all or nothing.
///
/// Every admitted GPU run reserves its pool footprint (known before
/// execution from `RunPlan::total_slots`) on each device it scatters to,
/// and frees each device's share when that device's shard completes.
/// TryReserve never blocks and never oversubscribes: it checks every device
/// and the tenant's quota under one lock before applying anything, so a run
/// holds slots on all its devices or on none (partial holds would deadlock
/// admission: run A holding device 0 waiting for device 1, run B the
/// reverse). A run that does not fit is queued instead, which is how
/// admitted runs never need a mid-run EnsureCapacity growth.
///
/// A device capacity of 0 means unmetered: every share fits there (in-use
/// and peak are still tracked). Tenant quotas span the devices: a tenant's
/// quota bounds its reserved slots summed over all of them, so it stays
/// meaningful when the tenant's runs scatter across shards. Tenant 0 is the
/// untagged default.
class SlotLedger {
 public:
  /// One budget per device, `capacities[d]` slots on device d.
  explicit SlotLedger(std::vector<uint64_t> capacities);

  size_t num_devices() const { return devices_.size(); }

  /// Would TryReserve(slots, tenant) succeed right now? Read-only peek for
  /// admission policies that rank candidates before reserving.
  bool CanReserve(const std::vector<uint64_t>& slots,
                  uint64_t tenant = 0) const;
  /// Reserves slots[d] on every device d for `tenant`, all or nothing.
  /// `slots` holds one entry per device (0 reserves nothing there). False,
  /// and no state change, on a wrong arity, a device without room, or a
  /// tenant quota the total would exceed.
  bool TryReserve(const std::vector<uint64_t>& slots, uint64_t tenant = 0);
  /// Returns `slots` of `tenant`'s reservation on `device` only: a sharded
  /// run frees each device the moment that device's shard completes.
  /// Releasing more than is held clamps to zero (a caller bug, defended).
  void ReleaseOn(size_t device, uint64_t slots, uint64_t tenant = 0);
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

 private:
  struct DeviceState {
    uint64_t capacity = 0;  ///< 0 = unmetered
    uint64_t in_use = 0;
    uint64_t peak = 0;
  };
  struct TenantState {
    uint64_t quota = 0;  ///< 0 = unquotaed
    uint64_t in_use = 0;
  };

  /// Every device's capacity and the tenant's quota; caller holds mu_.
  bool FitsLocked(const std::vector<uint64_t>& slots, uint64_t tenant) const;

  mutable std::mutex mu_;
  std::vector<DeviceState> devices_;
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
  /// The run's reservation on each device of the group while resident: one
  /// entry per scheduler device (zero = the run does not touch that
  /// device).
  std::vector<uint64_t> device_slots;
  int32_t priority = 0;           ///< higher starts first
  double deadline = kNoDeadline;  ///< absolute simulated s; ties break EDF
  double submit_time = 0.0;       ///< stamped by Enqueue from the sim clock
  /// CPU-dispatched run: occupies one simulated CPU lane for its full
  /// duration and ZERO device slots (Enqueue zeroes device_slots). Lane
  /// runs never reserve against the ledger, so they overlap GPU device
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
/// SlotLedger of an N-device group (N = 1 included).
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
///      it and reports its measured per-device durations and its tail via
///      Finish (a CPU-lane run reports its one duration on every device
///      and no tail). Repeat until StartNext returns nullopt.
///   3. DrainActive() retires the remaining completions.
///
/// Ordering: priority desc, then deadline asc (EDF, kNoDeadline last), then
/// ticket asc (FIFO). Runs that do not fit are backfilled past, bounded by
/// the aging limit.
///
/// Reservations go through the scheduler's SlotLedger: a run holds slots on
/// all its devices or none, and per-tenant quotas bind across shards.
class RunScheduler {
 public:
  /// Scheduler over one slot budget per device, `device_capacities[d]`
  /// slots on device d (0 = unmetered).
  explicit RunScheduler(std::vector<uint64_t> device_capacities,
                        RunSchedulerOptions options = {})
      : ledger_(std::move(device_capacities)), options_(options) {}

  size_t num_devices() const { return ledger_.num_devices(); }
  /// The reservations of every admitted run; tenant quotas are set here.
  SlotLedger* ledger() { return &ledger_; }

  /// Queues a run. Its submit_time is stamped from the scheduler clock.
  /// Precondition (caller-validated): device_slots has one entry per
  /// device (lane runs excepted) and every entry fits its device empty and
  /// the tenant's quota, so every queued run can eventually start.
  void Enqueue(ScheduledRun run);

  /// Starts the next eligible run: reserves its footprint in the ledger
  /// and returns the admission decision. Advances the simulated
  /// clock through completion events (releasing their reservations) as
  /// needed to make room. Returns nullopt when the queue is empty, or when
  /// nothing queued can ever fit (a precondition violation).
  std::optional<AdmissionDecision> StartNext();

  /// Reports a started run's measured durations; must be called before the
  /// next StartNext (execution is serial). Device d's reservation becomes
  /// releasable at start + device_durations[d] (one entry per device;
  /// entries for devices the run holds no slots on count only toward its
  /// overall completion), and the run itself completes at
  /// start + max(device_durations) + tail_seconds: the scatter/gather
  /// barrier plus the merge tail. A CPU-lane run passes its duration on
  /// every device and no tail; its lane is held until that completion.
  void Finish(uint64_t ticket, const std::vector<double>& device_durations,
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
    /// < 0 until Finish reports durations.
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

  SlotLedger ledger_;
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
