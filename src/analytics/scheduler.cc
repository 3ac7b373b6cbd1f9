#include "analytics/scheduler.h"

#include <algorithm>

namespace gtadoc {

SlotLedger::SlotLedger(std::vector<uint64_t> capacities, uint32_t lanes)
    : devices_(capacities.size()) {
  for (size_t d = 0; d < capacities.size(); ++d) {
    devices_[d].capacity = capacities[d];
  }
  lanes_.capacity = lanes;
}

std::optional<SlotLedger::Overrun> SlotLedger::OverrunLocked(
    const Reservation& reservation, uint64_t tenant, bool empty) const {
  using Limit = Overrun::Limit;
  // `request` more units fit `used` of `capacity` (compared without
  // overflow).
  auto fits = [empty](uint64_t used, uint64_t request, uint64_t capacity) {
    return request <= capacity && (empty ? 0 : used) <= capacity - request;
  };
  const std::vector<uint64_t>& slots = reservation.device_slots;
  // A reservation names one lane and no device, or every device and no
  // lane.
  if (reservation.lane ? !slots.empty() : slots.size() != devices_.size()) {
    return Overrun{Limit::kShape};
  }
  if (reservation.lane) {
    if (fits(lanes_.in_use, 1, lanes_.capacity)) return std::nullopt;
    return Overrun{Limit::kLane, 1, lanes_.capacity};
  }
  uint64_t total = 0;
  for (size_t d = 0; d < slots.size(); ++d) {
    const ResourceState& device = devices_[d];
    if (device.capacity > 0 &&
        !fits(device.in_use, slots[d], device.capacity)) {
      return Overrun{Limit::kDevice, slots[d], device.capacity};
    }
    total += slots[d];
  }
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.quota == 0) return std::nullopt;
  const TenantState& state = it->second;
  if (fits(state.in_use, total, state.quota)) return std::nullopt;
  return Overrun{Limit::kQuota, total, state.quota};
}

bool SlotLedger::CanReserve(const Reservation& reservation,
                            uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return !OverrunLocked(reservation, tenant, /*empty=*/false);
}

std::optional<SlotLedger::Overrun> SlotLedger::OverrunWhenEmpty(
    const Reservation& reservation, uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return OverrunLocked(reservation, tenant, /*empty=*/true);
}

bool SlotLedger::TryReserve(const Reservation& reservation, uint64_t tenant) {
  // Every device, the lanes and the quota are checked before anything is
  // applied, all under the one lock: no partial hold to roll back, and two
  // racing reservations cannot both pass a check only one of them fits
  // under.
  std::lock_guard<std::mutex> lock(mu_);
  if (OverrunLocked(reservation, tenant, /*empty=*/false)) return false;
  if (reservation.lane) {
    ++lanes_.in_use;
    lanes_.peak = std::max(lanes_.peak, lanes_.in_use);
    return true;
  }
  const std::vector<uint64_t>& slots = reservation.device_slots;
  uint64_t total = 0;
  for (size_t d = 0; d < slots.size(); ++d) {
    ResourceState& device = devices_[d];
    device.in_use += slots[d];
    device.peak = std::max(device.peak, device.in_use);
    total += slots[d];
  }
  in_use_ += total;
  peak_ = std::max(peak_, in_use_);
  tenants_[tenant].in_use += total;
  return true;
}

void SlotLedger::ReleaseOn(size_t resource, uint64_t units, uint64_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto release = [units](uint64_t* held) {
    *held = units > *held ? 0 : *held - units;
  };
  // Lanes are not slots: releasing one touches no slot total or quota.
  if (resource == lane_resource()) return release(&lanes_.in_use);
  if (resource > lane_resource()) return;
  release(&devices_[resource].in_use);
  release(&in_use_);
  release(&tenants_[tenant].in_use);
}

bool SlotLedger::SetTenantQuota(uint64_t tenant, uint64_t quota_slots) {
  std::lock_guard<std::mutex> lock(mu_);
  // The devices' summed capacity, saturating; an unmetered device bounds
  // nothing.
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  uint64_t capacity = 0;
  for (const ResourceState& device : devices_) {
    capacity += std::min(device.capacity == 0 ? max : device.capacity,
                         max - capacity);
  }
  if (quota_slots > capacity) return false;
  tenants_[tenant].quota = quota_slots;
  return true;
}

uint64_t SlotLedger::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

uint64_t SlotLedger::peak_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

uint64_t SlotLedger::in_use_on(size_t device) const {
  std::lock_guard<std::mutex> lock(mu_);
  return devices_.at(device).in_use;
}

uint64_t SlotLedger::peak_in_use_on(size_t device) const {
  std::lock_guard<std::mutex> lock(mu_);
  return devices_.at(device).peak;
}

uint64_t SlotLedger::tenant_in_use(uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.in_use;
}

uint64_t SlotLedger::lanes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.in_use;
}

uint64_t SlotLedger::peak_lanes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.peak;
}

bool RunScheduler::QosBefore(const ScheduledRun& a, const ScheduledRun& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.ticket < b.ticket;
}

void RunScheduler::Enqueue(ScheduledRun run) {
  run.submit_time = now_;
  queue_.push_back(QueuedEntry{run});
}

int RunScheduler::PickCandidate() const {
  if (queue_.empty()) return -1;
  // QoS view of the queue; with all-default priorities and no deadlines
  // this is exactly ticket (FIFO) order.
  std::vector<size_t> order(queue_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return QosBefore(queue_[a].run, queue_[b].run);
  });
  for (size_t idx : order) {
    const QueuedEntry& entry = queue_[idx];
    if (ledger_.CanReserve(entry.run.reservation, entry.run.tenant)) {
      return static_cast<int>(idx);
    }
    // Backfill is starvation-bounded: once a run has been bypassed
    // aging_limit times it is urgent, and nothing may start ahead of it.
    if (entry.bypass >= options_.aging_limit) return -1;
  }
  return -1;
}

AdmissionDecision RunScheduler::Start(size_t index) {
  const ScheduledRun run = queue_[index].run;
  // PickCandidate just saw the reservation fit; serving is single-threaded,
  // so this cannot fail. The ledger reservation is all-or-nothing: the run
  // holds every device it names, or its lane, or nothing.
  ledger_.TryReserve(run.reservation, run.tenant);

  AdmissionDecision decision;
  decision.ticket = run.ticket;
  decision.tenant = run.tenant;
  // A start ahead of any QoS-earlier queued run is a backfill; those
  // bypassed runs age toward urgency.
  for (QueuedEntry& other : queue_) {
    if (other.run.ticket == run.ticket) continue;
    if (QosBefore(other.run, run)) {
      ++other.bypass;
      decision.backfilled = true;
    }
  }
  if (decision.backfilled) ++backfills_;
  decision.start_time = now_;
  decision.queue_wait = now_ - run.submit_time;

  ActiveRun active;
  active.ticket = run.ticket;
  active.tenant = run.tenant;
  const std::vector<uint64_t>& slots = run.reservation.device_slots;
  for (size_t d = 0; d < slots.size(); ++d) {
    active.holds.push_back(Hold{d, slots[d]});
  }
  if (run.reservation.lane) {
    active.holds.push_back(Hold{ledger_.lane_resource(), 1});
  }
  active.start_time = now_;
  active_.push_back(std::move(active));
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(index));
  return decision;
}

std::optional<AdmissionDecision> RunScheduler::StartNext() {
  while (!queue_.empty()) {
    const int candidate = PickCandidate();
    if (candidate >= 0) return Start(static_cast<size_t>(candidate));
    if (active_.empty()) return std::nullopt;  // nothing queued can ever fit
    PopEarliestCompletion();
  }
  return std::nullopt;
}

void RunScheduler::Finish(uint64_t ticket, const std::vector<double>& durations,
                          double tail_seconds) {
  for (ActiveRun& run : active_) {
    if (run.ticket != ticket) continue;
    double max_duration = 0.0;
    for (size_t h = 0; h < run.holds.size(); ++h) {
      const double duration = h < durations.size() ? durations[h] : 0.0;
      run.holds[h].completion = run.start_time + duration;
      max_duration = std::max(max_duration, duration);
    }
    // The run itself completes after its slowest shard plus the gather
    // (the cross-shard merge); each resource is releasable at its own
    // completion — the per-resource rolling window.
    run.completion = run.start_time + max_duration + tail_seconds;
    return;
  }
}

void RunScheduler::PopEarliestCompletion() {
  if (active_.empty()) return;
  // The earliest pending (run, resource) release event. A hold whose
  // duration is unreported yet (completion < 0) is treated as completing at
  // its start.
  size_t run_idx = active_.size();
  size_t hold_idx = 0;
  double earliest = 0.0;
  for (size_t i = 0; i < active_.size(); ++i) {
    const ActiveRun& run = active_[i];
    for (size_t h = 0; h < run.holds.size(); ++h) {
      const Hold& hold = run.holds[h];
      if (hold.released) continue;
      const double t = hold.completion < 0.0 ? run.start_time
                                             : hold.completion;
      if (run_idx == active_.size() || t < earliest) {
        run_idx = i;
        hold_idx = h;
        earliest = t;
      }
    }
  }
  if (run_idx == active_.size()) return;  // defensive: nothing pending
  ActiveRun& run = active_[run_idx];
  Hold& hold = run.holds[hold_idx];
  now_ = std::max(now_, earliest);
  ledger_.ReleaseOn(hold.resource, hold.units, run.tenant);
  hold.released = true;
  // Slot-seconds accrue per device; a lane holds no slots and adds nothing.
  if (hold.resource < num_devices()) {
    std::vector<double>& held = slot_seconds_per_device_[run.tenant];
    held.resize(num_devices(), 0.0);
    held[hold.resource] +=
        static_cast<double>(hold.units) * (earliest - run.start_time);
  }
  bool all_released = true;
  for (const Hold& other : run.holds) all_released &= other.released;
  if (all_released) {
    // Retiring the run advances the clock through its scatter/gather tail
    // (completion includes the corpus-order merge; for a run without a
    // tail it equals the release event just popped).
    now_ = std::max(now_, run.completion < 0.0 ? run.start_time
                                               : run.completion);
    active_.erase(active_.begin() + static_cast<ptrdiff_t>(run_idx));
  }
}

void RunScheduler::DrainActive() {
  while (!active_.empty()) PopEarliestCompletion();
}

}  // namespace gtadoc
