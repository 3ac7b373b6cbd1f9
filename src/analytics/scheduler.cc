#include "analytics/scheduler.h"

#include <algorithm>

namespace gtadoc {

SlotLedger::SlotLedger(std::vector<uint64_t> capacities)
    : devices_(capacities.size()) {
  for (size_t d = 0; d < capacities.size(); ++d) {
    devices_[d].capacity = capacities[d];
  }
}

bool SlotLedger::FitsLocked(const std::vector<uint64_t>& slots,
                            uint64_t tenant) const {
  if (slots.size() != devices_.size()) return false;
  uint64_t total = 0;
  for (size_t d = 0; d < slots.size(); ++d) {
    const DeviceState& device = devices_[d];
    if (device.capacity > 0 && (slots[d] > device.capacity ||
                                device.in_use > device.capacity - slots[d])) {
      return false;
    }
    total += slots[d];
  }
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.quota == 0) return true;
  const TenantState& state = it->second;
  return total <= state.quota && state.in_use <= state.quota - total;
}

bool SlotLedger::CanReserve(const std::vector<uint64_t>& slots,
                            uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FitsLocked(slots, tenant);
}

bool SlotLedger::TryReserve(const std::vector<uint64_t>& slots,
                            uint64_t tenant) {
  // Every device and the quota are checked before anything is applied, all
  // under the one lock: no partial hold to roll back, and two racing
  // reservations cannot both pass a check only one of them fits under.
  std::lock_guard<std::mutex> lock(mu_);
  if (!FitsLocked(slots, tenant)) return false;
  uint64_t total = 0;
  for (size_t d = 0; d < slots.size(); ++d) {
    DeviceState& device = devices_[d];
    device.in_use += slots[d];
    device.peak = std::max(device.peak, device.in_use);
    total += slots[d];
  }
  in_use_ += total;
  peak_ = std::max(peak_, in_use_);
  tenants_[tenant].in_use += total;
  return true;
}

void SlotLedger::ReleaseOn(size_t device, uint64_t slots, uint64_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (device >= devices_.size()) return;
  auto release = [slots](uint64_t* held) {
    *held = slots > *held ? 0 : *held - slots;
  };
  release(&devices_[device].in_use);
  release(&in_use_);
  release(&tenants_[tenant].in_use);
}

void SlotLedger::SetTenantQuota(uint64_t tenant, uint64_t quota_slots) {
  std::lock_guard<std::mutex> lock(mu_);
  tenants_[tenant].quota = quota_slots;
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

bool RunScheduler::QosBefore(const ScheduledRun& a, const ScheduledRun& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.ticket < b.ticket;
}

void RunScheduler::Enqueue(ScheduledRun run) {
  run.submit_time = now_;
  // CPU-lane runs hold one lane and ZERO device slots: no ledger
  // reservation, no quota charge — the lane count is their only admission
  // constraint.
  if (run.cpu_lane) run.device_slots.assign(num_devices(), 0);
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
    const bool fits =
        entry.run.cpu_lane
            ? lanes_in_use_ < options_.cpu_lanes
            : ledger_.CanReserve(entry.run.device_slots, entry.run.tenant);
    if (fits) return static_cast<int>(idx);
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
  // holds slots on every device it scatters to, or on none. Lane runs hold
  // a lane instead — their device_slots are all zero.
  if (run.cpu_lane) {
    ++lanes_in_use_;
    peak_lanes_in_use_ = std::max(peak_lanes_in_use_, lanes_in_use_);
  } else {
    ledger_.TryReserve(run.device_slots, run.tenant);
  }

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
  active.cpu_lane = run.cpu_lane;
  active.device_slots = run.device_slots;
  active.device_released.assign(run.device_slots.size(), false);
  active.device_completion.assign(run.device_slots.size(), -1.0);
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

void RunScheduler::Finish(uint64_t ticket,
                          const std::vector<double>& device_durations,
                          double tail_seconds) {
  for (ActiveRun& run : active_) {
    if (run.ticket != ticket) continue;
    double max_duration = 0.0;
    for (size_t d = 0; d < run.device_completion.size(); ++d) {
      const double duration =
          d < device_durations.size() ? device_durations[d] : 0.0;
      run.device_completion[d] = run.start_time + duration;
      max_duration = std::max(max_duration, duration);
    }
    // The run itself completes after its slowest shard plus the gather
    // (the cross-shard merge); each device is releasable at its own shard
    // completion — the per-device rolling window.
    run.completion = run.start_time + max_duration + tail_seconds;
    return;
  }
}

void RunScheduler::AccountRelease(const ActiveRun& run, size_t device,
                                  double held_until) {
  const double held = static_cast<double>(run.device_slots[device]) *
                      (held_until - run.start_time);
  slot_seconds_[run.tenant] += held;
  std::vector<double>& per_device = slot_seconds_per_device_[run.tenant];
  if (per_device.size() < num_devices()) per_device.resize(num_devices(), 0.0);
  per_device[device] += held;
}

void RunScheduler::PopEarliestCompletion() {
  if (active_.empty()) return;
  // The earliest pending (run, device) release event. A device whose shard
  // duration is unreported yet (completion < 0) is treated as completing at
  // its start.
  size_t run_idx = active_.size();
  size_t dev_idx = 0;
  double earliest = 0.0;
  for (size_t i = 0; i < active_.size(); ++i) {
    const ActiveRun& run = active_[i];
    for (size_t d = 0; d < run.device_slots.size(); ++d) {
      if (run.device_released[d]) continue;
      const double t = run.device_completion[d] < 0.0
                           ? run.start_time
                           : run.device_completion[d];
      if (run_idx == active_.size() || t < earliest) {
        run_idx = i;
        dev_idx = d;
        earliest = t;
      }
    }
  }
  if (run_idx == active_.size()) return;  // defensive: nothing pending
  ActiveRun& run = active_[run_idx];
  now_ = std::max(now_, earliest);
  ledger_.ReleaseOn(dev_idx, run.device_slots[dev_idx], run.tenant);
  run.device_released[dev_idx] = true;
  AccountRelease(run, dev_idx, earliest);
  bool all_released = true;
  for (bool released : run.device_released) all_released &= released;
  if (all_released) {
    // Retiring the run advances the clock through its scatter/gather tail
    // (completion includes the corpus-order merge; for a run without a
    // tail it equals the release event just popped). A lane run frees its
    // lane here — the lane is held for the run's full duration.
    now_ = std::max(now_, run.completion < 0.0 ? run.start_time
                                               : run.completion);
    if (run.cpu_lane && lanes_in_use_ > 0) --lanes_in_use_;
    active_.erase(active_.begin() + static_cast<ptrdiff_t>(run_idx));
  }
}

void RunScheduler::DrainActive() {
  while (!active_.empty()) PopEarliestCompletion();
}

}  // namespace gtadoc
