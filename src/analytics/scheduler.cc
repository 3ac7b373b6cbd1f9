#include "analytics/scheduler.h"

#include <algorithm>

namespace gtadoc {

bool RunScheduler::QosBefore(const ScheduledRun& a, const ScheduledRun& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.ticket < b.ticket;
}

void RunScheduler::Enqueue(ScheduledRun run) {
  run.submit_time = now_;
  if (run.cpu_lane) {
    // CPU-lane runs hold one lane and ZERO device slots: no budget
    // reservation, no quota charge — the lane count is their only
    // admission constraint.
    run.footprint_slots = 0;
    run.device_slots.assign(num_devices(), 0);
  } else if (run.device_slots.empty()) {
    // A reservation described by one number lives on device 0.
    run.device_slots.assign(num_devices(), 0);
    run.device_slots[0] = run.footprint_slots;
  } else {
    run.device_slots.resize(num_devices(), 0);
    uint64_t total = 0;
    for (uint64_t s : run.device_slots) total += s;
    run.footprint_slots = total;
  }
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
            : group_.CanReserve(entry.run.device_slots, entry.run.tenant);
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
  // so this cannot fail. The group reservation is all-or-nothing: the run
  // holds slots on every device it scatters to, or on none. Lane runs hold
  // a lane instead — their device_slots are all zero.
  if (run.cpu_lane) {
    ++lanes_in_use_;
    peak_lanes_in_use_ = std::max(peak_lanes_in_use_, lanes_in_use_);
  } else {
    group_.TryReserve(run.device_slots, run.tenant);
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

void RunScheduler::FinishStarted(uint64_t ticket, double duration_seconds) {
  for (ActiveRun& run : active_) {
    if (run.ticket == ticket) {
      const double completion = run.start_time + duration_seconds;
      std::fill(run.device_completion.begin(), run.device_completion.end(),
                completion);
      run.completion = completion;
      return;
    }
  }
}

void RunScheduler::FinishSharded(uint64_t ticket,
                                 const std::vector<double>& device_durations,
                                 double gather_seconds) {
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
    run.completion = run.start_time + max_duration + gather_seconds;
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
  group_.ReleaseOn(dev_idx, run.device_slots[dev_idx], run.tenant);
  run.device_released[dev_idx] = true;
  AccountRelease(run, dev_idx, earliest);
  bool all_released = true;
  for (bool released : run.device_released) all_released &= released;
  if (all_released) {
    // Retiring the run advances the clock through its scatter/gather tail
    // (completion includes the corpus-order merge; for FinishStarted runs
    // it equals the release event just popped). A lane run frees its lane
    // here — the lane is held for the run's full duration.
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
