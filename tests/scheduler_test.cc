#include "analytics/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/batch.h"
#include "analytics/server.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "serve_util.h"

namespace gtadoc {
namespace {

GTadocEngine::Options GpuOptions() {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;  // deterministic per-document runs
  return opt;
}

PartitionedCorpus MakeCorpus(uint32_t num_files, uint32_t num_documents,
                             uint64_t tokens = 6000, uint64_t seed = 7) {
  DatasetSpec spec = DatasetA();
  spec.num_files = num_files;
  spec.total_tokens = tokens;
  spec.vocabulary = 300;
  spec.seed = seed;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, num_documents);
  EXPECT_TRUE(part.ok()) << part.status().ToString();
  return std::move(*part);
}

MarkerCorpus MakeMarkerCorpus(uint32_t num_docs, uint32_t relevant,
                              uint32_t num_markers) {
  MarkerCorpusSpec spec;
  spec.num_docs = num_docs;
  spec.relevant = relevant;
  spec.num_markers = num_markers;
  auto built = BuildMarkerCorpus(spec);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

/// Drives a synthetic one-device workload through a RunScheduler the way
/// the serving layer does — serial execution, durations reported at each
/// start — and records the admission order plus the ledger occupancy seen
/// at every start event.
struct SyntheticDrive {
  std::vector<uint64_t> start_order;           ///< tickets, in start order
  std::map<uint64_t, AdmissionDecision> decisions;  ///< by ticket
  uint64_t peak_at_any_event = 0;
  /// Per tenant: the most slots it held at any start event.
  std::map<uint64_t, uint64_t> tenant_peak_at_any_event;
};

SyntheticDrive Drive(RunScheduler* scheduler,
                     const std::map<uint64_t, double>& durations) {
  SyntheticDrive out;
  const SlotLedger& ledger = *scheduler->ledger();
  while (auto decision = scheduler->StartNext()) {
    out.start_order.push_back(decision->ticket);
    out.decisions[decision->ticket] = *decision;
    out.peak_at_any_event = std::max(out.peak_at_any_event, ledger.in_use());
    uint64_t& tenant_peak = out.tenant_peak_at_any_event[decision->tenant];
    tenant_peak = std::max(tenant_peak, ledger.tenant_in_use(decision->tenant));
    scheduler->Finish(decision->ticket, {durations.at(decision->ticket)}, 0.0);
  }
  scheduler->DrainActive();
  return out;
}

/// A one-device run of `slots` slots.
ScheduledRun OneDeviceRun(uint64_t ticket, uint64_t slots) {
  ScheduledRun run;
  run.ticket = ticket;
  run.reservation.device_slots = {slots};
  return run;
}

// --------------------------------------------------------------------------
// Scheduler invariants (synthetic footprints and durations).
// --------------------------------------------------------------------------

TEST(RunSchedulerTest, BudgetNeverExceededAtAnyCompletionEvent) {
  RunScheduler scheduler({100});
  std::map<uint64_t, double> durations;
  // A mix that cannot all be resident at once: footprints sum to 260.
  const uint64_t footprints[] = {60, 40, 80, 30, 50};
  for (uint64_t t = 0; t < 5; ++t) {
    scheduler.Enqueue(OneDeviceRun(t, footprints[t]));
    durations[t] = 1.0 + static_cast<double>(t);
  }
  SyntheticDrive drive = Drive(&scheduler, durations);
  ASSERT_EQ(drive.start_order.size(), 5u);
  // The invariant, observed at every admission event and as the overall
  // reservation high-water mark.
  const SlotLedger& ledger = *scheduler.ledger();
  EXPECT_LE(drive.peak_at_any_event, 100u);
  EXPECT_LE(ledger.peak_in_use_on(0), 100u);
  EXPECT_EQ(ledger.in_use(), 0u) << "DrainActive must release everything";
  EXPECT_TRUE(scheduler.idle());
}

TEST(RunSchedulerTest, PerTenantQuotaRespectedUnderInterleaving) {
  RunScheduler scheduler({200});
  scheduler.ledger()->SetTenantQuota(1, 60);
  scheduler.ledger()->SetTenantQuota(2, 100);
  std::map<uint64_t, double> durations;
  // Tenant 1 submits three 40-slot runs (two would breach its 60-slot
  // quota); tenant 2 submits two 50-slot runs. The global budget could
  // hold everything at once — only the quotas force serialization.
  struct Spec {
    uint64_t tenant;
    uint64_t footprint;
  };
  const Spec specs[] = {{1, 40}, {1, 40}, {2, 50}, {1, 40}, {2, 50}};
  for (uint64_t t = 0; t < 5; ++t) {
    ScheduledRun run = OneDeviceRun(t, specs[t].footprint);
    run.tenant = specs[t].tenant;
    scheduler.Enqueue(run);
    durations[t] = 2.0;
  }
  SyntheticDrive drive = Drive(&scheduler, durations);
  ASSERT_EQ(drive.start_order.size(), 5u);
  EXPECT_LE(drive.tenant_peak_at_any_event[1], 60u);
  EXPECT_LE(drive.tenant_peak_at_any_event[2], 100u);
  // Tenant 2's second run backfilled past tenant 1's quota-blocked runs:
  // the quota bounds the tenant, not the device.
  EXPECT_GT(scheduler.backfills(), 0u);
}

TEST(RunSchedulerTest, AgingAdmitsStarvedLargeRunUnderContinuousBackfill) {
  RunSchedulerOptions opt;
  opt.aging_limit = 4;
  RunScheduler scheduler({100}, opt);
  std::map<uint64_t, double> durations;
  // Ticket 0: a small run that is resident when the full-budget run (ticket
  // 1) arrives. Tickets 2..21: a continuous stream of small runs that all
  // fit next to each other — without aging, they could backfill forever
  // and ticket 1 would starve.
  auto enqueue = [&](uint64_t ticket, uint64_t footprint, double duration) {
    scheduler.Enqueue(OneDeviceRun(ticket, footprint));
    durations[ticket] = duration;
  };
  enqueue(0, 50, 10.0);
  enqueue(1, 100, 5.0);  // needs the whole device
  for (uint64_t t = 2; t < 22; ++t) enqueue(t, 50, 10.0);

  SyntheticDrive drive = Drive(&scheduler, durations);
  ASSERT_EQ(drive.start_order.size(), 22u);
  const auto it =
      std::find(drive.start_order.begin(), drive.start_order.end(), 1u);
  ASSERT_NE(it, drive.start_order.end()) << "the large run never started";
  const size_t starts_before_large =
      static_cast<size_t>(it - drive.start_order.begin());
  // The aging bound: after aging_limit bypasses the large run is urgent and
  // nothing may start ahead of it, so at most ticket 0 plus aging_limit
  // backfills precede it — not the whole small-run stream.
  EXPECT_LE(starts_before_large, 1u + opt.aging_limit);
  EXPECT_LE(scheduler.ledger()->peak_in_use_on(0), 100u);
}

TEST(RunSchedulerTest, DeadlinesOrderStartsEarliestFirst) {
  RunScheduler scheduler({100});
  std::map<uint64_t, double> durations;
  // Every run needs the whole device, so starts serialize and the order is
  // pure QoS: equal priority, EDF by deadline, submission order last.
  const double deadlines[] = {40.0, 10.0, 30.0, 20.0, kNoDeadline};
  for (uint64_t t = 0; t < 5; ++t) {
    ScheduledRun run = OneDeviceRun(t, 100);
    run.deadline = deadlines[t];
    scheduler.Enqueue(run);
    durations[t] = 1.0;
  }
  SyntheticDrive drive = Drive(&scheduler, durations);
  EXPECT_EQ(drive.start_order, (std::vector<uint64_t>{1, 3, 2, 0, 4}))
      << "EDF within a priority class; no-deadline runs go last";
}

TEST(RunSchedulerTest, PriorityOutranksDeadlineAndSubmissionOrder) {
  RunScheduler scheduler({100});
  std::map<uint64_t, double> durations;
  struct Spec {
    int32_t priority;
    double deadline;
  };
  const Spec specs[] = {{0, 5.0}, {1, kNoDeadline}, {1, 8.0}, {0, 2.0}};
  for (uint64_t t = 0; t < 4; ++t) {
    ScheduledRun run = OneDeviceRun(t, 100);
    run.priority = specs[t].priority;
    run.deadline = specs[t].deadline;
    scheduler.Enqueue(run);
    durations[t] = 1.0;
  }
  SyntheticDrive drive = Drive(&scheduler, durations);
  EXPECT_EQ(drive.start_order, (std::vector<uint64_t>{2, 1, 3, 0}));
}

// CPU lanes are a ledger resource beside the device slots: a lane run
// reserves one lane and no slot, so lane runs overlap device runs, bind only
// on the lane capacity, and leave slot totals, quotas and slot-seconds as
// the device runs alone leave them.
TEST(RunSchedulerTest, LaneRunsOverlapDeviceRunsAndHoldNoSlots) {
  RunSchedulerOptions options;
  options.cpu_lanes = 2;
  RunScheduler scheduler({100, 100, 100, 100}, options);
  SlotLedger& ledger = *scheduler.ledger();
  ledger.SetTenantQuota(1, 100);

  // Two device runs of tenant 1, each its whole quota, so the second waits
  // for the first; then five lane runs of the same tenant. Durations are
  // one per held resource: every device for a device run, the lane for a
  // lane run.
  std::map<uint64_t, std::vector<double>> durations;
  ScheduledRun first;
  first.ticket = 0;
  first.tenant = 1;
  first.reservation.device_slots = {60, 40, 0, 0};
  durations[0] = {10.0, 8.0, 0.0, 0.0};
  ScheduledRun second = first;
  second.ticket = 1;
  second.reservation.device_slots = {0, 0, 50, 50};
  durations[1] = {0.0, 0.0, 4.0, 2.0};
  scheduler.Enqueue(first);
  scheduler.Enqueue(second);
  const double lane_seconds[] = {3.0, 5.0, 3.0, 1.0, 2.0};
  for (uint64_t t = 2; t < 7; ++t) {
    ScheduledRun lane;
    lane.ticket = t;
    lane.tenant = 1;
    lane.reservation.lane = true;
    scheduler.Enqueue(lane);
    durations[t] = {lane_seconds[t - 2]};
  }

  std::map<uint64_t, double> start;
  while (auto decision = scheduler.StartNext()) {
    start[decision->ticket] = decision->start_time;
    EXPECT_LE(ledger.lanes_in_use(), 2u);
    if (decision->ticket >= 2) {
      // The first run holds its devices and the tenant's whole quota at
      // every lane start, and the lane runs add nothing to either.
      EXPECT_EQ(ledger.in_use(), 100u) << "ticket " << decision->ticket;
      EXPECT_EQ(ledger.tenant_in_use(1), 100u) << "ticket " << decision->ticket;
    }
    scheduler.Finish(decision->ticket, durations.at(decision->ticket), 0.0);
  }
  scheduler.DrainActive();

  ASSERT_EQ(start.size(), 7u);
  // Lane runs start beside the first device run, and each retires at
  // exactly its start plus its one duration, which is when the next
  // queued lane run starts.
  EXPECT_EQ(start[2], 0.0);
  EXPECT_EQ(start[3], 0.0);
  EXPECT_EQ(start[4], start[2] + lane_seconds[0]);
  EXPECT_EQ(start[5], start[3] + lane_seconds[1]);
  EXPECT_EQ(start[6], start[4] + lane_seconds[2]);
  EXPECT_EQ(start[1], 10.0) << "the quota-bound run waits for the first";
  EXPECT_EQ(scheduler.now(), 14.0);
  EXPECT_EQ(ledger.peak_lanes_in_use(), 2u);
  EXPECT_EQ(ledger.lanes_in_use(), 0u);
  EXPECT_EQ(ledger.in_use(), 0u);
  EXPECT_EQ(ledger.peak_in_use(), 100u);
  // Slot-seconds are the device runs' alone: 60 x 10 + 40 x 8 + 50 x 4 +
  // 50 x 2 over the four devices.
  EXPECT_EQ(scheduler.slot_seconds_per_device().at(1),
            (std::vector<double>{600.0, 320.0, 200.0, 100.0}));
}

// --------------------------------------------------------------------------
// SlotLedger: one device budget per device, all-or-nothing reservations,
// tenant quotas spanning devices.
// --------------------------------------------------------------------------

TEST(SlotBudgetTest, ReserveReleasePeak) {
  SlotLedger ledger({100});
  EXPECT_TRUE(ledger.TryReserve({{60}}));
  EXPECT_TRUE(ledger.TryReserve({{40}}));
  EXPECT_FALSE(ledger.TryReserve({{1}}));  // full: no oversubscription
  EXPECT_EQ(ledger.in_use_on(0), 100u);
  ledger.ReleaseOn(0, 40);
  EXPECT_EQ(ledger.in_use_on(0), 60u);
  EXPECT_TRUE(ledger.TryReserve({{40}}));
  EXPECT_EQ(ledger.peak_in_use_on(0), 100u);
  EXPECT_FALSE(ledger.TryReserve({{200}}));  // larger than the whole budget
}

TEST(SlotBudgetTest, LanesBindButAreNotSlots) {
  SlotLedger ledger({4, 4}, 1);
  ledger.SetTenantQuota(1, 2);
  Reservation lane;
  lane.lane = true;
  EXPECT_TRUE(ledger.TryReserve(lane, 1));
  EXPECT_EQ(ledger.lanes_in_use(), 1u);
  EXPECT_EQ(ledger.in_use(), 0u);
  EXPECT_EQ(ledger.tenant_in_use(1), 0u);
  EXPECT_FALSE(ledger.CanReserve(lane, 2)) << "the one lane is held";
  EXPECT_TRUE(ledger.TryReserve({{2, 0}}, 1)) << "the lane took no quota";

  // A reservation names every device or one lane: not some devices, not
  // both, and never nothing at all.
  ledger.ReleaseOn(ledger.lane_resource(), 1, 1);
  EXPECT_FALSE(ledger.CanReserve(Reservation{}));
  EXPECT_FALSE(ledger.CanReserve({{1}, false}));
  EXPECT_FALSE(ledger.CanReserve({{1, 0}, true}));
  EXPECT_TRUE(ledger.CanReserve(lane));
  EXPECT_TRUE(ledger.TryReserve(lane, 1));

  ledger.ReleaseOn(ledger.lane_resource(), 1, 1);
  EXPECT_EQ(ledger.lanes_in_use(), 0u);
  EXPECT_EQ(ledger.tenant_in_use(1), 2u);
  EXPECT_EQ(ledger.peak_lanes_in_use(), 1u);

  SlotLedger no_lanes({4});
  EXPECT_FALSE(no_lanes.CanReserve(lane)) << "0 lanes means none";
}

// One limit check answers both "does it fit now?" and "could it ever fit?",
// and reports the first overrun: devices in order, then the tenant's quota.
TEST(SlotBudgetTest, OverrunsReportDevicesBeforeTheQuota) {
  using Limit = SlotLedger::Overrun::Limit;
  SlotLedger ledger({10, 20});
  ledger.SetTenantQuota(1, 15);

  auto both = ledger.OverrunWhenEmpty({{5, 21}}, 1);
  ASSERT_TRUE(both.has_value()) << "over device 1 and the quota";
  EXPECT_EQ(both->limit, Limit::kDevice);
  EXPECT_EQ(both->requested, 21u);
  EXPECT_EQ(both->capacity, 20u);
  auto first = ledger.OverrunWhenEmpty({{11, 21}}, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->requested, 11u) << "device 0 is checked first";
  EXPECT_EQ(first->capacity, 10u);

  auto quota = ledger.OverrunWhenEmpty({{10, 6}}, 1);
  ASSERT_TRUE(quota.has_value()) << "each device fits, the total does not";
  EXPECT_EQ(quota->limit, Limit::kQuota);
  EXPECT_EQ(quota->requested, 16u);
  EXPECT_EQ(quota->capacity, 15u);
  EXPECT_FALSE(ledger.OverrunWhenEmpty({{10, 6}}, 2)) << "tenant 2 is free";

  // What is held counts now, never on an empty ledger.
  ASSERT_TRUE(ledger.TryReserve({{10, 0}}, 2));
  EXPECT_FALSE(ledger.CanReserve({{1, 0}}, 1));
  EXPECT_FALSE(ledger.OverrunWhenEmpty({{1, 0}}, 1));

  auto shape = ledger.OverrunWhenEmpty({{1}});
  ASSERT_TRUE(shape.has_value());
  EXPECT_EQ(shape->limit, Limit::kShape);
}

TEST(SlotBudgetTest, UnmeteredDeviceNeverOverruns) {
  SlotLedger ledger({0, 4});
  const uint64_t huge = 1ull << 62;
  EXPECT_FALSE(ledger.OverrunWhenEmpty({{huge, 4}}));
  ASSERT_TRUE(ledger.TryReserve({{huge, 0}}));
  EXPECT_TRUE(ledger.CanReserve({{huge, 4}})) << "held slots never fill it";
  auto metered = ledger.OverrunWhenEmpty({{huge, 5}});
  ASSERT_TRUE(metered.has_value());
  EXPECT_EQ(metered->limit, SlotLedger::Overrun::Limit::kDevice);
  EXPECT_EQ(metered->capacity, 4u);
}

TEST(SlotBudgetTest, LaneFitsAnEmptyLedgerExactlyWhenThereAreLanes) {
  Reservation lane;
  lane.lane = true;
  SlotLedger none({4});
  auto overrun = none.OverrunWhenEmpty(lane);
  ASSERT_TRUE(overrun.has_value());
  EXPECT_EQ(overrun->limit, SlotLedger::Overrun::Limit::kLane);
  EXPECT_EQ(overrun->capacity, 0u);

  SlotLedger one({4}, 1);
  EXPECT_FALSE(one.OverrunWhenEmpty(lane));
  ASSERT_TRUE(one.TryReserve(lane));
  EXPECT_FALSE(one.CanReserve(lane)) << "the one lane is held";
  EXPECT_FALSE(one.OverrunWhenEmpty(lane)) << "but it fits once drained";
}

// A quota above the devices' summed capacity could never be used; the sum
// saturates instead of wrapping, and an unmetered device bounds nothing.
TEST(SlotBudgetTest, QuotaIsBoundedByTheSummedCapacity) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  SlotLedger wide({1ull << 62, 1ull << 62, 1ull << 62, 1ull << 62});
  EXPECT_TRUE(wide.SetTenantQuota(1, 100));
  EXPECT_TRUE(wide.SetTenantQuota(1, max));

  SlotLedger ledger({10, 20});
  EXPECT_TRUE(ledger.SetTenantQuota(1, 20));
  EXPECT_FALSE(ledger.SetTenantQuota(1, 31));
  EXPECT_TRUE(ledger.OverrunWhenEmpty({{10, 20}}, 1)) << "quota still 20";
  EXPECT_TRUE(ledger.SetTenantQuota(1, 30));
  EXPECT_FALSE(ledger.OverrunWhenEmpty({{10, 20}}, 1));

  SlotLedger unmetered({0, 10});
  EXPECT_TRUE(unmetered.SetTenantQuota(1, max));
}

TEST(SlotBudgetTest, ZeroCapacityIsUnmetered) {
  SlotLedger ledger({0});
  EXPECT_TRUE(ledger.TryReserve({{1ull << 40}}));
  EXPECT_EQ(ledger.peak_in_use_on(0), 1ull << 40);
  EXPECT_EQ(ledger.peak_in_use(), 1ull << 40);
}

TEST(SlotBudgetOwnerTest, QuotaBindsAtomicallyWithCapacity) {
  SlotLedger ledger({100});
  ledger.SetTenantQuota(1, 30);
  EXPECT_TRUE(ledger.TryReserve({{30}}, 1));
  EXPECT_FALSE(ledger.TryReserve({{1}}, 1)) << "tenant quota full";
  EXPECT_TRUE(ledger.TryReserve({{60}}, 2)) << "other tenants are not bound";
  EXPECT_FALSE(ledger.TryReserve({{20}}, 2)) << "device capacity still binds";
  EXPECT_EQ(ledger.tenant_in_use(1), 30u);
  EXPECT_EQ(ledger.tenant_in_use(2), 60u);
  ledger.ReleaseOn(0, 30, 1);
  EXPECT_EQ(ledger.tenant_in_use(1), 0u);
  EXPECT_EQ(ledger.in_use(), 60u);
  EXPECT_EQ(ledger.peak_in_use(), 90u);
  // Untagged calls reserve for the default tenant 0.
  EXPECT_TRUE(ledger.TryReserve({{40}}));
  EXPECT_EQ(ledger.tenant_in_use(0), 40u);
}

TEST(SlotBudgetGroupTest, AllOrNothingRollsBackOnMemberRefusal) {
  SlotLedger ledger({10, 10});

  ASSERT_TRUE(ledger.TryReserve({{2, 8}}));
  EXPECT_EQ(ledger.in_use(), 10u);

  // Device 0 would fit (2+5 <= 10) but device 1 refuses (8+5 > 10): the
  // reservation must fail WITHOUT leaving device 0 partially held.
  EXPECT_FALSE(ledger.CanReserve({{5, 5}}));
  EXPECT_FALSE(ledger.TryReserve({{5, 5}}));
  EXPECT_EQ(ledger.in_use_on(0), 2u);
  EXPECT_EQ(ledger.in_use_on(1), 8u);
  EXPECT_EQ(ledger.in_use(), 10u);
  EXPECT_EQ(ledger.peak_in_use(), 10u);

  ledger.ReleaseOn(0, 2);
  ledger.ReleaseOn(1, 8);
  EXPECT_EQ(ledger.in_use_on(0), 0u);
  EXPECT_EQ(ledger.in_use_on(1), 0u);
  EXPECT_EQ(ledger.in_use(), 0u);
  EXPECT_TRUE(ledger.TryReserve({{5, 5}}));
}

TEST(SlotBudgetGroupTest, ZeroEntriesAndSizeMismatch) {
  SlotLedger ledger({4, 4});

  // Zero entries reserve nothing on that device.
  ASSERT_TRUE(ledger.TryReserve({{0, 3}}));
  EXPECT_EQ(ledger.in_use_on(0), 0u);
  EXPECT_EQ(ledger.in_use_on(1), 3u);

  // A wrong-arity request is refused outright, no state change.
  EXPECT_FALSE(ledger.TryReserve({{1}}));
  EXPECT_FALSE(ledger.CanReserve({{1, 1, 1}}));
  EXPECT_EQ(ledger.in_use(), 3u);
}

TEST(SlotBudgetGroupTest, OwnerQuotaSpansShards) {
  SlotLedger ledger({100, 100});
  ledger.SetTenantQuota(1, 50);

  // 30 + 10 = 40 of 50: fits.
  ASSERT_TRUE(ledger.TryReserve({{30, 10}}, 1));
  // Each device individually has room, but the total over devices
  // (40 + 20 = 60) exceeds the tenant's cross-shard quota.
  EXPECT_FALSE(ledger.CanReserve({{10, 10}}, 1));
  EXPECT_FALSE(ledger.TryReserve({{10, 10}}, 1));
  EXPECT_EQ(ledger.tenant_in_use(1), 40u);
  // Another tenant is not bound by tenant 1's quota.
  EXPECT_TRUE(ledger.TryReserve({{10, 10}}, 2));

  // Per-device rolling release: freeing one device's share re-opens the
  // quota headroom.
  ledger.ReleaseOn(0, 30, 1);
  EXPECT_EQ(ledger.tenant_in_use(1), 10u);
  EXPECT_TRUE(ledger.TryReserve({{10, 10}}, 1));
  EXPECT_EQ(ledger.tenant_in_use(1), 30u);
}

TEST(SlotBudgetGroupTest, NoDeadlockUnderInterleavedReservations) {
  // Three tenants repeatedly grab opposite-skew reservations across the
  // same two devices — the classic hold-and-wait shape. TryReserve never
  // blocks and checks every device before applying anything, so this must
  // always run to completion with no device ever oversubscribed.
  SlotLedger ledger({10, 10});

  std::atomic<uint64_t> successes{0};
  std::atomic<bool> overcommitted{false};
  auto worker = [&](std::vector<uint64_t> slots, uint64_t tenant) {
    for (int i = 0; i < 20000; ++i) {
      if (ledger.TryReserve({slots}, tenant)) {
        if (ledger.in_use_on(0) > 10 || ledger.in_use_on(1) > 10) {
          overcommitted = true;
        }
        ++successes;
        for (size_t d = 0; d < slots.size(); ++d) {
          ledger.ReleaseOn(d, slots[d], tenant);
        }
      }
    }
  };
  std::thread t1(worker, std::vector<uint64_t>{6, 4}, 1);
  std::thread t2(worker, std::vector<uint64_t>{4, 6}, 2);
  std::thread t3(worker, std::vector<uint64_t>{10, 10}, 3);
  t1.join();
  t2.join();
  t3.join();

  EXPECT_GT(successes.load(), 0u);
  EXPECT_FALSE(overcommitted.load());
  EXPECT_EQ(ledger.in_use_on(0), 0u);
  EXPECT_EQ(ledger.in_use_on(1), 0u);
  EXPECT_EQ(ledger.in_use(), 0u);
  EXPECT_LE(ledger.peak_in_use_on(0), 10u);
  EXPECT_LE(ledger.peak_in_use_on(1), 10u);
  EXPECT_LE(ledger.peak_in_use(), 20u);
}

// --------------------------------------------------------------------------
// The tenant serving API, end to end.
// --------------------------------------------------------------------------

TEST(TenantServingTest, RollingServeIsBitIdenticalToSerialRunsPerTicket) {
  PartitionedCorpus corpus = MakeCorpus(16, 4);
  const std::vector<Task> tasks = {Task::kWordCount, Task::kInvertedIndex,
                                   Task::kTermVector, Task::kSort,
                                   Task::kInvertedIndex, Task::kWordCount};

  // A budget that cannot hold every run at once, so rolling admission
  // makes real start/backfill decisions.
  CorpusServer::Options sizing;
  sizing.engine = GpuOptions();
  auto sizer = CorpusServer::Create(&corpus, sizing);
  ASSERT_TRUE(sizer.ok());
  auto sizing_tenant = (*sizer)->OpenTenant({});
  ASSERT_TRUE(sizing_tenant.ok());
  uint64_t max_fp = 0;
  for (Task t : tasks) {
    CorpusServer::RunRequest req;
    req.task = t;
    auto submitted = Admit(*sizing_tenant, req);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    max_fp = std::max(max_fp, submitted->admission->footprint_slots);
  }
  CorpusServer::Options opt = sizing;
  opt.device_slot_budget = max_fp + max_fp / 2;

  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());
  std::vector<CorpusServer::RunTicket> tickets;
  for (Task t : tasks) {
    CorpusServer::RunRequest req;
    req.task = t;
    auto submitted = Admit(*tenant, req);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    tickets.push_back(*submitted->ticket);
  }
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());

  for (size_t i = 0; i < tickets.size(); ++i) {
    const CorpusServer::ServedRun* peeked = tickets[i].TryGet();
    ASSERT_NE(peeked, nullptr) << "ticket " << i << " not served";
    // Bit-identity regardless of admission order: every run's output is
    // the serial BatchEngine result of its task.
    BatchEngine::Options bopt;
    bopt.engine = GpuOptions();
    auto batch = BatchEngine::Create(&corpus, bopt);
    ASSERT_TRUE(batch.ok());
    auto serial = (*batch)->Run(tasks[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_TRUE(peeked->batch.merged.SameAs(serial->merged))
        << TaskName(tasks[i]);
    ASSERT_EQ(peeked->batch.documents.size(), serial->documents.size());
    for (size_t d = 0; d < peeked->batch.documents.size(); ++d) {
      EXPECT_TRUE(peeked->batch.documents[d].result.SameAs(
          serial->documents[d].result))
          << TaskName(tasks[i]) << " doc " << d;
    }
    // Await moves the result out; a second Await is NotFound.
    auto awaited = tickets[i].Await();
    ASSERT_TRUE(awaited.ok());
    EXPECT_EQ(tickets[i].TryGet(), nullptr);
    EXPECT_TRUE(tickets[i].Await().status().IsNotFound());
  }

  // Admission held the budget, and the budget provably bound.
  const CorpusServer::Stats& stats = (*server)->stats();
  EXPECT_LE(stats.peak_admitted_slots, opt.device_slot_budget);
  EXPECT_GT(stats.queue_wait_seconds, 0.0);
}

TEST(TenantServingTest, AwaitServesJustFarEnoughAndStatsTrackTenants) {
  PartitionedCorpus corpus = MakeCorpus(12, 3);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());

  CorpusServer::TenantOptions topt;
  topt.name = "analytics-team";
  auto tenant = (*server)->OpenTenant(topt);
  ASSERT_TRUE(tenant.ok());
  EXPECT_EQ(tenant->name(), "analytics-team");

  CorpusServer::RunRequest first;
  first.task = Task::kWordCount;
  CorpusServer::RunRequest second;
  second.task = Task::kInvertedIndex;
  auto submitted_first = tenant->Submit(first);
  auto submitted_second = tenant->Submit(second);
  ASSERT_TRUE(submitted_first.ok());
  ASSERT_TRUE(submitted_second.ok());
  ASSERT_TRUE(submitted_first->admitted());
  EXPECT_EQ(submitted_first->admission->tenant, tenant->id());
  EXPECT_EQ((*server)->queued(), 2u);

  // Await the FIRST ticket: the serve loop stops once it completes, so the
  // second run must still be queued.
  auto first_run = submitted_first->ticket->Await();
  ASSERT_TRUE(first_run.ok()) << first_run.status().ToString();
  EXPECT_EQ(first_run->admission.ticket, submitted_first->admission->ticket);
  EXPECT_EQ((*server)->queued(), 1u);
  EXPECT_EQ(submitted_second->ticket->TryGet(), nullptr);

  ASSERT_TRUE((*server)->ServeUntilIdle().ok());
  EXPECT_EQ((*server)->queued(), 0u);
  ASSERT_NE(submitted_second->ticket->TryGet(), nullptr);

  const CorpusServer::Stats& stats = (*server)->stats();
  auto it = stats.tenants.find(tenant->id());
  ASSERT_NE(it, stats.tenants.end());
  EXPECT_EQ(it->second.name, "analytics-team");
  EXPECT_EQ(it->second.submitted, 2u);
  EXPECT_EQ(it->second.served, 2u);
  EXPECT_GT(it->second.slot_seconds_held, 0.0);
}

TEST(TenantServingTest, RejectionReasonsAreStructured) {
  PartitionedCorpus corpus = MakeCorpus(8, 2);

  // Sizing: learn a real footprint so the quota can sit below it while the
  // budget sits above it.
  CorpusServer::Options sizing;
  sizing.engine = GpuOptions();
  auto sizer = CorpusServer::Create(&corpus, sizing);
  ASSERT_TRUE(sizer.ok());
  auto sizing_tenant = (*sizer)->OpenTenant({});
  ASSERT_TRUE(sizing_tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kWordCount;
  auto probed = Admit(*sizing_tenant, req);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  const uint64_t footprint = probed->admission->footprint_slots;
  ASSERT_GT(footprint, 2u);

  CorpusServer::Options opt = sizing;
  opt.device_slot_budget = footprint;  // the run fits the budget exactly
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());

  // Over-quota: the tenant's quota is below the run's footprint.
  CorpusServer::TenantOptions small;
  small.name = "small";
  small.slot_quota = footprint - 1;
  auto tenant = (*server)->OpenTenant(small);
  ASSERT_TRUE(tenant.ok());
  auto over_quota = tenant->Submit(req);
  ASSERT_TRUE(over_quota.ok());
  ASSERT_FALSE(over_quota->admitted());
  EXPECT_EQ(over_quota->rejection->reason,
            CorpusServer::Rejection::Reason::kOverQuota);
  EXPECT_EQ(over_quota->rejection->requested_slots, footprint);
  EXPECT_EQ(over_quota->rejection->limit_slots, footprint - 1);

  // Malformed: a negative deadline is a structured refusal, not a crash
  // and not an opaque Status.
  CorpusServer::RunOptions bad;
  bad.deadline_seconds = -1.0;
  auto malformed = tenant->Submit(req, bad);
  ASSERT_TRUE(malformed.ok());
  ASSERT_FALSE(malformed->admitted());
  EXPECT_EQ(malformed->rejection->reason,
            CorpusServer::Rejection::Reason::kMalformed);

  // Over-budget: a budget below the footprint refuses any tenant.
  CorpusServer::Options tiny = sizing;
  tiny.device_slot_budget = footprint - 1;
  auto tiny_server = CorpusServer::Create(&corpus, tiny);
  ASSERT_TRUE(tiny_server.ok());
  auto any = (*tiny_server)->OpenTenant({});
  ASSERT_TRUE(any.ok());
  auto over_budget = any->Submit(req);
  ASSERT_TRUE(over_budget.ok());
  ASSERT_FALSE(over_budget->admitted());
  EXPECT_EQ(over_budget->rejection->reason,
            CorpusServer::Rejection::Reason::kOverBudget);
  EXPECT_EQ(over_budget->rejection->requested_slots, footprint);
  EXPECT_EQ(over_budget->rejection->limit_slots, footprint - 1);

  // A quota no budget could honor is refused at OpenTenant.
  CorpusServer::TenantOptions oversized;
  oversized.slot_quota = footprint + 1;
  EXPECT_FALSE((*tiny_server)->OpenTenant(oversized).ok());

  // An unknown task is a genuine NotFound, not a policy refusal.
  CorpusServer::RunRequest unknown;
  unknown.task = static_cast<Task>(987654);
  EXPECT_TRUE(tenant->Submit(unknown).status().IsNotFound());

  // Rejected runs were never queued; the structured refusals were counted.
  EXPECT_EQ((*server)->queued(), 0u);
  EXPECT_EQ((*server)->stats().rejected, 2u);
  EXPECT_EQ((*server)->stats().submitted, 0u);
}

TEST(TenantServingTest, PriorityReordersRollingStartsAcrossTenants) {
  PartitionedCorpus corpus = MakeCorpus(16, 4);

  CorpusServer::Options sizing;
  sizing.engine = GpuOptions();
  auto sizer = CorpusServer::Create(&corpus, sizing);
  ASSERT_TRUE(sizer.ok());
  auto sizing_tenant = (*sizer)->OpenTenant({});
  ASSERT_TRUE(sizing_tenant.ok());
  CorpusServer::RunRequest req;
  req.task = Task::kInvertedIndex;
  auto probed = Admit(*sizing_tenant, req);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();

  // The budget admits exactly one run at a time, so starts serialize and
  // the order is pure QoS.
  CorpusServer::Options opt = sizing;
  opt.device_slot_budget = probed->admission->footprint_slots;
  auto server = CorpusServer::Create(&corpus, opt);
  ASSERT_TRUE(server.ok());
  CorpusServer::TenantOptions batch_opt;
  batch_opt.name = "batch";
  auto batch = (*server)->OpenTenant(batch_opt);
  CorpusServer::TenantOptions urgent_opt;
  urgent_opt.name = "interactive";
  urgent_opt.default_priority = 5;
  auto interactive = (*server)->OpenTenant(urgent_opt);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(interactive.ok());

  auto low_a = batch->Submit(req);
  auto low_b = batch->Submit(req);
  auto high = interactive->Submit(req);  // submitted last, starts first
  ASSERT_TRUE(low_a.ok() && low_b.ok() && high.ok());
  ASSERT_TRUE(low_a->admitted() && low_b->admitted() && high->admitted());
  ASSERT_TRUE((*server)->ServeUntilIdle().ok());

  const CorpusServer::ServedRun* high_run = high->ticket->TryGet();
  const CorpusServer::ServedRun* low_a_run = low_a->ticket->TryGet();
  const CorpusServer::ServedRun* low_b_run = low_b->ticket->TryGet();
  ASSERT_NE(high_run, nullptr);
  ASSERT_NE(low_a_run, nullptr);
  ASSERT_NE(low_b_run, nullptr);
  EXPECT_LT(high_run->start_seconds, low_b_run->start_seconds)
      << "priority 5 must start before the second batch run";
  EXPECT_EQ(high_run->queue_wait_seconds, 0.0)
      << "the high-priority run starts at its submit time";
  // The results are still bit-identical per run: scheduling moved starts,
  // not outputs.
  EXPECT_TRUE(high_run->batch.merged.SameAs(low_a_run->batch.merged));
}

TEST(TenantServingTest, ZeroDocumentRunIsServedWithoutReservingBudget) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/6, /*relevant=*/2,
                                     /*num_markers=*/2);
  CorpusServer::Options opt;
  opt.engine = GpuOptions();
  opt.device_slot_budget = 1;  // even one slot would be over budget
  auto server = CorpusServer::Create(&mc.corpus, opt);
  ASSERT_TRUE(server.ok());
  auto tenant = (*server)->OpenTenant({});
  ASSERT_TRUE(tenant.ok());

  // An empty query on a selective task executes zero documents: priced as
  // footprint 0 — NOT as its would-be pre-size allocation — it passes even
  // a 1-slot budget and reserves nothing.
  CorpusServer::RunRequest req;
  req.task = Task::kKeywordSearch;
  auto submitted = tenant->Submit(req);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(submitted->admitted());
  EXPECT_EQ(submitted->admission->footprint_slots, 0u);
  EXPECT_EQ(submitted->admission->documents_to_execute, 0u);
  EXPECT_EQ(submitted->admission->admission_seconds, 0.0)
      << "a zero-document run must not charge planning or pre-sizing";

  auto served = submitted->ticket->Await();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->batch.merged.keyword_search.empty());
  EXPECT_EQ((*server)->stats().peak_admitted_slots, 0u)
      << "nothing was ever reserved";
}

// --------------------------------------------------------------------------
// What a BatchEngine executes, read from the batch it returns (the serving
// layer's documents_executed tally).
// --------------------------------------------------------------------------

// The engine lists only the documents the Bloom mask executes, so its batch
// holds each of them once, none skipped; the gather adds the rest, skipped.
TEST(BatchGatherTest, ExecutedDocumentsRunOnceAndTheGatherSkipsTheRest) {
  MarkerCorpus mc = MakeMarkerCorpus(/*num_docs=*/8, /*relevant=*/3,
                                     /*num_markers=*/2);
  const size_t n = mc.corpus.partitions.size();
  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  bopt.engine.query_words = {mc.markers[0], mc.markers[1]};
  bopt.merge_results = false;
  const TaskKernel& kernel = **TaskRegistry::Get(Task::kKeywordSearch);
  TaskInput input;
  input.query_words = bopt.engine.query_words;
  std::vector<uint8_t> mask =
      BloomExecuteMask(DocumentBlooms(mc.corpus), kernel, input);
  auto executed =
      PlanExecuted(mc.corpus, bopt.engine, Task::kKeywordSearch, mask);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  auto engine = BatchEngine::Create(&mc.corpus, bopt, nullptr, &executed->ids);
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(Task::kKeywordSearch, executed->plans);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<uint32_t> runs(n, 0);
  for (const BatchEngine::DocumentRun& doc : run->documents) {
    ++runs[doc.doc];
    EXPECT_FALSE(doc.skipped) << "doc " << doc.doc;
  }
  for (uint32_t d = 0; d < n; ++d) {
    EXPECT_EQ(runs[d], mask[d]) << "doc " << d;
  }
  auto gather = BatchEngine::Gather(Task::kKeywordSearch, bopt.engine,
                                    mc.corpus,
                                    bopt.engine.gpu.device_ops_per_sec(),
                                    &*run);
  ASSERT_TRUE(gather.ok()) << gather.status().ToString();
  ASSERT_EQ(run->documents.size(), n);
  for (uint32_t d = 0; d < n; ++d) {
    EXPECT_EQ(run->documents[d].doc, d);
    EXPECT_EQ(run->documents[d].skipped, mask[d] == 0) << "doc " << d;
  }
  EXPECT_EQ(executed->ids.size() + run->documents_skipped, n);
  EXPECT_GT(run->documents_skipped, 0u);
}

}  // namespace
}  // namespace gtadoc
