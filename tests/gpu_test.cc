#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "gpu/device.h"
#include "gpu/hash_table.h"
#include "gpu/memory_pool.h"
#include "gpu/ngram_table.h"
#include "gpu/platform.h"
#include "gpu/primitives.h"
#include "gpu/round_loop.h"

namespace gtadoc {
namespace gpu {
namespace {

GpuSpec TestSpec() { return PascalPlatform().gpu; }

// ---------------------------------------------------------------- Device ---

TEST(DeviceTest, LaunchCoversAllThreadIds) {
  Device device(TestSpec(), 2);
  std::vector<std::atomic<int>> hits(1000);
  device.Launch("cover", 1000, [&](ThreadCtx& ctx) {
    hits[ctx.tid()].fetch_add(1);
    EXPECT_EQ(ctx.num_threads(), 1000u);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DeviceTest, CostAggregatesTotalAndMax) {
  Device device(TestSpec(), 1);
  KernelCost cost = device.Launch("work", 10, [&](ThreadCtx& ctx) {
    ctx.Charge(ctx.tid() == 3 ? 100 : 1);
  });
  EXPECT_EQ(cost.total_ops, 109u);
  EXPECT_EQ(cost.max_thread_ops, 100u);
  EXPECT_EQ(cost.num_threads, 10u);
}

TEST(DeviceTest, AtomicsChargeSeparately) {
  Device device(TestSpec(), 1);
  KernelCost cost = device.Launch("atomics", 4, [&](ThreadCtx& ctx) {
    ctx.ChargeAtomic(5);
  });
  EXPECT_EQ(cost.atomic_ops, 20u);
  EXPECT_EQ(cost.total_ops, 20u);  // atomics count as ops too
}

TEST(DeviceTest, ClockAdvancesWithWorkAndTransfers) {
  Device device(TestSpec(), 1);
  EXPECT_DOUBLE_EQ(device.SimSeconds(), 0.0);
  device.Launch("noop", 1, [](ThreadCtx&) {});
  const double after_launch = device.SimSeconds();
  EXPECT_GT(after_launch, 0.0);  // launch overhead
  device.CopyHostToDevice(12ull * 1000 * 1000 * 1000 / 8);  // ~1 s at 12 GB/s
  EXPECT_NEAR(device.SimSeconds() - after_launch, 0.125, 0.01);
  device.ResetClock();
  EXPECT_DOUBLE_EQ(device.SimSeconds(), 0.0);
}

TEST(DeviceTest, ImbalanceDominatesThroughput) {
  // One thread with W ops must cost ~W / thread_speed, not W / device_speed.
  Device device(TestSpec(), 1);
  device.Launch("skewed", 1024, [&](ThreadCtx& ctx) {
    if (ctx.tid() == 0) ctx.Charge(1000000);
  });
  const double expected = 1e6 / TestSpec().thread_ops_per_sec();
  EXPECT_GT(device.SimSeconds(), expected * 0.9);
}

TEST(DeviceTest, StatsAccumulate) {
  Device device(TestSpec(), 1);
  device.Launch("a", 2, [](ThreadCtx& ctx) { ctx.Charge(3); });
  device.Launch("b", 2, [](ThreadCtx& ctx) { ctx.ChargeAtomic(); });
  EXPECT_EQ(device.stats().kernels_launched, 2u);
  EXPECT_EQ(device.stats().total_ops, 8u);
  EXPECT_EQ(device.stats().total_atomics, 2u);
}

TEST(DeviceBufferTest, TracksDeviceBytes) {
  Device device(TestSpec(), 1);
  {
    DeviceBuffer<uint64_t> buf(&device, 1000, 7ull);
    EXPECT_EQ(device.device_bytes_in_use(), 8000u);
    EXPECT_EQ(buf[999], 7ull);
    DeviceBuffer<uint64_t> moved = std::move(buf);
    EXPECT_EQ(device.device_bytes_in_use(), 8000u);
    EXPECT_EQ(moved[0], 7ull);
  }
  EXPECT_EQ(device.device_bytes_in_use(), 0u);
  EXPECT_EQ(device.stats().peak_device_bytes, 8000u);
}

TEST(PlatformTest, PresetsAreOrderedSensibly) {
  auto pascal = PascalPlatform(), volta = VoltaPlatform(), turing = TuringPlatform();
  // V100 has the largest device throughput and memory bandwidth.
  EXPECT_GT(volta.gpu.device_ops_per_sec(), pascal.gpu.device_ops_per_sec());
  EXPECT_GT(volta.gpu.mem_bandwidth_gbps, turing.gpu.mem_bandwidth_gbps);
  EXPECT_EQ(AllPlatforms().size(), 3u);
  const auto cluster = TenNodeCluster();
  EXPECT_EQ(cluster.nodes, 10u);
  EXPECT_GT(cluster.node_cpu.socket_ops_per_sec(), 0.0);
}

// ------------------------------------------------------------ MemoryPool ---

TEST(MemoryPoolTest, PlanRegionsIsExclusiveScan) {
  Device device(TestSpec(), 1);
  MemoryPool pool(&device, 100);
  auto offsets = pool.PlanRegions({10, 0, 5, 20});
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ(*offsets, (std::vector<uint64_t>{0, 10, 10, 15}));
  EXPECT_EQ(pool.used(), 35u);
}

TEST(MemoryPoolTest, PlanRegionsOutOfMemory) {
  Device device(TestSpec(), 1);
  MemoryPool pool(&device, 10);
  EXPECT_TRUE(pool.PlanRegions({6, 6}).status().IsOutOfMemory());
  // A failed plan must not consume capacity.
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_TRUE(pool.PlanRegions({5, 5}).ok());
}

TEST(MemoryPoolTest, AtomicAllocAfterPlan) {
  Device device(TestSpec(), 1);
  MemoryPool pool(&device, 16);
  ASSERT_TRUE(pool.PlanRegions({4}).ok());
  ThreadCtx ctx(0, 1);
  EXPECT_EQ(pool.AtomicAlloc(ctx, 4), 4u);
  EXPECT_EQ(pool.AtomicAlloc(ctx, 8), 8u);
  EXPECT_EQ(pool.AtomicAlloc(ctx, 1), kPoolInvalid);  // exhausted
  EXPECT_EQ(pool.used(), 16u);
  pool.Reset();
  EXPECT_EQ(pool.used(), 0u);
}

TEST(MemoryPoolTest, ConcurrentAtomicAllocDisjoint) {
  Device device(TestSpec(), 4);
  MemoryPool pool(&device, 4096);
  std::vector<std::atomic<uint64_t>> got(512);
  device.Launch("alloc", 512, [&](ThreadCtx& ctx) {
    got[ctx.tid()].store(pool.AtomicAlloc(ctx, 8));
  });
  std::vector<uint64_t> offsets;
  for (auto& g : got) offsets.push_back(g.load());
  std::sort(offsets.begin(), offsets.end());
  for (size_t i = 0; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i], i * 8) << "overlapping regions";
  }
}

// ------------------------------------------------------------- HashTable ---

TEST(GpuHashTableTest, InsertAndLookup) {
  Device device(TestSpec(), 1);
  GpuHashTable table(&device, {.num_entries = 16, .max_nodes = 64});
  ThreadCtx ctx(0, 1);
  EXPECT_EQ(table.AddOrInsert(ctx, 100, 5), InsertOutcome::kDone);
  EXPECT_EQ(table.AddOrInsert(ctx, 100, 3), InsertOutcome::kDone);
  EXPECT_EQ(table.AddOrInsert(ctx, 200, 1), InsertOutcome::kDone);
  EXPECT_EQ(table.Lookup(100), 8u);
  EXPECT_EQ(table.Lookup(200), 1u);
  EXPECT_EQ(table.Lookup(300), 0u);
  EXPECT_EQ(table.num_nodes_used(), 2u);
}

TEST(GpuHashTableTest, ChainsSurviveCollisions) {
  Device device(TestSpec(), 1);
  // One bucket: every key collides.
  GpuHashTable table(&device, {.num_entries = 1, .max_nodes = 128});
  ThreadCtx ctx(0, 1);
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_EQ(table.AddOrInsert(ctx, k, k + 1), InsertOutcome::kDone);
  }
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(table.Lookup(k), k + 1);
  }
}

TEST(GpuHashTableTest, TableFullReported) {
  Device device(TestSpec(), 1);
  GpuHashTable table(&device, {.num_entries = 4, .max_nodes = 2});
  ThreadCtx ctx(0, 1);
  EXPECT_EQ(table.AddOrInsert(ctx, 1, 1), InsertOutcome::kDone);
  EXPECT_EQ(table.AddOrInsert(ctx, 2, 1), InsertOutcome::kDone);
  EXPECT_EQ(table.AddOrInsert(ctx, 3, 1), InsertOutcome::kTableFull);
  // Existing keys still update fine.
  EXPECT_EQ(table.AddOrInsert(ctx, 1, 1), InsertOutcome::kDone);
}

TEST(GpuHashTableTest, LockFailureInjectionForcesRetry) {
  Device device(TestSpec(), 1);
  GpuHashTable table(&device, {.num_entries = 8, .max_nodes = 8});
  table.InjectLockFailures(42, 2);
  ThreadCtx ctx(0, 1);
  EXPECT_EQ(table.AddOrInsert(ctx, 42, 1), InsertOutcome::kRetry);
  EXPECT_EQ(table.AddOrInsert(ctx, 42, 1), InsertOutcome::kRetry);
  EXPECT_EQ(table.AddOrInsert(ctx, 42, 1), InsertOutcome::kDone);
  EXPECT_EQ(table.Lookup(42), 1u);
}

class GpuHashTableLockModes : public testing::TestWithParam<LockMode> {};

TEST_P(GpuHashTableLockModes, ConcurrentSumsAreExact) {
  Device device(TestSpec(), 4);
  GpuHashTable table(&device,
                     {.num_entries = 64, .max_nodes = 4096, .lock_mode = GetParam()});
  // 64 distinct keys, 4096 increments spread over threads; retry via loop.
  const bool ok =
      RoundLoop(&device, "inserts", 4096, 16, [&](size_t i, ThreadCtx& ctx) {
        return table.AddOrInsert(ctx, i % 64, 1);
      });
  ASSERT_TRUE(ok);
  auto drained = table.Drain();
  ASSERT_EQ(drained.size(), 64u);
  uint64_t total = 0;
  for (const auto& [k, v] : drained) {
    EXPECT_EQ(v, 64u) << "key " << k;
    total += v;
  }
  EXPECT_EQ(total, 4096u);
}

TEST(GpuHashTableTest, LockedDrainsComeOutInFirstInsertionOrder) {
  for (LockMode mode : {LockMode::kPerEntryTryLock, LockMode::kGlobalLock}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Device device(TestSpec(), 1);
    GpuHashTable table(&device,
                       {.num_entries = 4, .max_nodes = 64, .lock_mode = mode});
    // Keys arrive out of order, repeat, and share four buckets.
    const uint64_t keys[] = {90, 3, 17, 3, 1ull << 40, 90, 5, 17, 64, 3};
    std::vector<uint64_t> first_seen;
    std::map<uint64_t, uint64_t> sums;
    ThreadCtx ctx(0, 1);
    for (size_t i = 0; i < std::size(keys); ++i) {
      ASSERT_EQ(table.AddOrInsert(ctx, keys[i], i + 1), InsertOutcome::kDone);
      if (sums.count(keys[i]) == 0) first_seen.push_back(keys[i]);
      sums[keys[i]] += i + 1;
    }
    const auto drained = table.Drain();
    ASSERT_EQ(drained.size(), table.num_nodes_used());
    ASSERT_EQ(drained.size(), first_seen.size());
    for (size_t i = 0; i < drained.size(); ++i) {
      EXPECT_EQ(drained[i].first, first_seen[i]) << "node " << i;
      EXPECT_EQ(drained[i].second, sums[first_seen[i]]) << "node " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, GpuHashTableLockModes,
                         testing::Values(LockMode::kPerEntryTryLock,
                                         LockMode::kGlobalLock,
                                         LockMode::kAtomicOnly));

// ------------------------------------------------------------ NgramTable ---

TEST(GpuNgramTableTest, ExactKeysDistinguishPermutations) {
  Device device(TestSpec(), 1);
  GpuNgramTable table(&device,
                      {.num_entries = 16, .max_nodes = 64, .ngram_len = 3});
  ThreadCtx ctx(0, 1);
  const uint32_t abc[] = {1, 2, 3};
  const uint32_t acb[] = {1, 3, 2};
  EXPECT_EQ(table.AddOrInsert(ctx, 0, abc, 2), InsertOutcome::kDone);
  EXPECT_EQ(table.AddOrInsert(ctx, 0, acb, 5), InsertOutcome::kDone);
  EXPECT_EQ(table.AddOrInsert(ctx, 0, abc, 1), InsertOutcome::kDone);
  EXPECT_EQ(table.Lookup(0, abc), 3u);
  EXPECT_EQ(table.Lookup(0, acb), 5u);
  EXPECT_EQ(table.num_nodes_used(), 2u);
}

TEST(GpuNgramTableTest, FilesSeparateKeys) {
  Device device(TestSpec(), 1);
  GpuNgramTable table(&device,
                      {.num_entries = 16, .max_nodes = 64, .ngram_len = 2});
  ThreadCtx ctx(0, 1);
  const uint32_t ab[] = {7, 8};
  table.AddOrInsert(ctx, 0, ab, 1);
  table.AddOrInsert(ctx, 1, ab, 10);
  EXPECT_EQ(table.Lookup(0, ab), 1u);
  EXPECT_EQ(table.Lookup(1, ab), 10u);
  auto drained = table.Drain();
  EXPECT_EQ(drained.size(), 2u);
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(std::vector<uint32_t>(drained.gram(i), drained.gram(i) + 2),
              (std::vector<uint32_t>{7, 8}));
  }
}

TEST(GpuNgramTableTest, TableFullAndDrainRoundTrip) {
  Device device(TestSpec(), 1);
  GpuNgramTable table(&device,
                      {.num_entries = 4, .max_nodes = 2, .ngram_len = 2});
  ThreadCtx ctx(0, 1);
  const uint32_t k1[] = {1, 1}, k2[] = {2, 2}, k3[] = {3, 3};
  EXPECT_EQ(table.AddOrInsert(ctx, 0, k1, 1), InsertOutcome::kDone);
  EXPECT_EQ(table.AddOrInsert(ctx, 0, k2, 1), InsertOutcome::kDone);
  EXPECT_EQ(table.AddOrInsert(ctx, 0, k3, 1), InsertOutcome::kTableFull);
}

// ------------------------------------------------------------ Primitives ---

TEST(ScanTest, MatchesHostPrefixSum) {
  Device device(TestSpec(), 2);
  Rng rng(5);
  for (size_t n : {0u, 1u, 7u, 256u, 1000u, 4096u}) {
    std::vector<uint64_t> in(n);
    for (auto& v : in) v = rng.Uniform(100);
    std::vector<uint64_t> out;
    const uint64_t total = DeviceExclusiveScan(&device, in, &out);
    uint64_t expect = 0;
    ASSERT_EQ(out.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], expect) << "n=" << n << " i=" << i;
      expect += in[i];
    }
    EXPECT_EQ(total, expect);
  }
}

TEST(SortTest, SortsRandomPairs) {
  Device device(TestSpec(), 2);
  Rng rng(17);
  for (size_t n : {0u, 1u, 2u, 3u, 100u, 1023u, 1024u, 5000u}) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs(n);
    for (auto& p : pairs) p = {rng.Uniform(1000), rng.NextU64()};
    auto expect = pairs;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    DeviceSortPairs(&device, &pairs);
    EXPECT_EQ(pairs, expect) << "n=" << n;
  }
}

TEST(SortTest, StableOnEqualKeys) {
  Device device(TestSpec(), 1);
  std::vector<std::pair<uint64_t, uint64_t>> pairs = {
      {5, 0}, {5, 1}, {1, 2}, {5, 3}, {1, 4}};
  DeviceSortPairs(&device, &pairs);
  EXPECT_EQ(pairs, (std::vector<std::pair<uint64_t, uint64_t>>{
                       {1, 2}, {1, 4}, {5, 0}, {5, 1}, {5, 3}}));
}

TEST(SortTest, AlreadySortedAndReverse) {
  Device device(TestSpec(), 1);
  std::vector<std::pair<uint64_t, uint64_t>> asc, desc;
  for (uint64_t i = 0; i < 500; ++i) {
    asc.emplace_back(i, i);
    desc.emplace_back(499 - i, i);
  }
  auto asc2 = asc;
  DeviceSortPairs(&device, &asc2);
  EXPECT_EQ(asc2, asc);
  DeviceSortPairs(&device, &desc);
  for (uint64_t i = 0; i < 500; ++i) EXPECT_EQ(desc[i].first, i);
}

// ------------------------------------------------------------- RoundLoop ---

TEST(RoundLoopTest, RetriesUntilDone) {
  Device device(TestSpec(), 1);
  std::vector<int> attempts(100, 0);
  const bool ok =
      RoundLoop(&device, "retry", 100, 10, [&](size_t i, ThreadCtx& ctx) {
        ctx.Charge(1);
        // Every item fails twice before succeeding.
        return ++attempts[i] < 3 ? InsertOutcome::kRetry : InsertOutcome::kDone;
      });
  EXPECT_TRUE(ok);
  for (int a : attempts) EXPECT_EQ(a, 3);
}

TEST(RoundLoopTest, TableFullAborts) {
  Device device(TestSpec(), 1);
  const bool ok = RoundLoop(&device, "full", 10, 4, [&](size_t i, ThreadCtx&) {
    return i == 5 ? InsertOutcome::kTableFull : InsertOutcome::kDone;
  });
  EXPECT_FALSE(ok);
}

TEST(RoundLoopTest, EmptyIsTriviallyDone) {
  Device device(TestSpec(), 1);
  EXPECT_TRUE(RoundLoop(&device, "empty", 0, 4, [&](size_t, ThreadCtx&) {
    return InsertOutcome::kDone;
  }));
}

}  // namespace
}  // namespace gpu
}  // namespace gtadoc
