#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <set>

#include "common/hash.h"
#include "common/io.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace gtadoc {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("bad block");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_FALSE(s.IsNotFound());
  EXPECT_EQ(s.message(), "bad block");
  EXPECT_EQ(s.ToString(), "Corruption: bad block");
}

TEST(StatusTest, AllConstructorsMatchPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfMemory("x").IsOutOfMemory());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

Status FailsThrough() {
  GTADOC_RETURN_IF_ERROR(Status::IOError("disk gone"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(FailsThrough().IsIOError());
}

// ---------------------------------------------------------------- Result ---

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> Doubled(Result<int> in) {
  GTADOC_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_TRUE(Doubled(Status::Internal("x")).status().IsInternal());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ----------------------------------------------------------------- Slice ---

TEST(SliceTest, BasicViews) {
  std::string s = "hello world";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 11u);
  EXPECT_EQ(sl[4], 'o');
  sl.RemovePrefix(6);
  EXPECT_EQ(sl.ToString(), "world");
}

TEST(SliceTest, CompareOrdersLexicographically) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);  // prefix sorts first
}

TEST(SliceTest, StartsWithAndEquality) {
  EXPECT_TRUE(Slice("gtadoc").StartsWith("gta"));
  EXPECT_FALSE(Slice("gt").StartsWith("gta"));
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

// ------------------------------------------------------------------ Hash ---

TEST(HashTest, Fnv1aKnownVector) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  // "a" vector from the FNV reference.
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
}

TEST(HashTest, Mix64Avalanches) {
  EXPECT_NE(Mix64(1), Mix64(2));
  EXPECT_NE(Mix64(0), 0u);
}

TEST(HashTest, U32SpanIsLengthAndOrderSensitive) {
  uint32_t a[] = {1, 2, 3};
  uint32_t b[] = {1, 2};
  uint32_t c[] = {3, 2, 1};
  EXPECT_NE(HashU32Span(a, 3), HashU32Span(b, 2));
  EXPECT_NE(HashU32Span(a, 3), HashU32Span(c, 3));
  EXPECT_EQ(HashU32Span(a, 3), HashU32Span(a, 3));
}

// -------------------------------------------------------------- BinaryIO ---

TEST(BinaryIoTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutVarint32(300);
  w.PutVarint64(1ull << 40);
  w.PutLengthPrefixed("payload");

  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetU8(), 0xAB);
  EXPECT_EQ(*r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.GetVarint32(), 300u);
  EXPECT_EQ(*r.GetVarint64(), 1ull << 40);
  EXPECT_EQ(r.GetLengthPrefixed()->ToString(), "payload");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, VarintBoundaries) {
  const std::vector<uint64_t> cases = {0, 127, 128, 16383, 16384,
                                       UINT64_MAX};
  for (uint64_t v : cases) {
    BinaryWriter w;
    w.PutVarint64(v);
    BinaryReader r(w.buffer());
    EXPECT_EQ(*r.GetVarint64(), v);
  }
}

TEST(BinaryIoTest, TruncatedInputsReturnCorruption) {
  BinaryWriter w;
  w.PutU32(7);
  // Drop the last byte.
  Slice cut(w.buffer().data(), w.buffer().size() - 1);
  BinaryReader r(cut);
  EXPECT_TRUE(r.GetU32().status().IsCorruption());
}

TEST(BinaryIoTest, MalformedVarintReturnsCorruption) {
  // Ten continuation bytes never terminate a 64-bit varint.
  std::string bad(10, static_cast<char>(0xFF));
  BinaryReader r(bad);
  EXPECT_TRUE(r.GetVarint64().status().IsCorruption());
}

TEST(BinaryIoTest, Varint32OverflowDetected) {
  BinaryWriter w;
  w.PutVarint64(1ull << 33);
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.GetVarint32().status().IsCorruption());
}

TEST(BinaryIoTest, LengthPrefixBeyondInputIsCorruption) {
  BinaryWriter w;
  w.PutVarint64(100);  // promises 100 bytes, delivers none
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.GetLengthPrefixed().status().IsCorruption());
}

TEST(FileIoTest, WriteReadRoundTrip) {
  const std::string path = testing::TempDir() + "/gtadoc_io_test.bin";
  const std::string payload = "gtadoc\0binary\xff payload";
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, payload);
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsIOError) {
  std::string out;
  EXPECT_TRUE(ReadFileToString("/nonexistent/gtadoc", &out).IsIOError());
}

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    if (va != c.NextU64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Uniform(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, BoundsAndSkew) {
  ZipfSampler zipf(100, 0.9, 11);
  std::vector<int> hist(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, 100u);
    ++hist[v];
  }
  // Rank 0 must dominate rank 50 by a wide margin under theta = 0.9.
  EXPECT_GT(hist[0], hist[50] * 5);
}

// ------------------------------------------------------------ ThreadPool ---

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  ASSERT_GT(sink, 0u);
  EXPECT_GE(t.ElapsedMicros(), 0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace gtadoc
