#include "bench_lib.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

namespace gtadoc {
namespace bench {
namespace {

TEST(PercentileTest, P95OfTwoHundredLeavesTenAbove) {
  std::vector<double> samples;
  for (int i = 200; i >= 1; --i) samples.push_back(i);  // unsorted input
  const double p95 = Percentile(samples, 95);
  EXPECT_EQ(p95, 190);
  int above = 0;
  for (double s : samples) above += s > p95 ? 1 : 0;
  EXPECT_EQ(above, 10);
  EXPECT_EQ(Percentile(samples, 50), 100);
}

TEST(PercentileTest, EdgeSizes) {
  EXPECT_EQ(Percentile({}, 95), 0);
  EXPECT_EQ(Percentile({7}, 95), 7);
  EXPECT_EQ(Percentile({7}, 50), 7);
  EXPECT_EQ(Percentile({1, 2, 3}, 50), 2);
  EXPECT_EQ(Percentile({1, 2, 3}, 100), 3);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Union inside [0, 10]: [1, 5] + [7, 8] + [9, 10] (clipped) = 6.
  EXPECT_DOUBLE_EQ(
      SelfTime({0, 10}, {{2, 5}, {1, 3}, {7, 8}, {9, 12}, {2.5, 4}}), 4);
}

TEST(SelfTimeTest, NoChildrenAndFullCover) {
  EXPECT_DOUBLE_EQ(SelfTime({1, 4}, {}), 3);
  EXPECT_DOUBLE_EQ(SelfTime({1, 4}, {{0, 2}, {2, 5}}), 0);
}

TEST(SimLatencyTest, FromServedRunFields) {
  CorpusServer::ServedRun run;
  run.start_seconds = 2.0;
  run.queue_wait_seconds = 0.5;
  run.completion_seconds = 3.25;
  EXPECT_DOUBLE_EQ(SimSubmitSeconds(run), 1.5);
  EXPECT_DOUBLE_EQ(SimLatencySeconds(run), 1.75);
}

TEST(HostClockTest, StandsStillWhilePaused) {
  HostClock clock;
  clock.Pause();
  const double paused = clock.Now();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  while (std::chrono::steady_clock::now() < until) {
  }
  EXPECT_EQ(clock.Now(), paused);
  clock.Resume();
  EXPECT_GE(clock.Now(), paused);
  EXPECT_LT(clock.Now() - paused, 0.002);
}

TEST(TraceTest, SummaryUsesParentLinks) {
  Trace trace(true);
  const int64_t root = trace.Add({"request", 1, 1, {0, 10}, -1, 7});
  trace.Add({"server.submit", 1, 1, {0, 2}, root, 7});
  trace.Add({"server.await", 1, 1, {6, 10}, root, 7});
  const auto summary = trace.Summarize();
  EXPECT_EQ(summary.at("request").count, 1u);
  EXPECT_DOUBLE_EQ(summary.at("request").total_seconds, 10);
  EXPECT_DOUBLE_EQ(summary.at("request").self_seconds, 4);
  EXPECT_DOUBLE_EQ(summary.at("server.await").self_seconds, 4);
}

TEST(TraceTest, DisabledDropsSpans) {
  Trace trace(false);
  EXPECT_EQ(trace.Add({"request", 1, 1, {0, 1}, -1, -1}), -1);
  EXPECT_TRUE(trace.spans().empty());
}

TEST(TraceTest, OverlappingSimulatedSpansGetSeparateRows) {
  Trace trace(true);
  trace.Add({"sim.run", 2, 0, {0, 2}, -1, 1});
  trace.Add({"sim.run", 2, 0, {1, 3}, -1, 2});
  trace.Add({"sim.run", 2, 0, {2, 4}, -1, 3});
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"tid\":0,\"ts\":0.000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1,\"ts\":1000000.000"), std::string::npos);
  // The third span starts when the first ends, so it reuses row 0.
  EXPECT_NE(json.find("\"tid\":0,\"ts\":2000000.000"), std::string::npos);
}

}  // namespace
}  // namespace bench
}  // namespace gtadoc
