#include <gtest/gtest.h>

#include "analytics/results.h"
#include "analytics/uncompressed.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"

namespace gtadoc {
namespace {

/// Tiny corpus with hand-computable answers:
///   file0: a b a c    file1: b a b
/// ids: a=0 b=1 c=2
std::vector<std::vector<uint32_t>> TinyFiles() {
  return {{0, 1, 0, 2}, {1, 0, 1}};
}

TEST(TaskMetaTest, NamesAndClasses) {
  EXPECT_STREQ(TaskName(Task::kWordCount), "wordCount");
  EXPECT_STREQ(TaskName(Task::kRankedInvertedIndex), "rankedInvertedIndex");
  EXPECT_EQ(AllTasks().size(), 6u);
  EXPECT_FALSE(IsSequenceTask(Task::kSort));
  EXPECT_TRUE(IsSequenceTask(Task::kSequenceCount));
  EXPECT_TRUE(IsSequenceTask(Task::kRankedInvertedIndex));
}

TEST(UncompressedSequentialTest, WordCount) {
  auto files = TinyFiles();
  UncompressedAnalytics a(files);
  auto r = a.RunSequential(Task::kWordCount);
  EXPECT_EQ(r.word_count, (WordCountResult{{0, 3}, {1, 3}, {2, 1}}));
}

TEST(UncompressedSequentialTest, SortOrdersByCountThenId) {
  auto files = TinyFiles();
  UncompressedAnalytics a(files);
  auto r = a.RunSequential(Task::kSort);
  // a and b tie at 3 -> id ascending; c last.
  ASSERT_EQ(r.sort.size(), 3u);
  EXPECT_EQ(r.sort[0], (std::pair<uint32_t, uint64_t>{0, 3}));
  EXPECT_EQ(r.sort[1], (std::pair<uint32_t, uint64_t>{1, 3}));
  EXPECT_EQ(r.sort[2], (std::pair<uint32_t, uint64_t>{2, 1}));
}

TEST(UncompressedSequentialTest, InvertedIndex) {
  auto files = TinyFiles();
  UncompressedAnalytics a(files);
  auto r = a.RunSequential(Task::kInvertedIndex);
  EXPECT_EQ(r.inverted_index[0], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(r.inverted_index[1], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(r.inverted_index[2], (std::vector<uint32_t>{0}));
}

TEST(UncompressedSequentialTest, TermVector) {
  auto files = TinyFiles();
  UncompressedAnalytics a(files);
  auto r = a.RunSequential(Task::kTermVector);
  ASSERT_EQ(r.term_vector.size(), 2u);
  // file0: a:2, b:1, c:1 (count desc, id asc).
  EXPECT_EQ(r.term_vector[0],
            (std::vector<std::pair<uint32_t, uint64_t>>{{0, 2}, {1, 1}, {2, 1}}));
  EXPECT_EQ(r.term_vector[1],
            (std::vector<std::pair<uint32_t, uint64_t>>{{1, 2}, {0, 1}}));
}

TEST(UncompressedSequentialTest, SequenceCountL2) {
  auto files = TinyFiles();
  UncompressedAnalytics a(files, /*ngram_len=*/2);
  auto r = a.RunSequential(Task::kSequenceCount);
  // file0 bigrams: ab, ba, ac ; file1: ba, ab.
  EXPECT_EQ((r.sequence_count.Count(0, {0, 1})), 1u);
  EXPECT_EQ((r.sequence_count.Count(0, {1, 0})), 1u);
  EXPECT_EQ((r.sequence_count.Count(0, {0, 2})), 1u);
  EXPECT_EQ((r.sequence_count.Count(1, {1, 0})), 1u);
  EXPECT_EQ((r.sequence_count.Count(1, {0, 1})), 1u);
  EXPECT_EQ(r.sequence_count.size(), 5u);
}

TEST(UncompressedSequentialTest, SequenceSkipsShortFiles) {
  std::vector<std::vector<uint32_t>> files = {{1, 2}, {3}};
  UncompressedAnalytics a(files, 3);
  auto r = a.RunSequential(Task::kSequenceCount);
  EXPECT_TRUE(r.sequence_count.empty());
}

TEST(UncompressedSequentialTest, RankedInvertedIndexL2) {
  // ab occurs twice in file1, once in file0 -> file1 ranks first.
  std::vector<std::vector<uint32_t>> files = {{0, 1, 2}, {0, 1, 0, 1}};
  UncompressedAnalytics a(files, 2);
  auto r = a.RunSequential(Task::kRankedInvertedIndex);
  const auto ab = r.ranked_inverted_index.Postings({0, 1});
  ASSERT_EQ(ab.size(), 2u);
  EXPECT_EQ(ab[0], (std::pair<uint32_t, uint64_t>{1, 2}));
  EXPECT_EQ(ab[1], (std::pair<uint32_t, uint64_t>{0, 1}));
}

TEST(UncompressedSequentialTest, MeterChargesWork) {
  auto files = TinyFiles();
  UncompressedAnalytics a(files);
  CpuCostMeter meter(gpu::PascalPlatform().cpu);
  a.RunSequential(Task::kWordCount, &meter);
  EXPECT_GT(meter.ops(), 0u);
  EXPECT_GT(meter.SequentialSeconds(), 0.0);
}

// ------------------------------------------------------ result utilities ---

TEST(ResultsTest, SameAsComparesSelectedMember) {
  AnalyticsResult a, b;
  a.task = b.task = Task::kWordCount;
  a.word_count = {{1, 2}};
  b.word_count = {{1, 2}};
  EXPECT_TRUE(a.SameAs(b));
  b.word_count[1] = 3;
  EXPECT_FALSE(a.SameAs(b));
  b.task = Task::kSort;
  EXPECT_FALSE(a.SameAs(b));
}

TEST(ResultsTest, CanonicalizeSortsInvertedIndexFiles) {
  AnalyticsResult r;
  r.task = Task::kInvertedIndex;
  r.inverted_index[5] = {3, 1, 2, 1};
  Canonicalize(&r);
  EXPECT_EQ(r.inverted_index[5], (std::vector<uint32_t>{1, 2, 3}));
}

TEST(ResultsTest, DigestDiffersForDifferentResults) {
  AnalyticsResult a, b;
  a.task = b.task = Task::kWordCount;
  a.word_count = {{1, 2}};
  b.word_count = {{1, 3}};
  EXPECT_NE(a.Digest(), b.Digest());
}

// --------------------------------------- GPU vs sequential ground truth ----

class UncompressedDeviceMatches
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UncompressedDeviceMatches, AllSeeds) {
  const auto [task_idx, seed] = GetParam();
  const Task task = AllTasks()[task_idx];

  DatasetSpec spec = DatasetD();
  spec.num_files = 5;
  spec.total_tokens = 3000;
  spec.vocabulary = 200;
  spec.seed = seed;
  TokenizedCorpus tokens = GenerateTokens(spec);

  UncompressedAnalytics a(tokens.file_tokens);
  AnalyticsResult truth = a.RunSequential(task);

  gpu::Device device(gpu::VoltaPlatform().gpu, 2);
  auto run = a.RunOnDevice(task, &device);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->result.SameAs(truth))
      << TaskName(task) << ": " << run->result.Digest() << " vs "
      << truth.Digest();
  EXPECT_GT(run->timing.traversal_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(TasksBySeeds, UncompressedDeviceMatches,
                         testing::Combine(testing::Range(0, 6),
                                          testing::Values(101, 202, 303)),
                         [](const auto& info) {
                           return std::string(TaskName(
                                      AllTasks()[std::get<0>(info.param)])) +
                                  "_" + std::to_string(std::get<1>(info.param));
                         });

TEST(UncompressedDeviceTest, EmptyInputRejected) {
  std::vector<std::vector<uint32_t>> files = {{}};
  UncompressedAnalytics a(files);
  gpu::Device device(gpu::PascalPlatform().gpu, 1);
  EXPECT_TRUE(a.RunOnDevice(Task::kWordCount, &device).status().IsInvalidArgument());
}

}  // namespace
}  // namespace gtadoc
