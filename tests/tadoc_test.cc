#include <gtest/gtest.h>

#include <algorithm>

#include "analytics/uncompressed.h"
#include "datagen/datagen.h"
#include "format/dag.h"
#include "gpu/platform.h"
#include "sequitur/compressor.h"
#include "tadoc/cpu_engine.h"
#include "tadoc/parallel_engine.h"
#include "tadoc/strategy.h"

namespace gtadoc {
namespace {

CpuTadocOptions TestOptions() {
  CpuTadocOptions opt;
  opt.cpu = gpu::PascalPlatform().cpu;
  return opt;
}

/// Figure 1 grammar (see format_test.cc for the layout).
Grammar Figure1Grammar() {
  Grammar g;
  g.num_words = 4;
  g.num_splitters = 1;
  g.words = {"w1", "w2", "w3", "w4"};
  g.rules = {{6, 6, 4, 7, 0}, {7, 2, 7, 3}, {0, 1}};
  return g;
}

TEST(CpuTadocTest, Figure1WordCountMatchesPaper) {
  Grammar g = Figure1Grammar();
  auto engine = CpuTadocEngine::Create(&g, TestOptions());
  ASSERT_TRUE(engine.ok());
  auto run = engine->Run(Task::kWordCount);
  ASSERT_TRUE(run.ok());
  // Figure 2: <w1,6>, <w2,5>, <w3,2>, <w4,2>.
  EXPECT_EQ(run->result.word_count,
            (WordCountResult{{0, 6}, {1, 5}, {2, 2}, {3, 2}}));
}

TEST(CpuTadocTest, Figure1BothStrategiesAgree) {
  Grammar g = Figure1Grammar();
  auto engine = CpuTadocEngine::Create(&g, TestOptions());
  ASSERT_TRUE(engine.ok());
  for (Task task : {Task::kWordCount, Task::kInvertedIndex, Task::kTermVector}) {
    auto td = engine->Run(task, TraversalStrategy::kTopDown);
    auto bu = engine->Run(task, TraversalStrategy::kBottomUp);
    ASSERT_TRUE(td.ok() && bu.ok());
    EXPECT_TRUE(td->result.SameAs(bu->result)) << TaskName(task);
  }
}

TEST(CpuTadocTest, Figure1InvertedIndex) {
  Grammar g = Figure1Grammar();
  auto engine = CpuTadocEngine::Create(&g, TestOptions());
  auto run = engine->Run(Task::kInvertedIndex);
  ASSERT_TRUE(run.ok());
  // w1, w2 in both files; w3, w4 only in fileA.
  EXPECT_EQ(run->result.inverted_index[0], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(run->result.inverted_index[1], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(run->result.inverted_index[2], (std::vector<uint32_t>{0}));
  EXPECT_EQ(run->result.inverted_index[3], (std::vector<uint32_t>{0}));
}

TEST(CpuTadocTest, TimingPhasesPopulated) {
  Grammar g = Figure1Grammar();
  auto engine = CpuTadocEngine::Create(&g, TestOptions());
  auto run = engine->Run(Task::kWordCount);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->timing.init_seconds, 0.0);
  EXPECT_GT(run->timing.traversal_seconds, 0.0);
  EXPECT_GT(run->timing.init_ops, 0u);
  EXPECT_GT(run->timing.traversal_ops, 0u);
}

TEST(StrategySelectorTest, PaperHeuristics) {
  Grammar few = Figure1Grammar();  // 2 files
  auto dag = DagView::Build(few);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(SelectStrategy(Task::kWordCount, few, *dag),
            TraversalStrategy::kTopDown);
  EXPECT_EQ(SelectStrategy(Task::kTermVector, few, *dag),
            TraversalStrategy::kTopDown);

  Grammar many = few;
  many.num_splitters = 200;  // pretend: 201 files
  EXPECT_EQ(SelectStrategy(Task::kTermVector, many, *dag),
            TraversalStrategy::kBottomUp);
  EXPECT_EQ(SelectStrategy(Task::kWordCount, many, *dag),
            TraversalStrategy::kTopDown);
  EXPECT_EQ(SelectStrategy(Task::kSequenceCount, many, *dag),
            TraversalStrategy::kBottomUp);
  EXPECT_STREQ(StrategyName(TraversalStrategy::kTopDown), "topDown");
}

// Property: CPU TADOC == uncompressed ground truth, all tasks x strategies.
class CpuTadocMatchesTruth
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CpuTadocMatchesTruth, AllTasks) {
  const auto [task_idx, strat_idx] = GetParam();
  const Task task = AllTasks()[task_idx];
  const TraversalStrategy strategy =
      strat_idx == 0 ? TraversalStrategy::kTopDown : TraversalStrategy::kBottomUp;

  DatasetSpec spec = DatasetA();
  spec.num_files = 12;
  spec.total_tokens = 6000;
  spec.vocabulary = 300;
  spec.seed = 77;
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto g = CompressTokens(tokens);
  ASSERT_TRUE(g.ok());

  auto engine = CpuTadocEngine::Create(&*g, TestOptions());
  ASSERT_TRUE(engine.ok());
  auto run = engine->Run(task, strategy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  UncompressedAnalytics truth_engine(tokens.file_tokens);
  AnalyticsResult truth = truth_engine.RunSequential(task);
  EXPECT_TRUE(run->result.SameAs(truth))
      << TaskName(task) << ": " << run->result.Digest() << " vs "
      << truth.Digest();
}

INSTANTIATE_TEST_SUITE_P(
    TasksByStrategy, CpuTadocMatchesTruth,
    testing::Combine(testing::Range(0, 6), testing::Range(0, 2)),
    [](const auto& info) {
      return std::string(TaskName(AllTasks()[std::get<0>(info.param)])) +
             (std::get<1>(info.param) == 0 ? "_topDown" : "_bottomUp");
    });

// ----------------------------------------------------- partitioned TADOC ---

TEST(ParallelTadocTest, PartitioningCoversAllFiles) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 20;
  spec.total_tokens = 5000;
  spec.seed = 3;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, 4);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  EXPECT_EQ(part->partitions.size(), 4u);
  EXPECT_EQ(part->total_files, 20u);
  uint32_t files = 0;
  for (const auto& g : part->partitions) files += g.num_files();
  EXPECT_EQ(files, 20u);
  // file_base is increasing and starts at 0.
  EXPECT_EQ(part->file_base[0], 0u);
  for (size_t p = 1; p < part->file_base.size(); ++p) {
    EXPECT_GT(part->file_base[p], part->file_base[p - 1]);
  }
}

TEST(ParallelTadocTest, RejectsDegenerateRequests) {
  Corpus corpus;
  corpus.file_names = {"one"};
  corpus.file_contents = {"a b c"};
  EXPECT_TRUE(PartitionAndCompress(corpus, 0).status().IsInvalidArgument());
  EXPECT_TRUE(PartitionAndCompress(corpus, 2).status().IsInvalidArgument());
}

class ParallelTadocMatchesTruth : public testing::TestWithParam<int> {};

TEST_P(ParallelTadocMatchesTruth, AllTasks) {
  const Task task = AllTasks()[GetParam()];
  DatasetSpec spec = DatasetA();
  spec.num_files = 15;
  spec.total_tokens = 5000;
  spec.vocabulary = 250;
  spec.seed = 55;
  TokenizedCorpus tokens = GenerateTokens(spec);
  Corpus corpus;
  corpus.file_contents.resize(tokens.file_tokens.size());
  corpus.file_names.resize(tokens.file_tokens.size());
  for (size_t f = 0; f < tokens.file_tokens.size(); ++f) {
    std::string& text = corpus.file_contents[f];
    for (size_t i = 0; i < tokens.file_tokens[f].size(); ++i) {
      if (i > 0) text += ' ';
      text += tokens.words[tokens.file_tokens[f][i]];
    }
  }

  auto part = PartitionAndCompress(corpus, 3);
  ASSERT_TRUE(part.ok());
  auto engine = ParallelTadocEngine::Create(&*part, TestOptions());
  ASSERT_TRUE(engine.ok());
  auto run = engine->Run(task);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Ground truth on the re-tokenized corpus (same dictionary order).
  TokenizedCorpus retok = Tokenize(corpus);
  UncompressedAnalytics truth_engine(retok.file_tokens);
  AnalyticsResult truth = truth_engine.RunSequential(task);

  // The partition dictionaries share ids with Tokenize(corpus)? No — they use
  // the global Tokenize order too (PartitionAndCompress tokenizes once), so
  // results are directly comparable.
  EXPECT_TRUE(run->result.SameAs(truth))
      << TaskName(task) << ": " << run->result.Digest() << " vs "
      << truth.Digest();
}

INSTANTIATE_TEST_SUITE_P(AllTasks, ParallelTadocMatchesTruth,
                         testing::Range(0, 6), [](const auto& info) {
                           return std::string(TaskName(AllTasks()[info.param]));
                         });

TEST(ClusterModelTest, ClusterSlowerThanIdealButCorrect) {
  DatasetSpec spec = DatasetC();
  spec.num_files = 20;
  spec.total_tokens = 8000;
  spec.seed = 9;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, 10);
  ASSERT_TRUE(part.ok());
  auto engine = ParallelTadocEngine::Create(&*part, TestOptions());
  ASSERT_TRUE(engine.ok());

  auto cluster_run = engine->RunOnCluster(Task::kWordCount, gpu::TenNodeCluster());
  ASSERT_TRUE(cluster_run.ok());
  // The cluster pays scheduling latency and shuffle: total time must exceed
  // the bare per-round latency floor.
  EXPECT_GT(cluster_run->timing.total_seconds(),
            gpu::TenNodeCluster().per_round_latency_s);

  TokenizedCorpus retok = Tokenize(corpus);
  UncompressedAnalytics truth_engine(retok.file_tokens);
  EXPECT_TRUE(cluster_run->result.SameAs(
      truth_engine.RunSequential(Task::kWordCount)));
}

// The baseline's simulated timing, written out from its definition: every
// partition runs on a cold engine (its own DAG walk and plan build), the
// results merge in partition order, and Run / RunOnCluster compose those
// per-partition ops into the multicore and cluster cost formulas.
TEST(ParallelTadocTest, TimingIsTheColdPartitionComposition) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 16;
  spec.total_tokens = 6000;
  spec.seed = 21;
  auto part = PartitionAndCompress(GenerateCorpus(spec), 4);
  ASSERT_TRUE(part.ok());
  const CpuTadocOptions options = TestOptions();
  const gpu::CpuSpec& cpu = options.cpu;
  const gpu::ClusterSpec cluster = gpu::TenNodeCluster();
  auto engine = ParallelTadocEngine::Create(&*part, options);
  ASSERT_TRUE(engine.ok());

  for (Task task : AllTasks()) {
    SCOPED_TRACE(TaskName(task));
    uint64_t init_total = 0, init_max = 0, traversal_total = 0,
             traversal_max = 0, merge_ops = 0;
    AnalyticsResult merged;
    merged.task = task;
    for (size_t p = 0; p < part->partitions.size(); ++p) {
      auto cold = CpuTadocEngine::Create(&part->partitions[p], options);
      ASSERT_TRUE(cold.ok());
      auto run = cold->Run(task);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      init_total += run->timing.init_ops;
      init_max = std::max(init_max, run->timing.init_ops);
      traversal_total += run->timing.traversal_ops;
      traversal_max = std::max(traversal_max, run->timing.traversal_ops);
      MergeResult(run->result, part->file_base[p], &merged, &merge_ops);
    }
    FinalizeMergedResult(&merged, &merge_ops);
    const auto d = [](uint64_t ops) { return static_cast<double>(ops); };

    auto multicore = engine->Run(task);
    ASSERT_TRUE(multicore.ok()) << multicore.status().ToString();
    EXPECT_TRUE(multicore->result.SameAs(merged));
    const RunTiming& m = multicore->timing;
    EXPECT_EQ(m.init_seconds, std::max(d(init_total) / cpu.socket_ops_per_sec(),
                                       d(init_max) / cpu.thread_ops_per_sec()));
    EXPECT_EQ(m.traversal_seconds,
              std::max(d(traversal_total) / cpu.socket_ops_per_sec(),
                       d(traversal_max) / cpu.thread_ops_per_sec()) +
                  d(merge_ops) / cpu.thread_ops_per_sec());
    EXPECT_EQ(m.init_ops, init_total);
    EXPECT_EQ(m.traversal_ops, traversal_total + merge_ops);

    auto clustered = engine->RunOnCluster(task, cluster);
    ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();
    EXPECT_TRUE(clustered->result.SameAs(merged));
    const RunTiming& c = clustered->timing;
    const double node_tput = cluster.node_cpu.socket_ops_per_sec();
    const size_t parts = part->partitions.size();
    const double waves =
        static_cast<double>((parts + cluster.nodes - 1) / cluster.nodes);
    const double latency =
        cluster.per_round_latency_s / cluster.workload_scale;
    const double shuffle =
        d(ResultBytes(merged, options.ngram_len)) *
        (static_cast<double>(cluster.nodes - 1) / cluster.nodes) /
        (cluster.network_gbps * 1e9 / 8.0) / cluster.workload_scale;
    EXPECT_EQ(c.init_seconds, waves * d(init_max) / node_tput + latency);
    EXPECT_EQ(c.traversal_seconds,
              waves * d(traversal_max) / node_tput + shuffle +
                  d(merge_ops) / cluster.node_cpu.thread_ops_per_sec() +
                  latency * cluster.shuffle_rounds);
    EXPECT_EQ(c.init_ops, init_total);
    EXPECT_EQ(c.traversal_ops, traversal_total + merge_ops);
  }
}

}  // namespace
}  // namespace gtadoc
