#include <gtest/gtest.h>

#include <cstdio>

#include "analytics/uncompressed.h"
#include "datagen/datagen.h"
#include "format/dag.h"
#include "format/serializer.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "tadoc/cpu_engine.h"

namespace gtadoc {
namespace {

/// End-to-end: text corpus -> compress -> serialize -> disk -> parse ->
/// every engine agrees with ground truth on the original text.
TEST(IntegrationTest, FullPipelineAllEnginesAgree) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 8;
  spec.total_tokens = 4000;
  spec.vocabulary = 200;
  spec.seed = 321;
  Corpus corpus = GenerateCorpus(spec);

  auto g = CompressCorpus(corpus);
  ASSERT_TRUE(g.ok());

  const std::string path = testing::TempDir() + "/integration.tdc";
  ASSERT_TRUE(WriteGrammarFile(*g, path).ok());
  auto loaded = ReadGrammarFile(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  // Ground truth comes from the decompressed token streams.
  auto files = ExpandFiles(*loaded);
  ASSERT_TRUE(files.ok());
  UncompressedAnalytics truth_engine(*files);

  CpuTadocOptions copt;
  copt.cpu = gpu::VoltaPlatform().cpu;
  auto cpu = CpuTadocEngine::Create(&*loaded, copt);
  ASSERT_TRUE(cpu.ok());

  GTadocEngine::Options gopt;
  gopt.gpu = gpu::VoltaPlatform().gpu;
  auto gpu_engine = GTadocEngine::Create(&*loaded, gopt);
  ASSERT_TRUE(gpu_engine.ok());

  for (Task task : AllTasks()) {
    AnalyticsResult truth = truth_engine.RunSequential(task);
    auto cr = cpu->Run(task);
    ASSERT_TRUE(cr.ok()) << TaskName(task);
    EXPECT_TRUE(cr->result.SameAs(truth)) << "CPU " << TaskName(task);
    auto gr = (*gpu_engine)->Run(task);
    ASSERT_TRUE(gr.ok()) << TaskName(task);
    EXPECT_TRUE(gr->result.SameAs(truth)) << "GPU " << TaskName(task);
  }
}

TEST(IntegrationTest, DecompressionRoundTripOnAllPresets) {
  for (const DatasetSpec& preset : AllDatasets()) {
    DatasetSpec spec = preset;
    spec.total_tokens = 3000;
    spec.num_files = std::min<uint32_t>(spec.num_files, 16);
    TokenizedCorpus tokens = GenerateTokens(spec);
    auto g = CompressTokens(tokens);
    ASSERT_TRUE(g.ok()) << spec.name;
    auto files = ExpandFiles(*g);
    ASSERT_TRUE(files.ok()) << spec.name;
    EXPECT_EQ(*files, tokens.file_tokens) << spec.name;
  }
}

TEST(IntegrationTest, SerializedSizeBeatsRawForRedundantText) {
  DatasetSpec spec = DatasetE();
  spec.total_tokens = 30000;
  Corpus corpus = GenerateCorpus(spec);
  auto g = CompressCorpus(corpus);
  ASSERT_TRUE(g.ok());
  // Without the dictionary (which raw text also needs only once), the
  // grammar must be much smaller than the raw text.
  const std::string blob = SerializeGrammar(*g, /*include_dictionary=*/false);
  EXPECT_LT(blob.size(), corpus.TotalBytes() / 2);
}

TEST(IntegrationTest, GTadocOnPartitionedGrammars) {
  // The distributed pipeline's partition grammars are valid engine inputs.
  DatasetSpec spec = DatasetC();
  spec.num_files = 12;
  spec.total_tokens = 6000;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, 3);
  ASSERT_TRUE(part.ok());
  GTadocEngine::Options gopt;
  gopt.gpu = gpu::TuringPlatform().gpu;
  for (const Grammar& g : part->partitions) {
    auto engine = GTadocEngine::Create(&g, gopt);
    ASSERT_TRUE(engine.ok());
    auto run = (*engine)->Run(Task::kWordCount);
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(run->result.word_count.empty());
  }
}

TEST(IntegrationTest, StatsMatchAcrossPresets) {
  // Table II harness sanity: every preset compresses, has nonzero rules and
  // a reuse factor above 1.
  for (const DatasetSpec& preset : AllDatasets()) {
    DatasetSpec spec = preset;
    spec.total_tokens = 4000;
    spec.num_files = std::min<uint32_t>(spec.num_files, 20);
    TokenizedCorpus tokens = GenerateTokens(spec);
    auto g = CompressTokens(tokens);
    ASSERT_TRUE(g.ok());
    auto stats = ComputeDagStats(*g);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->num_rules, 1u) << spec.name;
    EXPECT_GT(stats->reuse_factor, 1.0) << spec.name;
    EXPECT_EQ(stats->num_files, g->num_files()) << spec.name;
    EXPECT_EQ(stats->expanded_tokens, tokens.total_tokens()) << spec.name;
  }
}

}  // namespace
}  // namespace gtadoc
