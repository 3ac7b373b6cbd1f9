#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "analytics/task_kernel.h"
#include "analytics/uncompressed.h"
#include "common/hash.h"
#include "common/random.h"
#include "datagen/datagen.h"
#include "format/dag.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "sequitur/tokenizer.h"
#include "tadoc/cpu_engine.h"
#include "tadoc/parallel_engine.h"
#include "tadoc/strategy.h"

namespace gtadoc {
namespace {

/// The ten built-in tasks (the paper's six + keywordSearch + the two
/// StateLayout proof kernels + phraseSearch on the multi-query seam).
std::vector<Task> BuiltinTasks() {
  std::vector<Task> tasks = AllTasks();
  tasks.push_back(Task::kKeywordSearch);
  tasks.push_back(Task::kTopKWords);
  tasks.push_back(Task::kTfIdf);
  tasks.push_back(Task::kPhraseSearch);
  return tasks;
}

GTadocEngine::Options GpuOptions(std::vector<uint32_t> query = {}) {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;  // deterministic
  opt.query_words = std::move(query);
  return opt;
}

CpuTadocOptions CpuOptions(std::vector<uint32_t> query = {}) {
  CpuTadocOptions opt;
  opt.cpu = gpu::PascalPlatform().cpu;
  opt.query_words = std::move(query);
  return opt;
}

struct Prepared {
  TokenizedCorpus tokens;
  Grammar grammar;
};

Prepared PrepareCorpus(uint32_t num_files, uint64_t total_tokens,
                       uint64_t seed) {
  DatasetSpec spec = DatasetA();
  spec.num_files = num_files;
  spec.total_tokens = total_tokens;
  spec.vocabulary = 200;
  spec.seed = seed;
  Prepared p;
  p.tokens = GenerateTokens(spec);
  auto g = CompressTokenStreams(p.tokens.file_tokens,
                                static_cast<uint32_t>(p.tokens.words.size()));
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  p.grammar = std::move(*g);
  return p;
}

// -------------------------------------------------------------- registry ---

TEST(TaskRegistryTest, EveryBuiltinRoundTripsThroughGet) {
  for (Task task : BuiltinTasks()) {
    auto kernel = TaskRegistry::Get(task);
    ASSERT_TRUE(kernel.ok()) << static_cast<int>(task);
    EXPECT_EQ((*kernel)->task(), task);
    EXPECT_STREQ((*kernel)->name(), TaskName(task));
    EXPECT_NE(TaskRegistry::Find(task), nullptr);
  }
}

TEST(TaskRegistryTest, RegisteredTasksCoversBuiltins) {
  const std::vector<Task> registered = TaskRegistry::RegisteredTasks();
  for (Task task : BuiltinTasks()) {
    EXPECT_NE(std::find(registered.begin(), registered.end(), task),
              registered.end())
        << TaskName(task);
  }
}

TEST(TaskRegistryTest, UnknownIdReturnsCleanStatus) {
  const Task bogus = static_cast<Task>(912);
  auto kernel = TaskRegistry::Get(bogus);
  EXPECT_FALSE(kernel.ok());
  EXPECT_TRUE(kernel.status().IsNotFound()) << kernel.status().ToString();
  EXPECT_EQ(TaskRegistry::Find(bogus), nullptr);
  EXPECT_STREQ(TaskName(bogus), "?");
  EXPECT_FALSE(IsSequenceTask(bogus));
}

/// Minimal kernel used by the registration tests.
class NoopKernel : public TaskKernel {
 public:
  explicit NoopKernel(int id) : id_(id) {}
  Task task() const override { return static_cast<Task>(id_); }
  const char* name() const override { return "noop"; }
  TraversalShape shape() const override {
    return TraversalShape::kGlobalWeight;
  }
  void Merge(const AnalyticsResult&, uint32_t, AnalyticsResult*,
             uint64_t*) const override {}
  uint64_t ResultBytes(const AnalyticsResult&, uint32_t) const override {
    return 0;
  }
  bool Equal(const AnalyticsResult&, const AnalyticsResult&) const override {
    return true;
  }
  void DigestFold(const AnalyticsResult&, uint64_t*, size_t*) const override {}
  AnalyticsResult RunUncompressed(const std::vector<std::vector<uint32_t>>&,
                                  const TaskInput&,
                                  CpuCostMeter*) const override {
    return AnalyticsResult{};
  }

 private:
  int id_;
};

TEST(TaskRegistryTest, DuplicateAndNullRegistrationsFail) {
  TaskRegistry& registry = TaskRegistry::Instance();
  EXPECT_FALSE(registry.Register(nullptr).ok());
  ASSERT_TRUE(registry.Register(std::make_unique<NoopKernel>(901)).ok());
  EXPECT_NE(TaskRegistry::Find(static_cast<Task>(901)), nullptr);
  // Same id again: rejected, the first registration stays.
  EXPECT_FALSE(registry.Register(std::make_unique<NoopKernel>(901)).ok());
  // A built-in id cannot be shadowed either.
  EXPECT_FALSE(TaskRegistry::Instance()
                   .Register(std::make_unique<NoopKernel>(
                       static_cast<int>(Task::kWordCount)))
                   .ok());
}

TEST(TaskRegistryTest, EnginesRejectUnknownTasks) {
  const Task bogus = static_cast<Task>(913);
  Prepared p = PrepareCorpus(4, 3000, 3);

  auto gpu = GTadocEngine::Create(&p.grammar, GpuOptions());
  ASSERT_TRUE(gpu.ok());
  EXPECT_TRUE((*gpu)->Run(bogus).status().IsNotFound());

  auto cpu = CpuTadocEngine::Create(&p.grammar, CpuOptions());
  ASSERT_TRUE(cpu.ok());
  EXPECT_TRUE(cpu->Run(bogus).status().IsNotFound());

  UncompressedAnalytics uncompressed(p.tokens.file_tokens);
  gpu::Device device(gpu::PascalPlatform().gpu, 1);
  EXPECT_TRUE(uncompressed.RunOnDevice(bogus, &device).status().IsNotFound());
}

TEST(TaskKernelTest, ShapeMetadata) {
  EXPECT_EQ(TaskRegistry::Find(Task::kWordCount)->shape(),
            TraversalShape::kGlobalWeight);
  EXPECT_EQ(TaskRegistry::Find(Task::kSort)->shape(),
            TraversalShape::kGlobalWeight);
  EXPECT_EQ(TaskRegistry::Find(Task::kInvertedIndex)->shape(),
            TraversalShape::kPerFileWeight);
  EXPECT_EQ(TaskRegistry::Find(Task::kTermVector)->shape(),
            TraversalShape::kPerFileWeight);
  EXPECT_EQ(TaskRegistry::Find(Task::kSequenceCount)->shape(),
            TraversalShape::kSequence);
  EXPECT_EQ(TaskRegistry::Find(Task::kRankedInvertedIndex)->shape(),
            TraversalShape::kSequence);
  EXPECT_EQ(TaskRegistry::Find(Task::kKeywordSearch)->shape(),
            TraversalShape::kPerFileWeight);
  EXPECT_EQ(TaskRegistry::Find(Task::kTopKWords)->shape(),
            TraversalShape::kPerFileWeight);
  EXPECT_EQ(TaskRegistry::Find(Task::kTfIdf)->shape(),
            TraversalShape::kPerFileWeight);
  EXPECT_EQ(TaskRegistry::Find(Task::kPhraseSearch)->shape(),
            TraversalShape::kSequence);
  EXPECT_TRUE(IsSequenceTask(Task::kSequenceCount));
  EXPECT_TRUE(IsSequenceTask(Task::kPhraseSearch));
  EXPECT_FALSE(IsSequenceTask(Task::kKeywordSearch));
  EXPECT_STREQ(TraversalShapeName(TraversalShape::kPerFileWeight),
               "perFileWeight");
}

// Every built-in kernel's canonical layout is consistent with its shape, and
// the layouts expose the geometry the drivers size pool regions from.
TEST(TaskKernelTest, CanonicalLayoutsMatchShapes) {
  StateDims dims;
  dims.num_files = 8;
  dims.num_words = 100;
  const TaskKernel* word_count = TaskRegistry::Find(Task::kWordCount);
  EXPECT_STREQ(word_count->Layout(TraversalStrategy::kTopDown).name(),
               "scalarWeight");
  EXPECT_STREQ(word_count->Layout(TraversalStrategy::kBottomUp).name(),
               "localWordTable");
  const TaskKernel* term_vector = TaskRegistry::Find(Task::kTermVector);
  EXPECT_STREQ(term_vector->Layout(TraversalStrategy::kTopDown).name(),
               "densePerFile");
  EXPECT_STREQ(TaskRegistry::Find(Task::kSequenceCount)
                   ->Layout(TraversalStrategy::kTopDown)
                   .name(),
               "headTail");
  // Geometry: dense per-file regions grow with the file count, local tables
  // with the content bound, scalar weights not at all.
  EXPECT_EQ(ScalarWeightLayout().SlotsForBound(dims, 1), 1u);
  EXPECT_EQ(DensePerFileLayout().SlotsForBound(dims, 8), 1u + 16u);
  EXPECT_GE(LocalWordTableLayout().SlotsForBound(dims, 10), 1u + 2u * 20u);
  dims.ngram_len = 4;
  EXPECT_EQ(HeadTailLayout().SlotsForBound(dims, 3), 1u + 6u);
}

// The distinct-key hint: selective kernels advertise query-sized tables,
// non-selective ones vocabulary-sized, sequence kernels none.
TEST(TaskKernelTest, ExpectedDistinctKeysTracksSelectivity) {
  StateDims dims;
  dims.num_files = 10;
  dims.num_words = 1000;
  TaskInput input;
  input.query_words = {1, 2, 3};
  EXPECT_EQ(TaskRegistry::Find(Task::kWordCount)
                ->ExpectedDistinctKeys(dims, input),
            1000u);
  EXPECT_EQ(TaskRegistry::Find(Task::kInvertedIndex)
                ->ExpectedDistinctKeys(dims, input),
            10000u);
  EXPECT_EQ(TaskRegistry::Find(Task::kKeywordSearch)
                ->ExpectedDistinctKeys(dims, input),
            30u);
  EXPECT_EQ(TaskRegistry::Find(Task::kSequenceCount)
                ->ExpectedDistinctKeys(dims, input),
            0u);
}

// The kernel's strategy hint is the single task->strategy mapping: the
// selector and both engines must agree with it.
TEST(TaskKernelTest, StrategyHintDrivesSelectorAndEngines) {
  Prepared few = PrepareCorpus(4, 3000, 5);
  Prepared many = PrepareCorpus(40, 8000, 6);
  auto few_dag = DagView::Build(few.grammar);
  auto many_dag = DagView::Build(many.grammar);
  ASSERT_TRUE(few_dag.ok());
  ASSERT_TRUE(many_dag.ok());

  for (Task task : {Task::kWordCount, Task::kSort}) {
    EXPECT_EQ(SelectStrategy(task, few.grammar, *few_dag),
              TraversalStrategy::kTopDown);
    EXPECT_EQ(SelectStrategy(task, many.grammar, *many_dag),
              TraversalStrategy::kTopDown);
  }
  for (Task task : {Task::kInvertedIndex, Task::kTermVector,
                    Task::kKeywordSearch, Task::kSequenceCount,
                    Task::kTopKWords, Task::kTfIdf}) {
    EXPECT_EQ(SelectStrategy(task, few.grammar, *few_dag),
              TraversalStrategy::kTopDown)
        << TaskName(task);
    EXPECT_EQ(SelectStrategy(task, many.grammar, *many_dag),
              TraversalStrategy::kBottomUp)
        << TaskName(task);
  }

  // Engines read the same hint.
  auto gpu = GTadocEngine::Create(&many.grammar, GpuOptions());
  ASSERT_TRUE(gpu.ok());
  auto cpu = CpuTadocEngine::Create(&many.grammar, CpuOptions());
  ASSERT_TRUE(cpu.ok());
  for (Task task : BuiltinTasks()) {
    const TraversalStrategy hint = TaskRegistry::Find(task)->PreferredStrategy(
        many.grammar, *many_dag, TaskInput{});
    EXPECT_EQ((*gpu)->ChosenStrategy(task), hint) << TaskName(task);
    EXPECT_EQ(cpu->ChosenStrategy(task), hint) << TaskName(task);
  }
}

// ------------------------------------- cross-engine result consistency ---

class AllEnginesAgree : public testing::TestWithParam<int> {};

// The framework's core guarantee, table-driven over all seven built-in
// tasks on random corpora: GPU (both traversal directions), both CPU
// engines, and the GPU-uncompressed baseline all equal the kernel's own
// uncompressed reference loop.
TEST_P(AllEnginesAgree, OnRandomCorpora) {
  const Task task = BuiltinTasks()[GetParam()];
  struct Config {
    uint32_t num_files;
    uint64_t tokens;
    uint64_t seed;
  };
  for (const Config& cfg : {Config{3, 4000, 11}, Config{24, 9000, 12}}) {
    SCOPED_TRACE(testing::Message() << TaskName(task) << " files="
                                    << cfg.num_files);
    Prepared p = PrepareCorpus(cfg.num_files, cfg.tokens, cfg.seed);
    // A mixed query: common ids, a rare id, and one absent from the corpus.
    const std::vector<uint32_t> query = {1, 3, 9, 150, 100000};

    UncompressedAnalytics uncompressed(p.tokens.file_tokens, 3, query);
    const AnalyticsResult truth = uncompressed.RunSequential(task);

    auto gpu = GTadocEngine::Create(&p.grammar, GpuOptions(query));
    ASSERT_TRUE(gpu.ok()) << gpu.status().ToString();
    for (TraversalStrategy strategy :
         {TraversalStrategy::kAuto, TraversalStrategy::kTopDown,
          TraversalStrategy::kBottomUp}) {
      auto run = (*gpu)->Run(task, strategy);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(run->result.SameAs(truth))
          << StrategyName(strategy) << ": " << run->result.Digest() << " vs "
          << truth.Digest();
    }

    auto cpu = CpuTadocEngine::Create(&p.grammar, CpuOptions(query));
    ASSERT_TRUE(cpu.ok());
    for (TraversalStrategy strategy :
         {TraversalStrategy::kTopDown, TraversalStrategy::kBottomUp}) {
      auto run = cpu->Run(task, strategy);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(run->result.SameAs(truth))
          << StrategyName(strategy) << ": " << run->result.Digest() << " vs "
          << truth.Digest();
    }

    gpu::Device device(gpu::PascalPlatform().gpu, 1);
    auto unc_dev = uncompressed.RunOnDevice(task, &device);
    ASSERT_TRUE(unc_dev.ok()) << unc_dev.status().ToString();
    EXPECT_TRUE(unc_dev->result.SameAs(truth))
        << unc_dev->result.Digest() << " vs " << truth.Digest();
  }
}

INSTANTIATE_TEST_SUITE_P(TenTasks, AllEnginesAgree, testing::Range(0, 10),
                         [](const auto& info) {
                           return std::string(
                               TaskName(BuiltinTasks()[info.param]));
                         });

// --------------------------------------------------------- keywordSearch ---

TEST(KeywordSearchTest, HandComputedTinyCorpus) {
  // file0: a b a c   file1: b a b   file2: d d  (ids a=0 b=1 c=2 d=3)
  const std::vector<std::vector<uint32_t>> files = {
      {0, 1, 0, 2}, {1, 0, 1}, {3, 3}};
  auto grammar = CompressTokenStreams(files, 4);
  ASSERT_TRUE(grammar.ok());
  const std::vector<uint32_t> query = {0, 2};  // a, c

  // a and c: file0 holds a,a,c = 3 hits; file1 holds a = 1 hit; file2 none.
  const KeywordSearchResult expected = {{0, 3}, {1, 1}};

  UncompressedAnalytics uncompressed(files, 3, query);
  const AnalyticsResult truth =
      uncompressed.RunSequential(Task::kKeywordSearch);
  EXPECT_EQ(truth.keyword_search, expected);

  auto gpu = GTadocEngine::Create(&*grammar, GpuOptions(query));
  ASSERT_TRUE(gpu.ok());
  auto gpu_run = (*gpu)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(gpu_run.ok()) << gpu_run.status().ToString();
  EXPECT_EQ(gpu_run->result.keyword_search, expected);

  auto cpu = CpuTadocEngine::Create(&*grammar, CpuOptions(query));
  ASSERT_TRUE(cpu.ok());
  auto cpu_run = cpu->Run(Task::kKeywordSearch);
  ASSERT_TRUE(cpu_run.ok());
  EXPECT_EQ(cpu_run->result.keyword_search, expected);
}

TEST(KeywordSearchTest, EmptyAndAbsentQueriesReturnNoDocuments) {
  Prepared p = PrepareCorpus(6, 4000, 17);
  for (const std::vector<uint32_t>& query :
       {std::vector<uint32_t>{}, std::vector<uint32_t>{100000, 100001}}) {
    auto gpu = GTadocEngine::Create(&p.grammar, GpuOptions(query));
    ASSERT_TRUE(gpu.ok());
    auto run = (*gpu)->Run(Task::kKeywordSearch);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->result.keyword_search.empty());
  }
}

// The grammar exploit: a selective scan prunes rules without query words, so
// it does strictly less traversal work than the per-file task that must
// touch every word.
TEST(KeywordSearchTest, SelectiveScanDoesLessWorkThanFullFileTask) {
  Prepared p = PrepareCorpus(8, 20000, 19);
  const std::vector<uint32_t> query = {7};  // one word
  auto gpu = GTadocEngine::Create(&p.grammar, GpuOptions(query));
  ASSERT_TRUE(gpu.ok());
  auto keyword = (*gpu)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(keyword.ok());
  auto inverted = (*gpu)->Run(Task::kInvertedIndex);
  ASSERT_TRUE(inverted.ok());
  EXPECT_LT(keyword->timing.traversal_ops, inverted->timing.traversal_ops);
}

// ------------------------------------------- topKWords / tfIdf (layouts) ---

TEST(TopKWordsTest, HandComputedTinyCorpus) {
  // file0: a b a c   file1: b a b   file2: d d  (ids a=0 b=1 c=2 d=3)
  const std::vector<std::vector<uint32_t>> files = {
      {0, 1, 0, 2}, {1, 0, 1}, {3, 3}};
  auto grammar = CompressTokenStreams(files, 4);
  ASSERT_TRUE(grammar.ok());

  GTadocEngine::Options gopt = GpuOptions();
  gopt.top_k = 1;
  auto gpu = GTadocEngine::Create(&*grammar, gopt);
  ASSERT_TRUE(gpu.ok());
  auto run = (*gpu)->Run(Task::kTopKWords);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const TopKWordsResult expected = {{{0, 2}}, {{1, 2}}, {{3, 2}}};
  EXPECT_EQ(run->result.top_k_words, expected);

  // k larger than any vocabulary degrades to the full termVector ordering.
  gopt.top_k = 100;
  auto gpu_all = GTadocEngine::Create(&*grammar, gopt);
  ASSERT_TRUE(gpu_all.ok());
  auto run_all = (*gpu_all)->Run(Task::kTopKWords);
  ASSERT_TRUE(run_all.ok());
  EXPECT_EQ(run_all->result.top_k_words[0].size(), 3u);  // a, c, b by rank
  EXPECT_EQ(run_all->result.top_k_words[0][0], (std::pair<uint32_t, uint64_t>{
                                                   0, 2}));

  // k = 0 selects nothing but keeps the per-file structure.
  gopt.top_k = 0;
  auto gpu_none = GTadocEngine::Create(&*grammar, gopt);
  ASSERT_TRUE(gpu_none.ok());
  auto run_none = (*gpu_none)->Run(Task::kTopKWords);
  ASSERT_TRUE(run_none.ok());
  ASSERT_EQ(run_none->result.top_k_words.size(), 3u);
  for (const auto& vec : run_none->result.top_k_words) {
    EXPECT_TRUE(vec.empty());
  }
}

TEST(TfIdfTest, RareWordsOutrankFrequentOnes) {
  // file0: a b a c   file1: b a b   file2: d d. df: a=2 b=2 c=1 d=1, N=3.
  const std::vector<std::vector<uint32_t>> files = {
      {0, 1, 0, 2}, {1, 0, 1}, {3, 3}};
  auto grammar = CompressTokenStreams(files, 4);
  ASSERT_TRUE(grammar.ok());

  auto gpu = GTadocEngine::Create(&*grammar, GpuOptions());
  ASSERT_TRUE(gpu.ok());
  auto run = (*gpu)->Run(Task::kTfIdf);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const TfIdfResult& tfidf = run->result.tf_idf;
  ASSERT_EQ(tfidf.size(), 3u);
  // file0 holds a(tf 2, df 2), b(tf 1, df 2), c(tf 1, df 1): the rare c
  // outranks the frequent a because idf(3/1) > 2 * idf(3/2).
  ASSERT_EQ(tfidf[0].size(), 3u);
  EXPECT_EQ(tfidf[0][0].word, 2u);
  EXPECT_EQ(tfidf[0][0].tf, 1u);
  EXPECT_EQ(tfidf[0][1].word, 0u);
  EXPECT_EQ(tfidf[0][1].tf, 2u);
  EXPECT_EQ(tfidf[0][2].word, 1u);
  EXPECT_GT(tfidf[0][0].score, tfidf[0][1].score);

  // The reference loop agrees bit-for-bit (integer fixed-point idf).
  UncompressedAnalytics uncompressed(files);
  EXPECT_TRUE(run->result.SameAs(uncompressed.RunSequential(Task::kTfIdf)));
}

TEST(StateLayoutKernelsTest, RunThroughBatchAndParallelEngines) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 12;
  spec.total_tokens = 8000;
  spec.vocabulary = 250;
  spec.seed = 29;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, 4);
  ASSERT_TRUE(part.ok());
  TokenizedCorpus tokens = Tokenize(corpus);
  UncompressedAnalytics uncompressed(tokens.file_tokens);

  for (Task task : {Task::kTopKWords, Task::kTfIdf}) {
    SCOPED_TRACE(TaskName(task));
    const AnalyticsResult truth = uncompressed.RunSequential(task);

    BatchEngine::Options bopt;
    bopt.engine = GpuOptions();
    auto batch = BatchEngine::Create(&*part, bopt);
    ASSERT_TRUE(batch.ok());
    auto batch_run = (*batch)->Run(task);
    ASSERT_TRUE(batch_run.ok()) << batch_run.status().ToString();
    EXPECT_TRUE(batch_run->merged.SameAs(truth))
        << batch_run->merged.Digest() << " vs " << truth.Digest();

    auto parallel = ParallelTadocEngine::Create(&*part, CpuOptions());
    ASSERT_TRUE(parallel.ok());
    auto parallel_run = parallel->Run(task);
    ASSERT_TRUE(parallel_run.ok());
    EXPECT_TRUE(parallel_run->result.SameAs(truth))
        << parallel_run->result.Digest() << " vs " << truth.Digest();
  }
}

// ----------------------------------------- custom out-of-tree StateLayout ---

/// A custom accumulator shape no canonical layout provides: one presence bit
/// per file (1/128th of the dense-per-file footprint), merged with bitwise
/// OR. Registered from this test, mirroring examples/custom_task.cpp.
class FilePresenceLayout : public StateLayout {
 public:
  const char* name() const override { return "filePresence"; }

  uint64_t SlotsForBound(const StateDims& dims, uint64_t bound) const override {
    (void)bound;
    return (dims.num_files + 63) / 64;
  }
  uint64_t PropagatedBytesPerRule(const StateDims& dims) const override {
    return 8ull * ((dims.num_files + 63) / 64);
  }

  void Absorb(StateView s, uint32_t file, uint64_t delta,
              StateOps& ops) const override {
    (void)delta;  // presence only — weights are deliberately dropped
    ops.Atomic(1);
    s.atomic_at(file / 64).fetch_or(1ull << (file % 64),
                                    std::memory_order_relaxed);
  }

  uint64_t EntryCount(StateView s) const override {
    uint64_t bits = 0;
    for (uint64_t i = 0; i < s.slots(); ++i) {
      uint64_t v = s.at(i);
      while (v != 0) {
        v &= v - 1;
        ++bits;
      }
    }
    return bits;
  }
  uint64_t ReadableSlots(StateView s) const override { return s.slots() * 64; }
  bool ReadSlot(StateView s, uint64_t slot, uint32_t* key,
                uint64_t* value) const override {
    if ((s.at(slot / 64) & (1ull << (slot % 64))) == 0) return false;
    *key = static_cast<uint32_t>(slot);
    *value = 1;
    return true;
  }
};

constexpr Task kDocFrequency = static_cast<Task>(950);

/// word -> number of files containing it. Counts need only presence, so the
/// kernel overrides the canonical dense-per-file top-down layout with the
/// 64x-smaller presence bitmap; bottom-up keeps the canonical local tables.
/// The unmodified drivers run both.
class DocFrequencyKernel : public TaskKernel {
 public:
  Task task() const override { return kDocFrequency; }
  const char* name() const override { return "docFrequency"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  const StateLayout& Layout(TraversalStrategy strategy) const override {
    static const FilePresenceLayout* presence = new FilePresenceLayout();
    if (strategy == TraversalStrategy::kBottomUp) {
      return LocalWordTableLayout();
    }
    return *presence;
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    (void)num_files;
    // One triple per (file, word) with any positive count: df is the number
    // of triples a word appears in.
    for (const FileWordCount& e : counts) ++out->word_count[e.word];
    ops->ChargeUpdates(counts.size());
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    (void)file_base;  // files are disjoint across documents: df sums
    for (const auto& [w, c] : doc.word_count) {
      acc->word_count[w] += c;
      ++*merge_ops;
    }
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    return r.word_count.size() * 12;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.word_count == b.word_count;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [w, c] : r.word_count) {
      *h = HashCombine(HashCombine(*h, w), c);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = kDocFrequency;
    for (const auto& file : files) {
      std::vector<uint32_t> seen(file.begin(), file.end());
      std::sort(seen.begin(), seen.end());
      seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
      for (uint32_t w : seen) ++out.word_count[w];
      if (meter != nullptr) meter->Charge(file.size() * 2);
    }
    return out;
  }
};

// A layout registered from outside the tree drives the unmodified drivers:
// both engines, both traversal directions, identical results — and the
// presence bitmap's footprint is a fraction of the canonical dense state.
TEST(StateLayoutKernelsTest, CustomLayoutRunsThroughUnmodifiedDrivers) {
  static const bool registered = [] {
    return TaskRegistry::Instance()
        .Register(std::make_unique<DocFrequencyKernel>())
        .ok();
  }();
  ASSERT_TRUE(registered);

  Prepared p = PrepareCorpus(24, 9000, 31);
  UncompressedAnalytics uncompressed(p.tokens.file_tokens);
  const AnalyticsResult truth = uncompressed.RunSequential(kDocFrequency);
  ASSERT_FALSE(truth.word_count.empty());

  auto gpu = GTadocEngine::Create(&p.grammar, GpuOptions());
  ASSERT_TRUE(gpu.ok());
  for (TraversalStrategy strategy :
       {TraversalStrategy::kTopDown, TraversalStrategy::kBottomUp}) {
    auto run = (*gpu)->Run(kDocFrequency, strategy);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->result.SameAs(truth))
        << StrategyName(strategy) << ": " << run->result.Digest() << " vs "
        << truth.Digest();
  }
  auto cpu = CpuTadocEngine::Create(&p.grammar, CpuOptions());
  ASSERT_TRUE(cpu.ok());
  for (TraversalStrategy strategy :
       {TraversalStrategy::kTopDown, TraversalStrategy::kBottomUp}) {
    auto run = cpu->Run(kDocFrequency, strategy);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->result.SameAs(truth)) << StrategyName(strategy);
  }

  // The custom layout is what the drivers size regions from: a presence
  // bitmap for 24 files is one slot against the dense layout's 49.
  StateDims dims;
  dims.num_files = 24;
  const DocFrequencyKernel kernel;
  EXPECT_EQ(kernel.Layout(TraversalStrategy::kTopDown)
                .SlotsForBound(dims, dims.num_files),
            1u);
  EXPECT_EQ(DensePerFileLayout().SlotsForBound(dims, dims.num_files), 49u);
}

TEST(KeywordSearchTest, RunsThroughBatchAndParallelEngines) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 12;
  spec.total_tokens = 8000;
  spec.vocabulary = 250;
  spec.seed = 23;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, 4);
  ASSERT_TRUE(part.ok());
  const std::vector<uint32_t> query = {2, 5, 11};

  TokenizedCorpus tokens = Tokenize(corpus);
  UncompressedAnalytics uncompressed(tokens.file_tokens, 3, query);
  const AnalyticsResult truth =
      uncompressed.RunSequential(Task::kKeywordSearch);
  ASSERT_FALSE(truth.keyword_search.empty());

  BatchEngine::Options bopt;
  bopt.engine = GpuOptions(query);
  auto batch = BatchEngine::Create(&*part, bopt);
  ASSERT_TRUE(batch.ok());
  auto batch_run = (*batch)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(batch_run.ok()) << batch_run.status().ToString();
  EXPECT_TRUE(batch_run->merged.SameAs(truth))
      << batch_run->merged.Digest() << " vs " << truth.Digest();

  auto parallel = ParallelTadocEngine::Create(&*part, CpuOptions(query));
  ASSERT_TRUE(parallel.ok());
  auto parallel_run = parallel->Run(Task::kKeywordSearch);
  ASSERT_TRUE(parallel_run.ok());
  EXPECT_TRUE(parallel_run->result.SameAs(truth))
      << parallel_run->result.Digest() << " vs " << truth.Digest();
}

// ----------------------------------------------- flat sequence results ---
//
// sequenceCount and rankedInvertedIndex results are flat sorted arrays. A
// property test checks them against the std::map model they replaced:
// same contents, same iteration order (so the same digests), same charges.

/// The map types the flat results replaced.
using SequenceMap =
    std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint64_t>;
using Postings = std::vector<std::pair<uint32_t, uint64_t>>;
using RankedMap = std::map<std::vector<uint32_t>, Postings>;

bool CountDescFileAsc(const std::pair<uint32_t, uint64_t>& a,
                      const std::pair<uint32_t, uint64_t>& b) {
  return a.second != b.second ? a.second > b.second : a.first < b.first;
}

/// AssemblyOps that records every charge as (name, a, b).
class RecordingOps : public AssemblyOps {
 public:
  using Call = std::tuple<std::string, uint64_t, uint64_t>;

  void ChargeUpdates(uint64_t n) override {
    calls.emplace_back("updates", n, 0);
  }
  void ChargeSort(uint64_t n) override { calls.emplace_back("sort", n, 0); }
  void ChargeGroupSort(uint64_t groups, uint64_t entries) override {
    calls.emplace_back("groupSort", groups, entries);
  }
  void SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* kv) override {
    (void)kv;
    ADD_FAILURE() << "sequence assembly must not call SortPairs";
  }
  void SelectTopK(
      uint32_t k,
      std::vector<std::vector<std::pair<uint32_t, uint64_t>>>* groups)
      override {
    (void)k;
    (void)groups;
    ADD_FAILURE() << "sequence assembly must not call SelectTopK";
  }

  std::vector<Call> calls;
};

/// A random drained table: keys drawn from a small pool so (file, gram)
/// keys and grams across files repeat, in shuffled order. `entries` may be 0.
gpu::NgramCounts RandomDrain(Rng* rng, uint32_t l, uint32_t num_files,
                             size_t entries) {
  gpu::NgramCounts drain;
  drain.ngram_len = l;
  std::vector<uint32_t> gram(l);
  for (size_t i = 0; i < entries; ++i) {
    for (uint32_t& w : gram) w = static_cast<uint32_t>(rng->Uniform(3));
    drain.Add(static_cast<uint32_t>(rng->Uniform(num_files)), gram.data(),
              1 + rng->Uniform(4));
  }
  return drain;
}

std::vector<uint32_t> GramOf(const gpu::NgramCounts& d, size_t i) {
  return std::vector<uint32_t>(d.gram(i), d.gram(i) + d.ngram_len);
}

/// `d`'s entries in a random order.
gpu::NgramCounts Shuffled(const gpu::NgramCounts& d, Rng* rng) {
  std::vector<size_t> order(d.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  gpu::NgramCounts out;
  out.ngram_len = d.ngram_len;
  for (size_t i : order) out.Add(d.files[i], d.gram(i), d.counts[i]);
  return out;
}

template <typename Span>
std::vector<uint32_t> ToVector(const Span& span) {
  return std::vector<uint32_t>(span.begin(), span.end());
}

SequenceMap SequenceModel(const gpu::NgramCounts& d) {
  SequenceMap m;
  for (size_t i = 0; i < d.size(); ++i) {
    m[{d.files[i], GramOf(d, i)}] += d.counts[i];
  }
  return m;
}

RankedMap RankedModel(const gpu::NgramCounts& d) {
  RankedMap m;
  for (size_t i = 0; i < d.size(); ++i) {
    m[GramOf(d, i)].emplace_back(d.files[i], d.counts[i]);
  }
  for (auto& [gram, list] : m) {
    std::sort(list.begin(), list.end(), CountDescFileAsc);
  }
  return m;
}

SequenceMap ToMap(const SequenceCountResult& r) {
  SequenceMap m;
  for (size_t i = 0; i < r.size(); ++i) {
    m[{r.files[i], ToVector(r.gram(i))}] += r.counts[i];
  }
  return m;
}

RankedMap ToMap(const RankedInvertedIndexResult& r) {
  RankedMap m;
  for (size_t g = 0; g < r.size(); ++g) {
    auto& list = m[ToVector(r.gram(g))];
    for (const auto& posting : r.postings_at(g)) list.push_back(posting);
  }
  return m;
}

/// The map-order digest folds the flat results must reproduce.
std::pair<uint64_t, size_t> MapFold(const SequenceMap& m) {
  uint64_t h = 0;
  size_t entries = 0;
  for (const auto& [key, c] : m) {
    h = HashCombine(h, key.first);
    for (uint32_t w : key.second) h = HashCombine(h, w);
    h = HashCombine(h, c);
    ++entries;
  }
  return {h, entries};
}

std::pair<uint64_t, size_t> MapFold(const RankedMap& m) {
  uint64_t h = 0;
  size_t entries = 0;
  for (const auto& [gram, files] : m) {
    for (uint32_t w : gram) h = HashCombine(h, w);
    for (const auto& [f, c] : files) h = HashCombine(HashCombine(h, f), c);
    ++entries;
  }
  return {h, entries};
}

std::pair<uint64_t, size_t> KernelFold(const AnalyticsResult& r) {
  uint64_t h = 0;
  size_t entries = 0;
  TaskRegistry::Find(r.task)->DigestFold(r, &h, &entries);
  return {h, entries};
}

uint64_t MapBytes(const SequenceMap& m, uint32_t l) {
  return m.size() * (12 + 4ull * l);
}

uint64_t MapBytes(const RankedMap& m, uint32_t l) {
  uint64_t bytes = 0;
  for (const auto& [gram, files] : m) bytes += 4ull * l + files.size() * 12;
  return bytes;
}

/// A drained trigram table for the l = 3 radix sorts. Words, files and
/// counts come from pools whose values differ from a neighbour in a single
/// byte (word ids up to 2^32 - 1, counts in both 32-bit halves), so every
/// key digit decides some order. Entries reuse a few grams and counts, so
/// equal counts meet in different files and (file, gram) keys repeat.
gpu::NgramCounts WideTrigramDrain(Rng* rng, size_t entries) {
  static const uint32_t kWords[] = {0,        1,         0x100,     0x10000,
                                    0x400000, 0x1000000, 0xffffffff};
  static const uint32_t kFiles[] = {0,       1,         0x100,
                                    0x10000, 0x1000000, 0xfffffffe};
  static const uint64_t kCounts[] = {1,
                                     0x101,
                                     0x10001,
                                     0x1000001,
                                     0xffffffff,
                                     1ull << 32,
                                     (1ull << 32) + 1,
                                     (1ull << 40) + 1,
                                     (1ull << 48) + 1,
                                     (1ull << 56) + 1};
  std::vector<std::vector<uint32_t>> grams(1 + rng->Uniform(6),
                                           std::vector<uint32_t>(3));
  for (auto& gram : grams) {
    for (uint32_t& w : gram) w = kWords[rng->Uniform(std::size(kWords))];
  }
  gpu::NgramCounts drain;
  drain.ngram_len = 3;
  for (size_t i = 0; i < entries; ++i) {
    drain.Add(kFiles[rng->Uniform(std::size(kFiles))],
              grams[rng->Uniform(grams.size())].data(),
              kCounts[rng->Uniform(std::size(kCounts))]);
  }
  return drain;
}

/// Assembles `drain` with both sequence kernels and checks each result and
/// its charges against the map model. No entry of `drain` is in
/// `absent_file`.
void ExpectAssemblyMatchesMapModel(const gpu::NgramCounts& drain,
                                   uint32_t absent_file) {
  const TaskKernel* seq = TaskRegistry::Find(Task::kSequenceCount);
  const TaskKernel* ranked = TaskRegistry::Find(Task::kRankedInvertedIndex);
  const uint32_t l = drain.ngram_len;
  const uint64_t entries = drain.size();
  TaskInput input;
  input.ngram_len = l;

  AnalyticsResult sc;
  sc.task = Task::kSequenceCount;
  RecordingOps sc_ops;
  seq->AssembleSequence(input, drain, &sc_ops, &sc);
  const SequenceMap sc_model = SequenceModel(drain);
  EXPECT_EQ(ToMap(sc.sequence_count), sc_model);
  EXPECT_EQ(sc.sequence_count.size(), sc_model.size());  // one per key
  EXPECT_EQ(KernelFold(sc), MapFold(sc_model));
  EXPECT_EQ(sc_ops.calls,
            (std::vector<RecordingOps::Call>{{"updates", entries, 0}}));
  EXPECT_EQ(ResultBytes(sc, l), MapBytes(sc_model, l));
  for (const auto& [key, c] : sc_model) {
    EXPECT_EQ(sc.sequence_count.Count(key.first, key.second), c);
  }
  EXPECT_EQ(sc.sequence_count.Count(absent_file, std::vector<uint32_t>(l)),
            0u);
  EXPECT_EQ(sc.sequence_count.Count(0, std::vector<uint32_t>(l, 7)), 0u);

  AnalyticsResult rk;
  rk.task = Task::kRankedInvertedIndex;
  RecordingOps rk_ops;
  ranked->AssembleSequence(input, drain, &rk_ops, &rk);
  const RankedMap rk_model = RankedModel(drain);
  EXPECT_EQ(ToMap(rk.ranked_inverted_index), rk_model);
  EXPECT_EQ(rk.ranked_inverted_index.size(), rk_model.size());
  EXPECT_EQ(KernelFold(rk), MapFold(rk_model));
  EXPECT_EQ(rk_ops.calls, (std::vector<RecordingOps::Call>{
                              {"updates", 2 * entries, 0},
                              {"groupSort", rk_model.size(), entries}}));
  EXPECT_EQ(ResultBytes(rk, l), MapBytes(rk_model, l));
  for (const auto& [gram, list] : rk_model) {
    const auto postings = rk.ranked_inverted_index.Postings(gram);
    EXPECT_EQ(Postings(postings.begin(), postings.end()), list);
  }
  EXPECT_TRUE(
      rk.ranked_inverted_index.Postings(std::vector<uint32_t>(l, 7)).empty());
}

TEST(FlatSequenceResultsTest, AssemblyMatchesMapModel) {
  Rng rng(20261017);
  // 3 packs inline and radix-sorts; 2, 5 and 9 sort through offsets into the
  // word pool.
  for (uint32_t l : {2u, 3u, 5u, 9u}) {
    for (int trial = 0; trial < 40; ++trial) {
      const uint32_t num_files = 1 + static_cast<uint32_t>(rng.Uniform(5));
      const size_t entries = trial % 8 == 0 ? 0 : rng.Uniform(120);
      SCOPED_TRACE(testing::Message() << "l=" << l << " trial=" << trial
                                      << " entries=" << entries);
      ExpectAssemblyMatchesMapModel(RandomDrain(&rng, l, num_files, entries),
                                    num_files);
    }
  }
  for (int trial = 0; trial < 40; ++trial) {
    const size_t entries = trial % 8 == 0 ? 0 : rng.Uniform(200);
    SCOPED_TRACE(testing::Message() << "wide trigrams trial=" << trial
                                    << " entries=" << entries);
    ExpectAssemblyMatchesMapModel(WideTrigramDrain(&rng, entries), 2);
  }
}

/// The (file, gram) entries of one document whose grams are the
/// consecutive run first, first + 1, ... of an ascending gram sequence
/// (gram i is l - 1 zeros, then i). Each gram goes to a random subset of the
/// document's files, with counts from {1, 2, 3}, so equal counts meet in
/// different files.
gpu::NgramCounts ChainedDocDrain(Rng* rng, uint32_t l, uint32_t num_files,
                                 uint32_t first, uint32_t num_grams) {
  gpu::NgramCounts drain;
  drain.ngram_len = l;
  std::vector<uint32_t> gram(l, 0);
  for (uint32_t i = first; i < first + num_grams; ++i) {
    gram[l - 1] = i;
    bool any = false;
    for (uint32_t f = 0; f < num_files; ++f) {
      const bool last_chance = f + 1 == num_files && !any;
      if (last_chance || rng->Bernoulli(0.6)) {
        drain.Add(f, gram.data(), 1 + rng->Uniform(3));
        any = true;
      }
    }
  }
  return drain;
}

TEST(FlatSequenceResultsTest, MergeOrderDoesNotMatter) {
  Rng rng(7);
  for (Task task : {Task::kSequenceCount, Task::kRankedInvertedIndex}) {
    const TaskKernel* kernel = TaskRegistry::Find(task);
    for (uint32_t l : {2u, 3u, 5u, 9u}) {
      for (int trial = 0; trial < 15; ++trial) {
        // Every third trial chains the documents' gram ranges: a document
        // starts at the previous non-empty one's last gram (a shared
        // boundary gram), just after it (one ascending stretch across both)
        // or anywhere, and empty documents sit between non-empty ones.
        const bool chained = trial % 3 == 0;
        SCOPED_TRACE(testing::Message() << TaskName(task) << " l=" << l
                                        << " trial=" << trial
                                        << (chained ? " chained" : ""));
        TaskInput input;
        input.ngram_len = l;
        // Documents as a GPU drain yields them: one entry per key.
        const size_t num_docs =
            chained ? 2 + rng.Uniform(4) : 1 + rng.Uniform(6);
        std::vector<AnalyticsResult> docs(num_docs);
        std::vector<uint32_t> bases(num_docs);
        SequenceMap seq_model;
        RankedMap ranked_model;
        uint32_t next_base = 0;
        uint32_t last_gram = 0;
        for (size_t d = 0; d < num_docs; ++d) {
          const uint32_t num_files = 1 + static_cast<uint32_t>(rng.Uniform(4));
          gpu::NgramCounts drain;
          drain.ngram_len = l;
          if (chained) {
            if (d % 2 == 0 || !rng.Bernoulli(0.5)) {
              const uint64_t kind = d == 0 ? 2 : rng.Uniform(3);
              const uint32_t first =
                  kind == 0   ? last_gram
                  : kind == 1 ? last_gram + 1
                              : static_cast<uint32_t>(rng.Uniform(12));
              const uint32_t num_grams =
                  1 + static_cast<uint32_t>(rng.Uniform(4));
              drain = ChainedDocDrain(&rng, l, num_files, first, num_grams);
              last_gram = first + num_grams - 1;
            }
          } else {
            const size_t entries = rng.Bernoulli(0.2) ? 0 : rng.Uniform(60);
            for (const auto& [key, c] :
                 SequenceModel(RandomDrain(&rng, l, num_files, entries))) {
              drain.Add(key.first, key.second.data(), c);
            }
          }
          drain = Shuffled(drain, &rng);
          for (size_t i = 0; i < drain.size(); ++i) {
            seq_model[{drain.files[i] + next_base, GramOf(drain, i)}] =
                drain.counts[i];
            ranked_model[GramOf(drain, i)].emplace_back(
                drain.files[i] + next_base, drain.counts[i]);
          }
          docs[d].task = task;
          CpuAssembly uncharged(nullptr);
          kernel->AssembleSequence(input, std::move(drain), &uncharged,
                                   &docs[d]);
          bases[d] = next_base;
          next_base += num_files;
        }
        uint64_t model_ops = 0;
        for (auto& [gram, list] : ranked_model) {
          std::sort(list.begin(), list.end(), CountDescFileAsc);
          model_ops += list.size();  // Merge
          if (task == Task::kRankedInvertedIndex) {
            model_ops += 2 * list.size();  // FinalizeMerge
          }
        }

        auto merge = [&](const std::vector<size_t>& order) {
          AnalyticsResult acc;
          acc.task = task;
          uint64_t ops = 0;
          for (size_t d : order) MergeResult(docs[d], bases[d], &acc, &ops);
          FinalizeMergedResult(&acc, &ops);
          return std::make_pair(acc, ops);
        };
        std::vector<size_t> order(num_docs);
        for (size_t d = 0; d < num_docs; ++d) order[d] = d;
        const auto [corpus, corpus_ops] = merge(order);
        EXPECT_EQ(corpus_ops, model_ops);
        if (task == Task::kSequenceCount) {
          EXPECT_EQ(ToMap(corpus.sequence_count), seq_model);
          EXPECT_EQ(KernelFold(corpus), MapFold(seq_model));
          EXPECT_EQ(ResultBytes(corpus, l), MapBytes(seq_model, l));
        } else {
          EXPECT_EQ(ToMap(corpus.ranked_inverted_index), ranked_model);
          EXPECT_EQ(KernelFold(corpus), MapFold(ranked_model));
          EXPECT_EQ(ResultBytes(corpus, l), MapBytes(ranked_model, l));
        }

        // Chained trials try every merge order; the others one shuffle.
        std::vector<std::vector<size_t>> orders;
        if (chained) {
          while (std::next_permutation(order.begin(), order.end())) {
            orders.push_back(order);
          }
        } else {
          for (size_t i = num_docs; i > 1; --i) {
            std::swap(order[i - 1], order[rng.Uniform(i)]);
          }
          orders.push_back(order);
        }
        for (const std::vector<size_t>& o : orders) {
          const auto [merged, merged_ops] = merge(o);
          EXPECT_TRUE(merged.SameAs(corpus))
              << merged.Digest() << " vs " << corpus.Digest();
          EXPECT_EQ(merged.Digest(), corpus.Digest());
          EXPECT_EQ(merged_ops, model_ops);
        }
      }
    }
  }
}

TEST(FlatSequenceResultsTest, DefaultAndMovedFromRankedResultsHaveNoGrams) {
  const RankedInvertedIndexResult fresh;
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_TRUE(fresh.empty());
  EXPECT_TRUE(fresh.Postings({}).empty());

  gpu::NgramCounts drain;
  drain.ngram_len = 2;
  const uint32_t ab[] = {0, 1};
  drain.Add(0, ab, 3);
  drain.Add(1, ab, 5);
  TaskInput input;
  input.ngram_len = 2;
  AnalyticsResult doc;
  doc.task = Task::kRankedInvertedIndex;
  CpuAssembly uncharged(nullptr);
  TaskRegistry::Find(doc.task)->AssembleSequence(input, drain, &uncharged,
                                                 &doc);
  ASSERT_EQ(doc.ranked_inverted_index.size(), 1u);

  AnalyticsResult source = doc;
  const RankedInvertedIndexResult taken(
      std::move(source.ranked_inverted_index));
  EXPECT_EQ(taken, doc.ranked_inverted_index);
  const RankedInvertedIndexResult& moved = source.ranked_inverted_index;
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_TRUE(moved.empty());
  EXPECT_TRUE(moved.Postings({0, 1}).empty());
  EXPECT_EQ(KernelFold(source), std::make_pair(uint64_t{0}, size_t{0}));
  EXPECT_EQ(ResultBytes(source, 2), 0u);

  // A moved-from accumulator merges like a fresh one.
  uint64_t ops = 0;
  MergeResult(doc, 4, &source, &ops);
  FinalizeMergedResult(&source, &ops);
  AnalyticsResult acc;
  acc.task = doc.task;
  uint64_t fresh_ops = 0;
  MergeResult(doc, 4, &acc, &fresh_ops);
  FinalizeMergedResult(&acc, &fresh_ops);
  EXPECT_TRUE(source.SameAs(acc));
  EXPECT_EQ(ops, fresh_ops);
  const auto postings = acc.ranked_inverted_index.Postings({0, 1});
  EXPECT_EQ(Postings(postings.begin(), postings.end()),
            (Postings{{5, 5}, {4, 3}}));
}

}  // namespace
}  // namespace gtadoc
