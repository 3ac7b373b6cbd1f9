#include <gtest/gtest.h>

#include "analytics/document_index.h"
#include "analytics/uncompressed.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "gpu/primitives.h"
#include "gtadoc/engine.h"
#include "gtadoc/scheduler.h"
#include "sequitur/compressor.h"
#include "tadoc/cpu_engine.h"

namespace gtadoc {
namespace {

GTadocEngine::Options TestOptions() {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;  // deterministic
  return opt;
}

Grammar Figure1Grammar() {
  Grammar g;
  g.num_words = 4;
  g.num_splitters = 1;
  g.words = {"w1", "w2", "w3", "w4"};
  g.rules = {{6, 6, 4, 7, 0}, {7, 2, 7, 3}, {0, 1}};
  return g;
}

TEST(GTadocEngineTest, Figure1WordCountMatchesPaper) {
  Grammar g = Figure1Grammar();
  auto engine = GTadocEngine::Create(&g, TestOptions());
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(Task::kWordCount);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->result.word_count,
            (WordCountResult{{0, 6}, {1, 5}, {2, 2}, {3, 2}}));
}

TEST(GTadocEngineTest, Figure1SequenceCountL2) {
  Grammar g = Figure1Grammar();
  auto engine = GTadocEngine::Create(&g, TestOptions());
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(Task::kSequenceCount);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Check one cross-rule trigram: fileA = w1 w2 w3 w1 w2 w4 ... contains
  // (w2,w3,w1) once per R1 instance => 2 occurrences in fileA.
  EXPECT_EQ((run->result.sequence_count.Count(0, {1, 2, 0})), 2u);
  // And (w1,w2,w3) occurs twice in fileA (starts of both R1 halves).
  EXPECT_EQ((run->result.sequence_count.Count(0, {0, 1, 2})), 2u);
  // fileB = w1 w2 w1 has exactly one trigram.
  EXPECT_EQ((run->result.sequence_count.Count(1, {0, 1, 0})), 1u);
}

TEST(GTadocEngineTest, RejectsBadNgramLen) {
  Grammar g = Figure1Grammar();
  GTadocEngine::Options opt = TestOptions();
  opt.ngram_len = 1;
  EXPECT_TRUE(GTadocEngine::Create(&g, opt).status().IsInvalidArgument());
  // The CPU engine applies the same check.
  CpuTadocOptions copt;
  copt.cpu = gpu::PascalPlatform().cpu;
  copt.ngram_len = 1;
  EXPECT_TRUE(CpuTadocEngine::Create(&g, copt).status().IsInvalidArgument());
}

TEST(GTadocEngineTest, RejectsCorruptGrammar) {
  Grammar g;
  g.num_words = 1;
  g.rules = {{2, 0}, {3, 0}, {2, 0}};  // cycle
  EXPECT_TRUE(GTadocEngine::Create(&g, TestOptions()).status().IsCorruption());
}

TEST(GTadocEngineTest, TimingAndRoundsPopulated) {
  Grammar g = Figure1Grammar();
  auto engine = GTadocEngine::Create(&g, TestOptions());
  auto run = (*engine)->Run(Task::kWordCount);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->timing.init_seconds, 0.0);
  EXPECT_GT(run->timing.traversal_seconds, 0.0);
  EXPECT_GT(run->timing.traversal_ops, 0u);
  // Rounds are bounded by DAG depth (2) plus the final empty round.
  EXPECT_GE((*engine)->last_traversal_rounds(), 1u);
  EXPECT_LE((*engine)->last_traversal_rounds(), 4u);
  EXPECT_GT((*engine)->device()->stats().kernels_launched, 0u);
}

// The big property: G-TADOC == uncompressed ground truth for every task,
// every traversal strategy, on a synthetic corpus.
class GTadocMatchesTruth
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GTadocMatchesTruth, AllTasks) {
  const auto [task_idx, strat_idx] = GetParam();
  const Task task = AllTasks()[task_idx];
  const TraversalStrategy strategy =
      strat_idx == 0 ? TraversalStrategy::kTopDown : TraversalStrategy::kBottomUp;

  DatasetSpec spec = DatasetA();
  spec.num_files = 10;
  spec.total_tokens = 6000;
  spec.vocabulary = 300;
  spec.seed = 42;
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto g = CompressTokens(tokens);
  ASSERT_TRUE(g.ok());

  auto engine = GTadocEngine::Create(&*g, TestOptions());
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(task, strategy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  UncompressedAnalytics truth_engine(tokens.file_tokens);
  AnalyticsResult truth = truth_engine.RunSequential(task);
  EXPECT_TRUE(run->result.SameAs(truth))
      << TaskName(task) << ": " << run->result.Digest() << " vs "
      << truth.Digest();
}

INSTANTIATE_TEST_SUITE_P(
    TasksByStrategy, GTadocMatchesTruth,
    testing::Combine(testing::Range(0, 6), testing::Range(0, 2)),
    [](const auto& info) {
      return std::string(TaskName(AllTasks()[std::get<0>(info.param)])) +
             (std::get<1>(info.param) == 0 ? "_topDown" : "_bottomUp");
    });

// Sequence support across n-gram lengths.
class GTadocNgramLengths : public testing::TestWithParam<int> {};

TEST_P(GTadocNgramLengths, SequenceCountMatchesTruth) {
  const uint32_t l = GetParam();
  DatasetSpec spec = DatasetB();
  spec.num_files = 3;
  spec.total_tokens = 4000;
  spec.vocabulary = 150;
  spec.seed = 7;
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto g = CompressTokens(tokens);
  ASSERT_TRUE(g.ok());

  GTadocEngine::Options opt = TestOptions();
  opt.ngram_len = l;
  auto engine = GTadocEngine::Create(&*g, opt);
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(Task::kSequenceCount);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  UncompressedAnalytics truth_engine(tokens.file_tokens, l);
  AnalyticsResult truth = truth_engine.RunSequential(Task::kSequenceCount);
  EXPECT_TRUE(run->result.SameAs(truth)) << "l=" << l;
}

INSTANTIATE_TEST_SUITE_P(Lengths, GTadocNgramLengths, testing::Values(2, 3, 4, 5));

// Scheduling-mode ablations must not change results.
class GTadocSchedulingModes : public testing::TestWithParam<int> {};

TEST_P(GTadocSchedulingModes, WordCountInvariant) {
  const SchedulingMode mode = static_cast<SchedulingMode>(GetParam());
  DatasetSpec spec = DatasetD();
  spec.total_tokens = 4000;
  spec.seed = 5;
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto g = CompressTokens(tokens);
  ASSERT_TRUE(g.ok());

  GTadocEngine::Options opt = TestOptions();
  opt.scheduling = mode;
  auto engine = GTadocEngine::Create(&*g, opt);
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(Task::kWordCount);
  ASSERT_TRUE(run.ok());

  UncompressedAnalytics truth_engine(tokens.file_tokens);
  EXPECT_TRUE(run->result.SameAs(truth_engine.RunSequential(Task::kWordCount)))
      << SchedulingModeName(mode);
}

INSTANTIATE_TEST_SUITE_P(Modes, GTadocSchedulingModes, testing::Range(0, 3));

// Lock-mode ablations must not change results either.
class GTadocLockModes : public testing::TestWithParam<int> {};

TEST_P(GTadocLockModes, SequenceCountInvariant) {
  const gpu::LockMode mode = static_cast<gpu::LockMode>(GetParam());
  DatasetSpec spec = DatasetD();
  spec.total_tokens = 3000;
  spec.seed = 6;
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto g = CompressTokens(tokens);
  ASSERT_TRUE(g.ok());

  GTadocEngine::Options opt = TestOptions();
  opt.lock_mode = mode;
  auto engine = GTadocEngine::Create(&*g, opt);
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(Task::kSequenceCount);
  ASSERT_TRUE(run.ok());

  UncompressedAnalytics truth_engine(tokens.file_tokens);
  EXPECT_TRUE(
      run->result.SameAs(truth_engine.RunSequential(Task::kSequenceCount)));
}

INSTANTIATE_TEST_SUITE_P(Modes, GTadocLockModes, testing::Range(0, 3));

// Multi-worker execution (real host threads) must agree with 1-worker runs.
TEST(GTadocEngineTest, MultiWorkerDeterministicResults) {
  DatasetSpec spec = DatasetB();
  spec.num_files = 4;
  spec.total_tokens = 5000;
  spec.seed = 11;
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto g = CompressTokens(tokens);
  ASSERT_TRUE(g.ok());

  for (Task task : AllTasks()) {
    GTadocEngine::Options opt1 = TestOptions();
    auto e1 = GTadocEngine::Create(&*g, opt1);
    GTadocEngine::Options opt4 = TestOptions();
    opt4.host_workers = 4;
    auto e4 = GTadocEngine::Create(&*g, opt4);
    ASSERT_TRUE(e1.ok() && e4.ok());
    auto r1 = (*e1)->Run(task);
    auto r4 = (*e4)->Run(task);
    ASSERT_TRUE(r1.ok() && r4.ok()) << TaskName(task);
    EXPECT_TRUE(r1->result.SameAs(r4->result)) << TaskName(task);
  }
}

// Single-file corpora (datasets D/E shape) exercise the no-splitter path.
TEST(GTadocEngineTest, SingleFileCorpus) {
  DatasetSpec spec = DatasetE();
  spec.total_tokens = 4000;
  spec.vocabulary = 200;
  spec.seed = 13;
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto g = CompressTokens(tokens);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_splitters, 0u);

  auto engine = GTadocEngine::Create(&*g, TestOptions());
  ASSERT_TRUE(engine.ok());
  UncompressedAnalytics truth_engine(tokens.file_tokens);
  for (Task task : AllTasks()) {
    auto run = (*engine)->Run(task);
    ASSERT_TRUE(run.ok()) << TaskName(task);
    EXPECT_TRUE(run->result.SameAs(truth_engine.RunSequential(task)))
        << TaskName(task);
  }
}

TEST(GTadocEngineTest, PcieChargeIncreasesInitTime) {
  Grammar g = Figure1Grammar();
  auto resident = GTadocEngine::Create(&g, TestOptions());
  GTadocEngine::Options opt = TestOptions();
  opt.charge_pcie = true;
  auto transferred = GTadocEngine::Create(&g, opt);
  ASSERT_TRUE(resident.ok() && transferred.ok());
  auto r1 = (*resident)->Run(Task::kWordCount);
  auto r2 = (*transferred)->Run(Task::kWordCount);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_GT(r2->timing.init_seconds, r1->timing.init_seconds);
}

// ------------------------------------------------------- DeviceGrammar -----

/// A generated multi-file document large enough for a multi-block root scan.
Grammar ScanFixture(uint64_t tokens) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 6;
  spec.total_tokens = tokens;
  spec.vocabulary = 200;
  spec.seed = 11;
  auto g = CompressTokens(GenerateTokens(spec));
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(*g);
}

/// Loads `g` the way engines did when every binding copied the grammar and
/// scanned the root live: one allocation, the optional H2D copy of
/// `upload_bytes`, then the splitter-indicator kernel, the device exclusive
/// scan and the assignment kernel. Returns the file id of every root
/// position.
std::vector<uint32_t> LiveRootScan(const Grammar& g, size_t upload_bytes,
                                   bool charge_pcie, gpu::Device* device) {
  device->ChargeDeviceAlloc(1);
  if (charge_pcie) device->CopyHostToDevice(upload_bytes);
  const std::vector<uint32_t>& root = g.rules[0];
  const uint32_t blocks = static_cast<uint32_t>((root.size() + 255) / 256);
  std::vector<uint64_t> indicator(root.size());
  device->Launch("rootSplitterIndicator", blocks, [&](gpu::ThreadCtx& ctx) {
    const size_t lo = static_cast<size_t>(ctx.tid()) * 256;
    const size_t hi = std::min(root.size(), lo + 256);
    for (size_t i = lo; i < hi; ++i) indicator[i] = g.IsSplitter(root[i]);
    ctx.Charge(hi - lo);
  });
  std::vector<uint64_t> scanned;
  gpu::DeviceExclusiveScan(device, indicator, &scanned);
  std::vector<uint32_t> file_of_pos(root.size());
  device->Launch("rootFileAssign", blocks, [&](gpu::ThreadCtx& ctx) {
    const size_t lo = static_cast<size_t>(ctx.tid()) * 256;
    const size_t hi = std::min(root.size(), lo + 256);
    for (size_t i = lo; i < hi; ++i) {
      file_of_pos[i] = static_cast<uint32_t>(scanned[i] + indicator[i]);
    }
    ctx.Charge(hi - lo);
  });
  return file_of_pos;
}

// Build computes the root file ids on the host once; Load charges exactly
// what the live root scan charged, launch for launch.
TEST(DeviceGrammarTest, LoadChargesExactlyTheLiveRootScan) {
  for (const Grammar& g : {Figure1Grammar(), ScanFixture(4000)}) {
    auto index = DocumentIndex::Build(g);
    ASSERT_TRUE(index.ok());
    const DeviceGrammar& dg = (*index)->device_grammar;
    EXPECT_EQ(dg.DeviceBytes(), DeviceGrammar::BytesFor(g));
    for (bool charge_pcie : {false, true}) {
      gpu::Device live(TestOptions().gpu, 1);
      gpu::Device loaded(TestOptions().gpu, 1);
      EXPECT_EQ(LiveRootScan(g, dg.UploadBytes(), charge_pcie, &live),
                dg.root_file_of_pos);
      dg.Load(&loaded, charge_pcie, nullptr);
      EXPECT_EQ(loaded.SimSeconds(), live.SimSeconds());
      EXPECT_EQ(loaded.stats().kernels_launched, live.stats().kernels_launched);
      EXPECT_EQ(loaded.stats().total_ops, live.stats().total_ops);
      EXPECT_EQ(loaded.stats().h2d_bytes, live.stats().h2d_bytes);
      EXPECT_EQ(loaded.stats().device_allocs, live.stats().device_allocs);
    }
  }
}

// BytesFor sizes a grammar without its DAG view, on dense and sparse id
// spaces alike.
TEST(DeviceGrammarTest, BytesForMatchesTheBuiltArena) {
  Grammar sparse = Figure1Grammar();
  const uint32_t shift = (1u << 20) - sparse.num_words;
  sparse.num_words += shift;
  for (auto& rule : sparse.rules) {
    for (uint32_t& sym : rule) {
      if (sym >= Figure1Grammar().num_words) sym += shift;
    }
  }
  for (const Grammar& g : {Figure1Grammar(), ScanFixture(4000), sparse}) {
    auto index = DocumentIndex::Build(g);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_EQ(DeviceGrammar::BytesFor(g),
              (*index)->device_grammar.DeviceBytes());
  }
}

// A recycled arena charges its allocation only when a document outgrows it.
TEST(DeviceGrammarTest, ArenaChargesAllocationOnlyOnGrowth) {
  const Grammar small = Figure1Grammar();
  const Grammar large = ScanFixture(4000);
  auto small_index = DocumentIndex::Build(small);
  auto large_index = DocumentIndex::Build(large);
  ASSERT_TRUE(small_index.ok() && large_index.ok());
  gpu::Device device(TestOptions().gpu, 1);
  GrammarArena arena;
  (*small_index)->device_grammar.Load(&device, false, &arena);
  EXPECT_EQ(device.stats().device_allocs, 1u);
  (*small_index)->device_grammar.Load(&device, false, &arena);
  EXPECT_EQ(device.stats().device_allocs, 1u);
  (*large_index)->device_grammar.Load(&device, false, &arena);
  EXPECT_EQ(device.stats().device_allocs, 2u);
  (*small_index)->device_grammar.Load(&device, false, &arena);
  EXPECT_EQ(device.stats().device_allocs, 2u);
  // Without an arena every load is a fresh allocation.
  (*small_index)->device_grammar.Load(&device, false, nullptr);
  EXPECT_EQ(device.stats().device_allocs, 3u);
}

// An engine bound to a document its device already holds charges no load:
// zero upload, no load ops, and the same results and traversal as a loading
// engine.
TEST(GTadocEngineTest, ResidentBindChargesNoLoad) {
  const Grammar g = ScanFixture(4000);
  auto index = DocumentIndex::Build(g);
  ASSERT_TRUE(index.ok());
  GTadocEngine::Options opt = TestOptions();
  opt.charge_pcie = true;
  auto loading = GTadocEngine::Create(&g, *index, opt);
  auto resident = GTadocEngine::Create(&g, *index, opt,
                                       GTadocEngine::GrammarLoad::kResident);
  ASSERT_TRUE(loading.ok() && resident.ok());
  for (Task task : {Task::kWordCount, Task::kInvertedIndex,
                    Task::kSequenceCount}) {
    auto loaded_run = (*loading)->Run(task);
    auto resident_run = (*resident)->Run(task);
    ASSERT_TRUE(loaded_run.ok() && resident_run.ok()) << TaskName(task);
    EXPECT_TRUE(resident_run->result.SameAs(loaded_run->result));
    EXPECT_GT(loaded_run->timing.upload_seconds, 0.0);
    EXPECT_EQ(resident_run->timing.upload_seconds, 0.0);
    EXPECT_LT(resident_run->timing.init_ops, loaded_run->timing.init_ops);
    EXPECT_LT(resident_run->timing.init_seconds,
              loaded_run->timing.init_seconds);
    EXPECT_EQ(resident_run->timing.traversal_ops,
              loaded_run->timing.traversal_ops);
  }
}

// ----------------------------------------------------------- Scheduler -----

TEST(SchedulerTest, OneThreadPerRuleIsIdentity) {
  auto a = BuildAssignment({5, 5, 5}, SchedulingMode::kOneThreadPerRule);
  EXPECT_EQ(a.total_threads, 3u);
  for (uint32_t t = 0; t < 3; ++t) {
    EXPECT_EQ(a.rule_of_thread[t], t);
    EXPECT_EQ(a.slot_of_thread[t], 0u);
  }
}

TEST(SchedulerTest, OversizedRuleGetsThreadGroup) {
  // 100 small rules of load 10 plus one of 4000: the average is ~50, so the
  // big rule exceeds the 16x threshold and must receive a thread group.
  std::vector<uint64_t> loads(101, 10);
  loads[0] = 5;  // root small here
  loads[1] = 4000;
  auto a = BuildAssignment(loads, SchedulingMode::kFineGrained, 16);
  EXPECT_GT(a.threads_of_rule[1], 1u);
  EXPECT_EQ(a.threads_of_rule[2], 1u);
  // Thread bookkeeping is consistent.
  EXPECT_EQ(a.rule_of_thread.size(), a.total_threads);
  for (uint32_t t = 0; t < a.total_threads; ++t) {
    const uint32_t r = a.rule_of_thread[t];
    EXPECT_EQ(a.first_thread_of_rule[r] + a.slot_of_thread[t], t);
  }
}

TEST(SchedulerTest, RootAlwaysSplitWhenAboveAverage) {
  // Root (index 0) above average but below the 16x threshold still splits.
  std::vector<uint64_t> loads = {100, 10, 10, 10};
  auto a = BuildAssignment(loads, SchedulingMode::kFineGrained, 16);
  EXPECT_GT(a.threads_of_rule[0], 1u);
}

TEST(SchedulerTest, SlicesPartitionLoad) {
  std::vector<uint64_t> loads = {97};
  auto a = BuildAssignment(loads, SchedulingMode::kFineGrained, 1);
  uint64_t covered = 0;
  for (uint32_t s = 0; s < a.threads_of_rule[0]; ++s) {
    uint64_t b, e;
    a.Slice(0, s, 97, &b, &e);
    covered += e - b;
  }
  EXPECT_EQ(covered, 97u);
}

TEST(SchedulerTest, EmptyLoads) {
  auto a = BuildAssignment({}, SchedulingMode::kFineGrained);
  EXPECT_EQ(a.total_threads, 0u);
}

}  // namespace
}  // namespace gtadoc
