#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analytics/batch.h"
#include "analytics/uncompressed.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "sequitur/tokenizer.h"
#include "serve_util.h"
#include "tadoc/cpu_engine.h"
#include "tadoc/parallel_engine.h"

namespace gtadoc {
namespace {

GTadocEngine::Options GpuOptions() {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;  // deterministic per-document runs
  return opt;
}

CpuTadocOptions CpuOptions() {
  CpuTadocOptions opt;
  opt.cpu = gpu::PascalPlatform().cpu;
  return opt;
}

/// A corpus of `num_files` template-heavy files, pre-partitioned into
/// `num_documents` independently-compressed documents sharing one dictionary.
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

class BatchMatchesSingleRuns : public testing::TestWithParam<int> {};

// The tentpole invariant: the merged batch result equals the union of
// independent single-engine runs merged through the same MergeResult path.
TEST_P(BatchMatchesSingleRuns, AllTasks) {
  const Task task = AllTasks()[GetParam()];
  PartitionedCorpus corpus = MakeCorpus(12, 4);

  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&corpus, bopt);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  auto run = (*batch)->Run(task);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->documents.size(), corpus.partitions.size());

  AnalyticsResult expected;
  expected.task = task;
  uint64_t merge_ops = 0;
  for (size_t d = 0; d < corpus.partitions.size(); ++d) {
    auto engine = GTadocEngine::Create(&corpus.partitions[d], GpuOptions());
    ASSERT_TRUE(engine.ok());
    auto single = (*engine)->Run(task);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    EXPECT_TRUE(run->documents[d].result.SameAs(single->result))
        << TaskName(task) << " doc " << d;
    MergeResult(single->result, corpus.file_base[d], &expected, &merge_ops);
  }
  FinalizeMergedResult(&expected, &merge_ops);
  EXPECT_TRUE(run->merged.SameAs(expected))
      << TaskName(task) << ": " << run->merged.Digest() << " vs "
      << expected.Digest();
}

INSTANTIATE_TEST_SUITE_P(AllTasks, BatchMatchesSingleRuns,
                         testing::Range(0, 6), [](const auto& info) {
                           return std::string(TaskName(AllTasks()[info.param]));
                         });

class BatchMatchesBaselines : public testing::TestWithParam<int> {};

// Batch GPU == coarse-grained CPU baseline == uncompressed ground truth on
// the same partitioned corpus, so simulated speedups compare equal outputs.
TEST_P(BatchMatchesBaselines, AllTasks) {
  const Task task = AllTasks()[GetParam()];
  DatasetSpec spec = DatasetA();
  spec.num_files = 12;
  spec.total_tokens = 6000;
  spec.vocabulary = 300;
  spec.seed = 21;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, 4);
  ASSERT_TRUE(part.ok());

  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&*part, bopt);
  ASSERT_TRUE(batch.ok());
  auto gpu_run = (*batch)->Run(task);
  ASSERT_TRUE(gpu_run.ok()) << gpu_run.status().ToString();

  auto cpu = ParallelTadocEngine::Create(&*part, CpuOptions());
  ASSERT_TRUE(cpu.ok());
  auto cpu_run = cpu->Run(task);
  ASSERT_TRUE(cpu_run.ok());
  EXPECT_TRUE(gpu_run->merged.SameAs(cpu_run->result))
      << TaskName(task) << ": " << gpu_run->merged.Digest() << " vs "
      << cpu_run->result.Digest();

  TokenizedCorpus retok = Tokenize(corpus);
  UncompressedAnalytics truth_engine(retok.file_tokens);
  AnalyticsResult truth = truth_engine.RunSequential(task);
  EXPECT_TRUE(gpu_run->merged.SameAs(truth))
      << TaskName(task) << ": " << gpu_run->merged.Digest() << " vs "
      << truth.Digest();
}

INSTANTIATE_TEST_SUITE_P(AllTasks, BatchMatchesBaselines,
                         testing::Range(0, 6), [](const auto& info) {
                           return std::string(TaskName(AllTasks()[info.param]));
                         });

// Host sharding must not change results or simulated totals: two runs with
// host_workers > 1 agree with each other and with the serial execution.
TEST(BatchEngineTest, DeterministicUnderHostSharding) {
  PartitionedCorpus corpus = MakeCorpus(16, 8);

  BatchEngine::Options serial;
  serial.engine = GpuOptions();
  serial.host_workers = 1;
  BatchEngine::Options sharded = serial;
  sharded.host_workers = 4;

  auto run_once = [&corpus](const BatchEngine::Options& opt) {
    auto engine = BatchEngine::Create(&corpus, opt);
    EXPECT_TRUE(engine.ok());
    auto run = (*engine)->Run(Task::kInvertedIndex);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return std::move(*run);
  };

  BatchEngine::BatchRun a = run_once(sharded);
  BatchEngine::BatchRun b = run_once(sharded);
  EXPECT_TRUE(a.merged.SameAs(b.merged));
  EXPECT_DOUBLE_EQ(a.timing.init_seconds, b.timing.init_seconds);
  EXPECT_DOUBLE_EQ(a.timing.traversal_seconds, b.timing.traversal_seconds);
  EXPECT_DOUBLE_EQ(a.timing.overlap_saved_seconds,
                   b.timing.overlap_saved_seconds);

  // Results (not timings: shard count changes context reuse) also match the
  // serial execution.
  BatchEngine::BatchRun c = run_once(serial);
  EXPECT_TRUE(a.merged.SameAs(c.merged));
  for (size_t d = 0; d < a.documents.size(); ++d) {
    EXPECT_TRUE(a.documents[d].result.SameAs(c.documents[d].result)) << d;
  }
}

// Device-state reuse must charge less init time than N cold lifecycles (a
// fresh GTadocEngine per document plus the same corpus merge): only the
// first document of a context pays the allocation calls.
TEST(BatchEngineTest, PoolReuseChargesLessInitThanColdRuns) {
  PartitionedCorpus corpus = MakeCorpus(16, 8);

  BatchEngine::Options warm;
  warm.engine = GpuOptions();
  auto warm_engine = BatchEngine::Create(&corpus, warm);
  ASSERT_TRUE(warm_engine.ok());
  auto warm_run = (*warm_engine)->Run(Task::kWordCount);
  ASSERT_TRUE(warm_run.ok());

  RunTiming cold;
  cold.documents = 0;
  AnalyticsResult cold_merged;
  cold_merged.task = Task::kWordCount;
  uint64_t merge_ops = 0;
  std::vector<RunTiming> cold_docs;
  for (size_t d = 0; d < corpus.partitions.size(); ++d) {
    auto engine = GTadocEngine::Create(&corpus.partitions[d], warm.engine);
    ASSERT_TRUE(engine.ok());
    auto run = (*engine)->Run(Task::kWordCount);
    ASSERT_TRUE(run.ok());
    cold.Accumulate(run->timing);
    cold_docs.push_back(run->timing);
    MergeResult(run->result, corpus.file_base[d], &cold_merged, &merge_ops);
  }
  FinalizeMergedResult(&cold_merged, &merge_ops);
  cold.traversal_seconds +=
      static_cast<double>(merge_ops) / warm.engine.gpu.device_ops_per_sec();

  EXPECT_TRUE(warm_run->merged.SameAs(cold_merged));
  EXPECT_LT(warm_run->timing.init_seconds, cold.init_seconds);
  EXPECT_LT(warm_run->timing.total_seconds(), cold.total_seconds());

  // Documents after the first charge strictly less init than their cold
  // counterparts (no allocation calls on the warm path).
  for (size_t d = 1; d < warm_run->documents.size(); ++d) {
    EXPECT_LE(warm_run->documents[d].timing.init_seconds,
              cold_docs[d].init_seconds)
        << d;
  }
}

// With PCIe charging on, the pipeline hides transfer time under compute:
// total < serial sum, and the saving is bounded by the uploads and
// downloads it can hide.
TEST(BatchEngineTest, UploadOverlapShortensMakespan) {
  PartitionedCorpus corpus = MakeCorpus(16, 8, /*tokens=*/12000);

  BatchEngine::Options opt;
  opt.engine = GpuOptions();
  opt.engine.charge_pcie = true;
  auto engine = BatchEngine::Create(&corpus, opt);
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(Task::kWordCount);
  ASSERT_TRUE(run.ok());

  EXPECT_GT(run->timing.upload_seconds, 0.0);
  EXPECT_GT(run->timing.download_seconds, 0.0);
  EXPECT_GT(run->timing.overlap_saved_seconds, 0.0);
  EXPECT_LT(run->timing.total_seconds(), run->timing.serial_seconds());
  EXPECT_LE(run->timing.overlap_saved_seconds,
            run->timing.upload_seconds + run->timing.download_seconds + 1e-12);
}

// A run that transfers nothing hides nothing: the pipeline saves exactly 0,
// not the rounding residue of the serial sum minus the schedule.
TEST(BatchEngineTest, OverlapIsExactlyZeroWhenNothingUploads) {
  PartitionedCorpus corpus = MakeCorpus(16, 8, /*tokens=*/12000);
  BatchEngine::Options opt;
  opt.engine = GpuOptions();
  ASSERT_FALSE(opt.engine.charge_pcie);
  auto engine = BatchEngine::Create(&corpus, opt);
  ASSERT_TRUE(engine.ok());
  for (Task task : AllTasks()) {
    auto run = (*engine)->Run(task);
    ASSERT_TRUE(run.ok()) << TaskName(task);
    EXPECT_EQ(run->timing.upload_seconds, 0.0) << TaskName(task);
    EXPECT_EQ(run->timing.download_seconds, 0.0) << TaskName(task);
    EXPECT_EQ(run->timing.overlap_saved_seconds, 0.0) << TaskName(task);
  }
}

// A single executing document has no neighbour to overlap with: with PCIe
// charged it still transfers, yet saves exactly 0 — whether the batch holds
// one document or its other documents were skipped and gathered empty.
TEST(BatchEngineTest, OneDocumentBatchSavesExactlyZero) {
  PartitionedCorpus corpus = MakeCorpus(16, 8, /*tokens=*/12000);
  BatchEngine::Options opt;
  opt.engine = GpuOptions();
  opt.engine.charge_pcie = true;
  const std::vector<uint32_t> one = {3};
  auto single = BatchEngine::Create(&corpus, opt, nullptr, &one);
  ASSERT_TRUE(single.ok());
  std::vector<uint8_t> mask(corpus.partitions.size(), 0);
  mask[one[0]] = 1;
  for (Task task : AllTasks()) {
    auto run = (*single)->Run(task);
    ASSERT_TRUE(run.ok()) << TaskName(task);
    EXPECT_GT(run->timing.upload_seconds, 0.0) << TaskName(task);
    EXPECT_GT(run->timing.download_seconds, 0.0) << TaskName(task);
    EXPECT_EQ(run->timing.overlap_saved_seconds, 0.0) << TaskName(task);

    auto masked = SerialGatheredRun(corpus, opt.engine, task, mask);
    ASSERT_TRUE(masked.ok()) << TaskName(task);
    EXPECT_EQ(masked->documents_skipped, corpus.partitions.size() - 1);
    EXPECT_GT(masked->timing.download_seconds, 0.0) << TaskName(task);
    EXPECT_EQ(masked->timing.overlap_saved_seconds, 0.0) << TaskName(task);
  }
}

// A batch over documents the device already holds uploads nothing, so only
// downloads overlap: each document's D2H drain runs on the second copy
// engine under the next document's compute. The makespan is exactly the
// three-engine schedule recomputed here from the per-document timings, plus
// the corpus merge.
TEST(BatchEngineTest, ResidentBatchMakespanIsTheThreeEngineSchedule) {
  PartitionedCorpus corpus = MakeCorpus(16, 8, /*tokens=*/12000);
  BatchEngine::Options opt;
  opt.engine = GpuOptions();
  opt.engine.charge_pcie = true;
  const std::vector<uint8_t> resident(corpus.partitions.size(), 1);
  auto engine = BatchEngine::Create(&corpus, opt, nullptr, nullptr, &resident);
  ASSERT_TRUE(engine.ok());
  for (Task task : {Task::kWordCount, Task::kInvertedIndex,
                    Task::kSequenceCount, Task::kRankedInvertedIndex}) {
    auto run = (*engine)->Run(task);
    ASSERT_TRUE(run.ok()) << TaskName(task);
    EXPECT_EQ(run->timing.upload_seconds, 0.0) << TaskName(task);

    double compute_done = 0;
    double d2h_done = 0;
    double documents_serial = 0;
    for (const BatchEngine::DocumentRun& doc : run->documents) {
      const RunTiming& t = doc.timing;
      EXPECT_EQ(t.upload_seconds, 0.0);
      EXPECT_GT(t.download_seconds, 0.0);
      EXPECT_LT(t.download_seconds, t.traversal_seconds);
      compute_done += t.init_seconds + t.traversal_seconds - t.download_seconds;
      d2h_done = std::max(d2h_done, compute_done) + t.download_seconds;
      documents_serial += t.init_seconds + t.traversal_seconds;
    }
    const double merge_seconds =
        run->timing.serial_seconds() - documents_serial;
    EXPECT_GT(merge_seconds, 0.0) << TaskName(task);
    EXPECT_NEAR(run->timing.total_seconds(), d2h_done + merge_seconds,
                1e-12 * d2h_done)
        << TaskName(task);
    // The last download never hides, so the saving lies strictly between 0
    // and the downloads.
    EXPECT_GT(run->timing.overlap_saved_seconds, 0.0) << TaskName(task);
    EXPECT_LT(run->timing.overlap_saved_seconds,
              run->timing.download_seconds)
        << TaskName(task);
  }
}

TEST(BatchEngineTest, AggregateTimingAccounting) {
  PartitionedCorpus corpus = MakeCorpus(8, 4);
  BatchEngine::Options opt;
  opt.engine = GpuOptions();
  auto engine = BatchEngine::Create(&corpus, opt);
  ASSERT_TRUE(engine.ok());
  auto run = (*engine)->Run(Task::kTermVector);
  ASSERT_TRUE(run.ok());

  EXPECT_EQ(run->timing.documents, 4u);
  double init = 0, traversal = 0;
  for (const auto& d : run->documents) {
    init += d.timing.init_seconds;
    traversal += d.timing.traversal_seconds;
    EXPECT_EQ(d.timing.documents, 1u);
  }
  EXPECT_DOUBLE_EQ(run->timing.init_seconds, init);
  // Aggregate traversal additionally carries the corpus merge reduce.
  EXPECT_GE(run->timing.traversal_seconds, traversal);
}

TEST(BatchEngineTest, RejectsDegenerateInputs) {
  PartitionedCorpus empty;
  BatchEngine::Options opt;
  opt.engine = GpuOptions();
  EXPECT_TRUE(BatchEngine::Create(&empty, opt).status().IsInvalidArgument());
  EXPECT_TRUE(BatchEngine::Create(nullptr, opt).status().IsInvalidArgument());

  PartitionedCorpus corpus = MakeCorpus(4, 2);
  BatchEngine::Options preset = opt;
  gpu::Device device(opt.engine.gpu, 1);
  preset.engine.shared_device = &device;
  EXPECT_TRUE(
      BatchEngine::Create(&corpus, preset).status().IsInvalidArgument());
}

// A batch created with global document ids runs exactly those documents, in
// list order: each DocumentRun carries its global id and file base and is
// bit-identical to that document's run inside a full-corpus batch.
TEST(BatchEngineTest, RunsTheDocumentIdsItWasGiven) {
  PartitionedCorpus corpus = MakeCorpus(16, 8);
  BatchEngine::Options opt;
  opt.engine = GpuOptions();
  opt.engine.charge_pcie = true;
  auto full_engine = BatchEngine::Create(&corpus, opt);
  ASSERT_TRUE(full_engine.ok());
  const std::vector<uint32_t> ids = {1, 3, 6};
  auto subset_engine = BatchEngine::Create(&corpus, opt, nullptr, &ids);
  ASSERT_TRUE(subset_engine.ok()) << subset_engine.status().ToString();
  EXPECT_EQ((*subset_engine)->num_documents(), ids.size());

  for (Task task : AllTasks()) {
    auto full = (*full_engine)->Run(task);
    auto subset = (*subset_engine)->Run(task);
    ASSERT_TRUE(full.ok()) << TaskName(task);
    ASSERT_TRUE(subset.ok()) << TaskName(task);
    ASSERT_EQ(subset->documents.size(), ids.size());
    EXPECT_EQ(subset->timing.documents, ids.size());
    AnalyticsResult merged;
    merged.task = task;
    uint64_t merge_ops = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      const BatchEngine::DocumentRun& run = subset->documents[i];
      EXPECT_EQ(run.doc, ids[i]) << TaskName(task);
      EXPECT_EQ(run.file_base, corpus.file_base[ids[i]]) << TaskName(task);
      EXPECT_FALSE(run.skipped);
      EXPECT_TRUE(run.result.SameAs(full->documents[ids[i]].result))
          << TaskName(task) << " doc " << ids[i];
      MergeResult(run.result, run.file_base, &merged, &merge_ops);
    }
    FinalizeMergedResult(&merged, &merge_ops);
    EXPECT_TRUE(subset->merged.SameAs(merged)) << TaskName(task);
  }

  // Plan lists are positional over the ids.
  PlanList too_long(corpus.partitions.size());
  EXPECT_TRUE((*subset_engine)
                  ->Run(Task::kWordCount, too_long)
                  .status()
                  .IsInvalidArgument());

  const std::vector<uint32_t> none;
  EXPECT_TRUE(BatchEngine::Create(&corpus, opt, nullptr, &none)
                  .status()
                  .IsInvalidArgument());
  const std::vector<uint32_t> outside = {2, 8};
  EXPECT_TRUE(BatchEngine::Create(&corpus, opt, nullptr, &outside)
                  .status()
                  .IsInvalidArgument());
  const std::vector<uint8_t> flags(corpus.partitions.size(), 0);
  EXPECT_TRUE(BatchEngine::Create(&corpus, opt, nullptr, &ids, &flags)
                  .status()
                  .IsInvalidArgument());

  // The gather places each run by its global id: a repeated document or one
  // outside the corpus is refused.
  auto subset = (*subset_engine)->Run(Task::kWordCount);
  ASSERT_TRUE(subset.ok());
  BatchEngine::BatchRun repeated = *subset;
  repeated.documents.push_back(repeated.documents[0]);
  EXPECT_TRUE(BatchEngine::Gather(Task::kWordCount, opt.engine, corpus, 1.0,
                                  &repeated)
                  .status()
                  .IsInvalidArgument());
  BatchEngine::BatchRun outside_run = *subset;
  outside_run.documents[0].doc = static_cast<uint32_t>(corpus.partitions.size());
  EXPECT_TRUE(BatchEngine::Gather(Task::kWordCount, opt.engine, corpus, 1.0,
                                  &outside_run)
                  .status()
                  .IsInvalidArgument());
}

TEST(BatchEngineTest, SingleDocumentBatchMatchesSingleEngine) {
  PartitionedCorpus corpus = MakeCorpus(4, 1);
  BatchEngine::Options opt;
  opt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&corpus, opt);
  ASSERT_TRUE(batch.ok());
  auto run = (*batch)->Run(Task::kSequenceCount);
  ASSERT_TRUE(run.ok());

  auto engine = GTadocEngine::Create(&corpus.partitions[0], GpuOptions());
  ASSERT_TRUE(engine.ok());
  auto single = (*engine)->Run(Task::kSequenceCount);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(run->merged.SameAs(single->result));
}

// GTadocEngine::Rebind re-targets an engine in place: results match a cold
// engine on the same document, and the rebound init is cheaper because the
// grammar arrays were recycled.
TEST(EngineRebindTest, RebindMatchesColdEngine) {
  PartitionedCorpus corpus = MakeCorpus(8, 2);

  gpu::Device device(GpuOptions().gpu, 1);
  gpu::MemoryPool pool(&device);
  GTadocEngine::Options opt = GpuOptions();
  opt.shared_device = &device;
  opt.shared_pool = &pool;

  auto engine = GTadocEngine::Create(&corpus.partitions[0], opt);
  ASSERT_TRUE(engine.ok());
  auto first = (*engine)->Run(Task::kWordCount);
  ASSERT_TRUE(first.ok());

  ASSERT_TRUE((*engine)->Rebind(&corpus.partitions[1]).ok());
  auto second = (*engine)->Run(Task::kWordCount);
  ASSERT_TRUE(second.ok());

  auto cold = GTadocEngine::Create(&corpus.partitions[1], GpuOptions());
  ASSERT_TRUE(cold.ok());
  auto cold_run = (*cold)->Run(Task::kWordCount);
  ASSERT_TRUE(cold_run.ok());

  EXPECT_TRUE(second->result.SameAs(cold_run->result));
  EXPECT_LT(second->timing.init_seconds, cold_run->timing.init_seconds);
}

// RunTiming::Accumulate must fold every field, including the pipeline
// overlap and the document count, so aggregates of aggregates stay exact.
TEST(RunTimingTest, AccumulateFoldsAllFields) {
  RunTiming a;
  a.init_seconds = 1.0;
  a.traversal_seconds = 2.0;
  a.upload_seconds = 0.25;
  a.download_seconds = 0.375;
  a.overlap_saved_seconds = 0.125;
  a.init_ops = 10;
  a.traversal_ops = 20;
  a.documents = 3;
  RunTiming b = a;
  b.documents = 2;

  RunTiming agg;
  agg.documents = 0;
  agg.Accumulate(a);
  agg.Accumulate(b);
  EXPECT_DOUBLE_EQ(agg.init_seconds, 2.0);
  EXPECT_DOUBLE_EQ(agg.traversal_seconds, 4.0);
  EXPECT_DOUBLE_EQ(agg.upload_seconds, 0.5);
  EXPECT_DOUBLE_EQ(agg.download_seconds, 0.75);
  EXPECT_DOUBLE_EQ(agg.overlap_saved_seconds, 0.25);
  EXPECT_EQ(agg.init_ops, 20u);
  EXPECT_EQ(agg.traversal_ops, 40u);
  EXPECT_EQ(agg.documents, 5u);
  EXPECT_DOUBLE_EQ(agg.serial_seconds(),
                   a.serial_seconds() + b.serial_seconds());
  EXPECT_DOUBLE_EQ(agg.total_seconds(), a.total_seconds() + b.total_seconds());
}

// Regression for the per-layout assembly costs (the device-heap selection
// stage and its pool carving): they must fold into the phase decomposition
// identically on the cold-create and rebind paths, or batch aggregates
// (ComposeTiming / Accumulate) would skew depending on which path produced
// each document. Traversal must match bit-for-bit; the rebind path may only
// save init time.
TEST(RunTimingTest, AssemblyCostsFoldIdenticallyOnColdAndRebindPaths) {
  PartitionedCorpus corpus = MakeCorpus(8, 2);

  for (Task task : {Task::kTopKWords, Task::kTfIdf, Task::kSequenceCount}) {
    SCOPED_TRACE(static_cast<int>(task));
    auto cold = GTadocEngine::Create(&corpus.partitions[1], GpuOptions());
    ASSERT_TRUE(cold.ok());
    auto cold_run = (*cold)->Run(task);
    ASSERT_TRUE(cold_run.ok()) << cold_run.status().ToString();

    auto rebound = GTadocEngine::Create(&corpus.partitions[0], GpuOptions());
    ASSERT_TRUE(rebound.ok());
    ASSERT_TRUE((*rebound)->Rebind(&corpus.partitions[1]).ok());
    auto rebind_run = (*rebound)->Run(task);
    ASSERT_TRUE(rebind_run.ok());

    EXPECT_TRUE(rebind_run->result.SameAs(cold_run->result));
    EXPECT_DOUBLE_EQ(rebind_run->timing.traversal_seconds,
                     cold_run->timing.traversal_seconds);
    EXPECT_EQ(rebind_run->timing.traversal_ops,
              cold_run->timing.traversal_ops);
    EXPECT_LE(rebind_run->timing.init_seconds, cold_run->timing.init_seconds);
  }
}

// Regression for the batch aggregate: its serial time is exactly the sum of
// the per-document timings (plus the explicitly-charged corpus merge), and
// it counts every document.
TEST(RunTimingTest, BatchAggregateSerialSecondsEqualsDocumentSum) {
  PartitionedCorpus corpus = MakeCorpus(12, 4);
  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&corpus, bopt);
  ASSERT_TRUE(batch.ok());
  auto run = (*batch)->Run(Task::kWordCount);
  ASSERT_TRUE(run.ok());

  RunTiming folded;
  folded.documents = 0;
  for (const BatchEngine::DocumentRun& doc : run->documents) {
    folded.Accumulate(doc.timing);
  }
  EXPECT_EQ(folded.documents, run->documents.size());
  EXPECT_EQ(run->timing.documents, run->documents.size());
  EXPECT_DOUBLE_EQ(folded.serial_seconds(),
                   folded.init_seconds + folded.traversal_seconds);
  // The batch timing is the folded per-document sum plus the corpus merge
  // (charged into traversal_seconds); init matches exactly.
  EXPECT_DOUBLE_EQ(run->timing.init_seconds, folded.init_seconds);
  EXPECT_GE(run->timing.serial_seconds(), folded.serial_seconds());
  EXPECT_EQ(run->timing.init_ops, folded.init_ops);
  EXPECT_GE(run->timing.traversal_ops, folded.traversal_ops);
}

}  // namespace
}  // namespace gtadoc
