// Batch API quickstart: serve a corpus of independently-compressed documents
// with one BatchEngine — per-document results plus a merged corpus view —
// and see what batching buys over per-document engine lifecycles.
//
// Build:  cmake -B build && cmake --build build
// Run:    ./build/batch_corpus

#include <cstdio>

#include "analytics/batch.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"

using namespace gtadoc;

int main() {
  // 1. A synthetic corpus of 32 files, compressed as 8 documents that share
  //    one dictionary (so corpus-level results merge by word id).
  DatasetSpec spec = DatasetA();
  spec.num_files = 32;
  spec.total_tokens = 80000;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, 8);
  if (!part.ok()) {
    std::fprintf(stderr, "partition: %s\n", part.status().ToString().c_str());
    return 1;
  }
  std::printf("corpus: %zu files as %zu documents\n", corpus.num_files(),
              part->partitions.size());

  // 2. One batch engine for the whole corpus: documents stream through a
  //    reused device context (pool + grammar arena), with uploads and result
  //    downloads pipelined under the neighbouring documents' compute.
  BatchEngine::Options opt;
  opt.engine.gpu = gpu::VoltaPlatform().gpu;
  opt.engine.charge_pcie = true;  // serving regime: documents stream in
  opt.host_workers = 4;           // host-side sharding (wall clock only)
  auto engine = BatchEngine::Create(&*part, opt);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  auto run = (*engine)->Run(Task::kInvertedIndex);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 1;
  }

  std::printf("merged invertedIndex: %s\n", run->merged.Digest().c_str());
  std::printf("per-document runs: %zu (doc 0: %s)\n", run->documents.size(),
              run->documents[0].result.Digest().c_str());

  // 3. What batching bought, from the aggregate accounting.
  const RunTiming& t = run->timing;
  std::printf("batch makespan: %.3f ms over %u documents\n",
              t.total_seconds() * 1e3, t.documents);
  std::printf("  serial sum  : %.3f ms (init %.3f + traversal %.3f)\n",
              t.serial_seconds() * 1e3, t.init_seconds * 1e3,
              t.traversal_seconds * 1e3);
  std::printf(
      "  transfers   : upload %.3f + download %.3f ms, hidden under compute: "
      "%.3f ms\n",
      t.upload_seconds * 1e3, t.download_seconds * 1e3,
      t.overlap_saved_seconds * 1e3);

  // 4. The same corpus through 8 cold engine lifecycles for comparison: a
  //    fresh engine (own device, pool and arena) per document, back to back,
  //    plus the same corpus merge and its reduce charge.
  RunTiming cold;
  cold.documents = 0;
  AnalyticsResult cold_merged;
  cold_merged.task = Task::kInvertedIndex;
  uint64_t merge_ops = 0;
  for (size_t d = 0; d < part->partitions.size(); ++d) {
    auto doc_engine = GTadocEngine::Create(&part->partitions[d], opt.engine);
    if (!doc_engine.ok()) return 1;
    auto doc_run = (*doc_engine)->Run(Task::kInvertedIndex);
    if (!doc_run.ok()) return 1;
    cold.Accumulate(doc_run->timing);
    MergeResult(doc_run->result, part->file_base[d], &cold_merged, &merge_ops);
  }
  FinalizeMergedResult(&cold_merged, &merge_ops);
  cold.traversal_seconds +=
      static_cast<double>(merge_ops) / opt.engine.gpu.device_ops_per_sec();
  const bool same = cold_merged.SameAs(run->merged);
  std::printf("cold lifecycles: %.3f ms => batch is %.2fx (results match: %s)\n",
              cold.total_seconds() * 1e3,
              cold.total_seconds() / t.total_seconds(), same ? "yes" : "NO");
  return same ? 0 : 1;
}
