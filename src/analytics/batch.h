#ifndef GTADOC_ANALYTICS_BATCH_H_
#define GTADOC_ANALYTICS_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analytics/document_index.h"
#include "analytics/engine.h"
#include "analytics/results.h"
#include "common/result.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"

namespace gtadoc {

/// \brief Corpus-level G-TADOC: one simulated GPU serving a batch of
/// independently-compressed documents.
///
/// The paper evaluates one compressed input at a time; a serving system
/// amortizes the per-document fixed costs across a corpus. BatchEngine runs
/// one task over documents of a PartitionedCorpus (each partition = one
/// document, all sharing one dictionary) — all of them, or the global
/// document ids it was created with (the documents a run routed to one
/// device, or a CPU lane's executed ones) — and executes every document it
/// lists. It exploits two batch effects the single-document engine cannot:
///
///   1. **Device-state reuse.** Each worker context keeps one gpu::MemoryPool
///      and one device-grammar arena, recycled across its documents
///      (MemoryPool::EnsureCapacity + ResetForReuse, GrammarArena): every
///      document is still loaded — uploaded and root-scanned — but only an
///      allocation the context has not made yet is charged, where a cold
///      GTadocEngine::Create + Run per document charges them every time.
///      Handed residency flags (Create's `resident`, the serving path) go
///      further: a document the device already holds loads nothing at all.
///   2. **Transfer/compute pipelining.** In the cost model the GPU has two
///      async copy engines beside its compute engine: document i+1's H2D
///      grammar upload and document i's D2H result download both run under
///      compute. Uploads serialize on the H2D engine, compute on the GPU,
///      downloads on the D2H engine; a document computes after its upload
///      lands and downloads after its compute ends. Each document drains
///      its own result tables, so the next document never overwrites one
///      mid-download. Visible only when a run transfers anything
///      (Options::engine.charge_pcie) and at least two documents execute.
///
/// Host execution shards documents across `host_workers` ThreadPool workers
/// (contiguous, deterministic shards), each with a private device context;
/// this parallelizes the *simulation wall clock* only. Simulated time is
/// composed from per-document timings in document order, so results and
/// simulated totals are reproducible for a fixed option set regardless of
/// thread scheduling.
///
/// Every DocumentRun carries its global document id and file base. Its
/// result uses document-local file ids; the merged corpus view offsets them
/// by the file base (MergeResult). The coarse-grained CPU baseline
/// (ParallelTadocEngine) times one CPU-backend batch run, so GPU-vs-CPU
/// batch speedups compare like for like.
class BatchEngine {
 public:
  struct DocumentRun;

  struct Options {
    /// Per-document engine configuration. `shared_device`/`shared_pool` are
    /// managed by the batch engine and must be left null; `plan_cache` may
    /// be preset to share plans with other engines, otherwise the batch
    /// engine installs one cache shared by every worker and every Run, so a
    /// document planned once (same grammar, same task, same shape options)
    /// is never planned again — warm batch runs pay zero plan_seconds. Keep
    /// engine.host_workers = 1 unless each document is itself large: batch
    /// workers multiply it.
    GTadocEngine::Options engine;
    /// Which backend executes each document. kGpuPlanBackend (default) runs
    /// GTadocEngine on the simulated device. kCpuPlanBackend runs the
    /// sequential CpuTadocEngine per document instead — no device, no
    /// pool, no uploads, `cpu` as the cost model — with bit-identical
    /// results (the ten-task agreement matrix): `engine` still supplies the
    /// query shape and the shared plan cache, whose PlanBackend key keeps
    /// CPU and GPU plans apart.
    PlanBackend backend = kGpuPlanBackend;
    /// Cost-model parameters of the CPU backend. Required (ghz > 0) when
    /// backend == kCpuPlanBackend; ignored otherwise.
    gpu::CpuSpec cpu;
    /// Worker threads documents are sharded across (0 = one per document,
    /// capped at hardware concurrency). Affects wall clock only.
    size_t host_workers = 1;
    /// Merge per-document results into BatchRun::merged (and charge the
    /// merge reduce pass). Serving turns this off: device shards and CPU
    /// lanes hand their runs to Gather, which performs the ONE corpus-order
    /// merge over executed and skipped documents alike, so a batch-local
    /// merge would be duplicate work the timing must not charge. When
    /// false, `merged` carries only the task tag.
    bool merge_results = true;
  };

  /// One document's run inside the batch.
  struct DocumentRun {
    uint32_t doc = 0;        ///< global document id in the corpus
    uint32_t file_base = 0;  ///< global file id of the document's file 0
    AnalyticsResult result;  ///< document-local file ids
    RunTiming timing;
    /// True when no engine ran the document (the CorpusServer's root-Bloom
    /// pushdown): Gather assembled it — `result` is the kernel's assembly of
    /// zero drained entries and `timing` is all zeros. Never set on a
    /// BatchEngine run, which executes every document it lists.
    bool skipped = false;
  };

  /// A batch execution: per-document outputs plus the corpus merge.
  struct BatchRun {
    std::vector<DocumentRun> documents;
    /// Corpus-level result in global file ids (word counts summed, file
    /// tables keyed by global file id, sequence tables merged).
    AnalyticsResult merged;
    /// Aggregate timing: phase sums over documents, transfer time hidden by
    /// the pipeline in overlap_saved_seconds (exactly 0 when nothing
    /// transfers or one document executes), merge reduce included in
    /// traversal_seconds. total_seconds() is the batch makespan on one
    /// simulated GPU.
    RunTiming timing;
    /// Documents Gather assembled empty (0 for BatchEngine runs).
    uint32_t documents_skipped = 0;
    /// Shared-context pool growths charged AFTER the pre-size to the handed
    /// plans' footprint, i.e. while documents were executing. A serving
    /// layer proves its admission contract by this staying 0 on Runs it
    /// hands plans to. GPU contexts only (the CPU backend has no pool).
    uint64_t mid_run_pool_growths = 0;
  };

  /// Runs over the documents of `corpus` whose global ids `docs` lists, in
  /// that order (null: every document in corpus order); DocumentRuns,
  /// plan lists and residency flags are positional over that list. Every
  /// executed document's engine borrows its DocumentIndex from `index`,
  /// keyed by global id, so the engines of several devices holding the same
  /// document share one entry. Null `index`: the engine owns a lazy index
  /// over `corpus`, kept across its Runs. `resident` (one flag per listed
  /// document) says which documents the simulated device already holds:
  /// those execute without any load charge, the others pay a load
  /// (allocation, upload, root scan) — the caller decides when a load has
  /// landed. Null: every executed document loads into its context's arena
  /// (standalone). `corpus`, `index` and `resident` must outlive the engine;
  /// `docs` is copied. InvalidArgument on an empty corpus or id list, an id
  /// outside the corpus, a flag list of the wrong size, or pre-set
  /// shared_device/shared_pool.
  static Result<std::unique_ptr<BatchEngine>> Create(
      const PartitionedCorpus* corpus, const Options& options,
      const CorpusIndex* index = nullptr,
      const std::vector<uint32_t>* docs = nullptr,
      const std::vector<uint8_t>* resident = nullptr);

  /// Runs one task over the engine's documents and merges; each document's
  /// engine resolves its own plan through the shared cache.
  Result<BatchRun> Run(Task task);

  /// Like Run, but each document executes its entry of `plans` (a serving
  /// probe's) with no planner or cache call. Every context's pool is
  /// pre-sized to the largest handed total_slots first, so none grows
  /// mid-run. `plans` is positional over the engine's documents; a caller
  /// that skips documents lists only the executed ones (and leaves the
  /// rest to Gather). InvalidArgument on a list of the wrong size, a null
  /// entry, or a plan for another task, backend or grammar.
  Result<BatchRun> Run(Task task, const PlanList& plans);

  /// The deterministic contiguous shard split Run uses over `n` documents:
  /// worker w owns list positions [w*chunk, min(n, (w+1)*chunk)). A pure
  /// function of (n, workers), shared with the serving layer so admission
  /// (CorpusServer::ShardFootprint) reasons about exactly the device
  /// contexts execution will create. `workers` == 0 selects hardware
  /// concurrency.
  static std::vector<std::pair<size_t, size_t>> ShardSplit(size_t n,
                                                           size_t workers);

  /// The corpus-order gather every served run ends in, on either backend.
  /// On entry `batch` holds the executed documents' runs (each at most
  /// once, any order) and their composed timing. Gather assembles every
  /// other document of `corpus` empty — the kernel's own assembly of zero
  /// drained entries, bit-identical to executing a document with no
  /// matching content, at zero simulated cost — and marks it skipped. It
  /// then lays all documents out in corpus order, counts documents_skipped,
  /// sets timing.documents to the corpus size, and performs the ONE merge,
  /// charged at `merge_ops_per_sec` into timing. Returns the merge's
  /// simulated seconds (the gather tail).
  static Result<double> Gather(Task task, const GTadocEngine::Options& engine,
                               const PartitionedCorpus& corpus,
                               double merge_ops_per_sec, BatchRun* batch);

  size_t num_documents() const { return docs_.size(); }
  uint32_t total_files() const { return corpus_->total_files; }
  const Options& options() const { return options_; }

 private:
  BatchEngine(const PartitionedCorpus* corpus, const Options& options)
      : corpus_(corpus), options_(options) {}

  /// Both Runs: `plans` null resolves every document's plan, otherwise it
  /// is a validated plan list whose largest total_slots is `presize`.
  Result<BatchRun> Execute(Task task, const PlanList* plans, uint64_t presize);
  /// Runs list positions [lo, hi) on one worker's device context, writing
  /// into (*runs)[lo..hi) (`plans` null = resolve every plan). The
  /// context's pool is pre-sized to `presize` slots; `*mid_run_growths`
  /// receives its growths after that. Returns the first failure.
  Status RunShard(Task task, const PlanList* plans, uint64_t presize, size_t lo,
                  size_t hi, std::vector<DocumentRun>* runs,
                  uint64_t* mid_run_growths) const;

  /// Composes per-document timings (document order) into the single-GPU
  /// three-engine (H2D, compute, D2H) schedule.
  static RunTiming ComposeTiming(const std::vector<DocumentRun>& runs);

  const PartitionedCorpus* corpus_;
  Options options_;
  /// The global ids this engine runs, in execution order.
  std::vector<uint32_t> docs_;
  /// Backing storage when the caller preset no options.engine.plan_cache.
  std::shared_ptr<PlanCache> owned_plan_cache_;
  /// Document indexes by global id (borrowed, or owned_index_).
  const CorpusIndex* index_ = nullptr;
  std::unique_ptr<CorpusIndex> owned_index_;
  /// Borrowed device residency flags (null: none; every document loads).
  const std::vector<uint8_t>* resident_ = nullptr;
};

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_BATCH_H_
