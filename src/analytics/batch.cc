#include "analytics/batch.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "gpu/memory_pool.h"
#include "tadoc/cpu_engine.h"

namespace gtadoc {

Result<std::unique_ptr<BatchEngine>> BatchEngine::Create(
    const PartitionedCorpus* corpus, const Options& options,
    const CorpusIndex* index, const std::vector<uint32_t>* docs,
    const std::vector<uint8_t>* resident) {
  if (corpus == nullptr || corpus->partitions.empty()) {
    return Status::InvalidArgument("batch needs at least one document");
  }
  if (corpus->file_base.size() != corpus->partitions.size()) {
    return Status::InvalidArgument("corpus file_base/partitions mismatch");
  }
  if (options.engine.shared_device != nullptr ||
      options.engine.shared_pool != nullptr) {
    return Status::InvalidArgument(
        "batch engine manages device sharing; leave "
        "engine.shared_device/shared_pool null");
  }
  const size_t n = corpus->partitions.size();
  if (docs != nullptr) {
    if (docs->empty()) {
      return Status::InvalidArgument("batch needs at least one document id");
    }
    for (uint32_t g : *docs) {
      if (g >= n) {
        return Status::InvalidArgument("document id " + std::to_string(g) +
                                       " is outside the corpus");
      }
    }
  }
  const size_t num_docs = docs != nullptr ? docs->size() : n;
  if (resident != nullptr && resident->size() != num_docs) {
    return Status::InvalidArgument("residency flags/documents mismatch");
  }
  if (options.backend == kCpuPlanBackend &&
      options.cpu.thread_ops_per_sec() <= 0.0) {
    return Status::InvalidArgument(
        "CPU backend needs cost-model parameters (Options::cpu.ghz > 0)");
  }
  std::unique_ptr<BatchEngine> engine(new BatchEngine(corpus, options));
  if (docs != nullptr) {
    engine->docs_ = *docs;
  } else {
    engine->docs_.resize(n);
    std::iota(engine->docs_.begin(), engine->docs_.end(), 0u);
  }
  if (engine->options_.engine.plan_cache == nullptr) {
    // One plan cache for every worker context and every Run: same-shape
    // repeat documents skip planning entirely (the serving warm path).
    engine->owned_plan_cache_ =
        std::make_shared<PlanCache>(std::max<size_t>(256, 4 * n));
    engine->options_.engine.plan_cache = engine->owned_plan_cache_.get();
  }
  if (index == nullptr) {
    engine->owned_index_ = std::make_unique<CorpusIndex>(&corpus->partitions);
    index = engine->owned_index_.get();
  }
  engine->index_ = index;
  engine->resident_ = resident;
  return engine;
}

namespace {

/// The result a skipped document contributes: the kernel's own assembly of
/// zero drained entries, which is bit-identical to what executing a document
/// with no matching content would have produced (same code path, empty
/// input). Costs nothing — skipping is the point.
void EmptyDocumentResult(const TaskKernel& kernel, const TaskInput& input,
                         uint32_t num_files, AnalyticsResult* out) {
  out->task = kernel.task();
  CpuAssembly ops(nullptr);  // uncharged: no device work happened
  switch (kernel.shape()) {
    case TraversalShape::kGlobalWeight:
      kernel.AssembleGlobal(input, {}, &ops, out);
      break;
    case TraversalShape::kPerFileWeight:
      kernel.AssembleFileWord(input, num_files, {}, &ops, out);
      break;
    case TraversalShape::kSequence:
      kernel.AssembleSequence(input, {}, &ops, out);
      break;
  }
  kernel.Canonicalize(out);
}

/// The corpus merge: folds the batch's documents, in their order, into
/// `batch->merged` and charges one reduce pass at `ops_per_sec` — a
/// device-wide pass at sustained throughput, or one CPU thread at its
/// sustained rate — into its timing. Returns the pass's simulated seconds.
double MergeDocuments(Task task, double ops_per_sec,
                      BatchEngine::BatchRun* batch) {
  batch->merged = AnalyticsResult();
  batch->merged.task = task;
  uint64_t merge_ops = 0;
  for (const BatchEngine::DocumentRun& r : batch->documents) {
    MergeResult(r.result, r.file_base, &batch->merged, &merge_ops);
  }
  FinalizeMergedResult(&batch->merged, &merge_ops);
  const double merge_seconds = static_cast<double>(merge_ops) / ops_per_sec;
  batch->timing.traversal_seconds += merge_seconds;
  batch->timing.traversal_ops += merge_ops;
  return merge_seconds;
}

}  // namespace

Result<double> BatchEngine::Gather(Task task,
                                   const GTadocEngine::Options& engine,
                                   const PartitionedCorpus& corpus,
                                   double merge_ops_per_sec, BatchRun* batch) {
  auto kernel_lookup = TaskRegistry::Get(task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  const size_t n = corpus.partitions.size();
  DocumentRun unexecuted;
  unexecuted.skipped = true;
  std::vector<DocumentRun> documents(n, unexecuted);
  for (DocumentRun& run : batch->documents) {
    if (run.doc >= n || !documents[run.doc].skipped) {
      return Status::InvalidArgument("gathered document " +
                                     std::to_string(run.doc) +
                                     " is outside the corpus or repeated");
    }
    documents[run.doc] = std::move(run);
  }
  // Every document no engine ran is assembled here and nowhere else, so the
  // merge below sees the same inputs, in the same order, as a run that
  // executed the whole corpus.
  const TaskInput input = GTadocEngine::InputFromOptions(engine);
  batch->documents_skipped = 0;
  for (uint32_t g = 0; g < n; ++g) {
    DocumentRun& doc = documents[g];
    if (!doc.skipped) continue;
    doc.doc = g;
    doc.file_base = corpus.file_base[g];
    EmptyDocumentResult(**kernel_lookup, input,
                        corpus.partitions[g].num_files(), &doc.result);
    ++batch->documents_skipped;
  }
  batch->documents = std::move(documents);
  batch->timing.documents = static_cast<uint32_t>(n);
  return MergeDocuments(task, merge_ops_per_sec, batch);
}

Status BatchEngine::RunShard(Task task, const PlanList* plans, uint64_t presize,
                             size_t lo, size_t hi,
                             std::vector<DocumentRun>* runs,
                             uint64_t* mid_run_growths) const {
  GTadocEngine::Options eopt = options_.engine;
  const bool cpu_backend = options_.backend == kCpuPlanBackend;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<gpu::MemoryPool> pool;
  uint64_t growth_baseline = 0;
  if (!cpu_backend) {
    // One context for the whole shard: the pool grows to the shard's
    // high-water mark once, the grammar arena is reloaded per document.
    device = std::make_unique<gpu::Device>(eopt.gpu, eopt.host_workers);
    pool = std::make_unique<gpu::MemoryPool>(device.get());
    // Handed plans carry the run's footprint, so the one growth happens
    // here, before any document executes — growths past the baseline are
    // mid-run.
    if (presize > 0) pool->EnsureCapacity(presize);
    growth_baseline = pool->growth_count();
    eopt.shared_device = device.get();
    eopt.shared_pool = pool.get();
  }

  // CPU backend: the engine options slice down to the shared QuerySpec plus
  // the strategy and the (backend-keyed) plan cache; no device state exists.
  CpuTadocOptions cpu_options;
  if (cpu_backend) {
    static_cast<QuerySpec&>(cpu_options) = options_.engine;
    cpu_options.cpu = options_.cpu;
    cpu_options.strategy = options_.engine.strategy;
    cpu_options.plan_cache = options_.engine.plan_cache;
  }

  std::unique_ptr<GTadocEngine> engine;
  for (size_t i = lo; i < hi; ++i) {
    const uint32_t g = docs_[i];
    const Grammar* doc = &corpus_->partitions[g];
    DocumentRun& out = (*runs)[i];
    out.doc = g;
    out.file_base = corpus_->file_base[g];
    const RunPlan* plan = plans != nullptr ? (*plans)[i].get() : nullptr;
    // The document's lazily built index, shared with every other run and
    // replica of it.
    auto index = index_->Get(g);
    if (!index.ok()) return index.status();
    if (cpu_backend) {
      auto created = CpuTadocEngine::Create(doc, *index, cpu_options);
      if (!created.ok()) return created.status();
      auto run = plan != nullptr ? created->Run(*plan) : created->Run(task);
      if (!run.ok()) return run.status();
      out.result = std::move(run->result);
      out.timing = run->timing;
      continue;
    }
    // A device that keeps documents resident loads each one once; without
    // residency flags every document loads into the context's arena.
    GTadocEngine::GrammarLoad load = GTadocEngine::GrammarLoad::kArena;
    if (resident_ != nullptr) {
      load = (*resident_)[i] ? GTadocEngine::GrammarLoad::kResident
                             : GTadocEngine::GrammarLoad::kFirst;
    }
    if (engine != nullptr) {
      engine->Rebind(doc, *index, load);
    } else {
      auto created = GTadocEngine::Create(doc, *index, eopt, load);
      if (!created.ok()) return created.status();
      engine = std::move(*created);
    }
    auto run = plan != nullptr ? engine->Run(*plan) : engine->Run(task);
    if (!run.ok()) return run.status();
    out.result = std::move(run->result);
    out.timing = run->timing;
  }
  if (pool != nullptr && mid_run_growths != nullptr) {
    *mid_run_growths = pool->growth_count() - growth_baseline;
  }
  return Status::OK();
}

std::vector<std::pair<size_t, size_t>> BatchEngine::ShardSplit(
    size_t n, size_t workers) {
  if (workers == 0) {
    workers = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, n);
  // Contiguous shards: worker w owns documents [w*chunk, ...). The split is
  // a pure function of (n, workers), so reruns see identical contexts and
  // identical reuse accounting — and admission sees the same contexts as
  // execution.
  std::vector<std::pair<size_t, size_t>> shards;
  if (n == 0) return shards;
  const size_t chunk = (n + workers - 1) / workers;
  for (size_t lo = 0; lo < n; lo += chunk) {
    shards.emplace_back(lo, std::min(n, lo + chunk));
  }
  return shards;
}

RunTiming BatchEngine::ComposeTiming(const std::vector<DocumentRun>& runs) {
  RunTiming agg;
  agg.documents = 0;  // empty accumulator; Accumulate sums per-run counts
  for (const DocumentRun& r : runs) agg.Accumulate(r.timing);

  // Three-engine pipeline over the documents in list order: uploads
  // serialize on the H2D copy engine, compute (everything but the two
  // transfers) on the GPU, downloads on the D2H copy engine. Document i
  // computes once its upload has landed and downloads once its compute has
  // ended, so document i+1's upload and document i's download both run
  // under compute. With nothing transferred (uncharged PCIe, the CPU
  // backend) or fewer than two documents there is nothing to overlap: the
  // saving is exactly 0, not the rounding residue of two differently
  // ordered sums.
  if (runs.size() > 1 && agg.upload_seconds + agg.download_seconds > 0) {
    double h2d_done = 0;
    double compute_done = 0;
    double d2h_done = 0;
    for (const DocumentRun& r : runs) {
      const RunTiming& t = r.timing;
      h2d_done += t.upload_seconds;
      const double compute_cost =
          t.serial_seconds() - t.upload_seconds - t.download_seconds;
      compute_done = std::max(compute_done, h2d_done) + compute_cost;
      d2h_done = std::max(d2h_done, compute_done) + t.download_seconds;
    }
    agg.overlap_saved_seconds = agg.serial_seconds() - d2h_done;
  }
  return agg;
}

Result<BatchEngine::BatchRun> BatchEngine::Run(Task task) {
  return Execute(task, nullptr, 0);
}

Result<BatchEngine::BatchRun> BatchEngine::Run(Task task,
                                               const PlanList& plans) {
  if (plans.size() != docs_.size()) {
    return Status::InvalidArgument("plan list size mismatch");
  }
  // Every executing context is pre-sized to the largest handed footprint —
  // the per-context value admission reserved.
  uint64_t presize = 0;
  for (const std::shared_ptr<const RunPlan>& plan : plans) {
    if (plan == nullptr) {
      return Status::InvalidArgument(
          "plan list has a null entry; list only the documents to execute");
    }
    if (plan->task != task || plan->key.backend != options_.backend) {
      return Status::InvalidArgument(
          "plan was built for another task or backend");
    }
    presize = std::max(presize, plan->total_slots);
  }
  return Execute(task, &plans, presize);
}

Result<BatchEngine::BatchRun> BatchEngine::Execute(Task task,
                                                   const PlanList* plans,
                                                   uint64_t presize) {
  Timer wall;
  const size_t n = docs_.size();
  BatchRun batch;
  batch.documents.resize(n);

  const std::vector<std::pair<size_t, size_t>> shards =
      ShardSplit(n, options_.host_workers);

  std::vector<uint64_t> shard_growths(shards.size(), 0);
  if (shards.size() == 1) {
    Status st = RunShard(task, plans, presize, shards[0].first,
                         shards[0].second, &batch.documents, &shard_growths[0]);
    if (!st.ok()) return st;
  } else {
    std::vector<Status> shard_status(shards.size());
    ThreadPool host_pool(shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
      host_pool.Submit(
          [this, task, plans, presize, s, &shards, &shard_status,
           &shard_growths, &batch] {
            shard_status[s] =
                RunShard(task, plans, presize, shards[s].first,
                         shards[s].second, &batch.documents, &shard_growths[s]);
          });
    }
    host_pool.Wait();
    for (const Status& st : shard_status) {
      if (!st.ok()) return st;
    }
  }
  for (uint64_t g : shard_growths) batch.mid_run_pool_growths += g;

  // Merge in list order (scheduling-independent). Serving defers this to
  // Gather and charges nothing here.
  batch.merged.task = task;
  batch.timing = ComposeTiming(batch.documents);
  if (options_.merge_results) {
    MergeDocuments(task,
                   options_.backend == kCpuPlanBackend
                       ? options_.cpu.thread_ops_per_sec()
                       : options_.engine.gpu.device_ops_per_sec(),
                   &batch);
  }
  batch.timing.wall_seconds = wall.ElapsedSeconds();
  return batch;
}

}  // namespace gtadoc
