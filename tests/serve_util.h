#ifndef GTADOC_TESTS_SERVE_UTIL_H_
#define GTADOC_TESTS_SERVE_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/batch.h"
#include "analytics/document_index.h"
#include "analytics/run_plan.h"
#include "analytics/server.h"
#include "analytics/uncompressed.h"
#include "common/result.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "tadoc/cpu_engine.h"

namespace gtadoc {

/// Submits `request` through `tenant`, folding a structured rejection into
/// an error so a test can assert on one Result.
inline Result<CorpusServer::Submitted> Admit(
    CorpusServer::TenantHandle tenant,
    const CorpusServer::RunRequest& request) {
  auto submitted = tenant.Submit(request);
  if (!submitted.ok()) return submitted.status();
  if (!submitted->admitted()) {
    return Status::Internal("rejected: " + submitted->rejection->detail);
  }
  return submitted;
}

/// Serves every queued run to completion, then takes the results of
/// `tickets` in the order given.
inline Result<std::vector<CorpusServer::ServedRun>> ServeAll(
    CorpusServer* server, std::vector<CorpusServer::RunTicket> tickets) {
  GTADOC_RETURN_IF_ERROR(server->ServeUntilIdle());
  std::vector<CorpusServer::ServedRun> served;
  for (CorpusServer::RunTicket& ticket : tickets) {
    auto run = ticket.Await();
    if (!run.ok()) return run.status();
    served.push_back(std::move(*run));
  }
  return served;
}

/// Opens one unquotaed tenant, submits every request through it, and serves
/// them all: the tenant-API form of "submit a batch, serve it, read the
/// results in submission order".
inline Result<std::vector<CorpusServer::ServedRun>> SubmitAndServe(
    CorpusServer* server,
    const std::vector<CorpusServer::RunRequest>& requests) {
  auto tenant = server->OpenTenant({});
  if (!tenant.ok()) return tenant.status();
  std::vector<CorpusServer::RunTicket> tickets;
  for (const CorpusServer::RunRequest& request : requests) {
    auto submitted = Admit(*tenant, request);
    if (!submitted.ok()) return submitted.status();
    tickets.push_back(*submitted->ticket);
  }
  return ServeAll(server, std::move(tickets));
}

/// Each document's plan for `task` under `options` — what a Submit probe
/// hands execution — or null where `execute` (empty = all) is 0. CPU plans
/// are priced on the Pascal platform's host CPU. Engines borrow document
/// indexes from `index` (null: a private index over `corpus`).
inline Result<PlanList> PlanDocuments(
    const PartitionedCorpus& corpus, const GTadocEngine::Options& options,
    Task task, const std::vector<uint8_t>& execute = {},
    PlanBackend backend = kGpuPlanBackend,
    const CorpusIndex* index = nullptr) {
  std::unique_ptr<CorpusIndex> owned_index;
  if (index == nullptr) {
    owned_index = std::make_unique<CorpusIndex>(&corpus.partitions);
    index = owned_index.get();
  }
  CpuTadocOptions cpu_options;
  static_cast<QuerySpec&>(cpu_options) = options;
  cpu_options.cpu = gpu::PascalPlatform().cpu;
  cpu_options.strategy = options.strategy;
  PlanList plans(corpus.partitions.size());
  for (size_t d = 0; d < plans.size(); ++d) {
    if (!execute.empty() && execute[d] == 0) continue;
    auto doc_index = index->Get(static_cast<uint32_t>(d));
    if (!doc_index.ok()) return doc_index.status();
    const Grammar* doc = &corpus.partitions[d];
    auto plan = [&]() -> Result<std::shared_ptr<const RunPlan>> {
      if (backend == kCpuPlanBackend) {
        auto engine = CpuTadocEngine::Create(doc, *doc_index, cpu_options);
        if (!engine.ok()) return engine.status();
        return engine->PlanOnly(task);
      }
      auto engine = GTadocEngine::Create(doc, *doc_index, options);
      if (!engine.ok()) return engine.status();
      return (*engine)->PlanOnly(task);
    }();
    if (!plan.ok()) return plan.status();
    plans[d] = std::move(*plan);
  }
  return plans;
}

/// The documents a run executes, as a caller that skips documents hands
/// them to BatchEngine: the ids `execute` (empty = all) keeps, ascending,
/// and each one's plan (PlanDocuments' arguments).
struct ExecutedPlans {
  std::vector<uint32_t> ids;
  PlanList plans;
};

inline Result<ExecutedPlans> PlanExecuted(
    const PartitionedCorpus& corpus, const GTadocEngine::Options& options,
    Task task, const std::vector<uint8_t>& execute = {},
    PlanBackend backend = kGpuPlanBackend,
    const CorpusIndex* index = nullptr) {
  auto all = PlanDocuments(corpus, options, task, execute, backend, index);
  if (!all.ok()) return all.status();
  ExecutedPlans out;
  for (uint32_t d = 0; d < all->size(); ++d) {
    if ((*all)[d] == nullptr) continue;
    out.ids.push_back(d);
    out.plans.push_back(std::move((*all)[d]));
  }
  return out;
}

/// The serial one-device reference of a GPU run that executes the
/// documents `execute` (empty = all) keeps: one BatchEngine over them, then
/// the shared corpus-order gather at the device's reduce rate.
inline Result<BatchEngine::BatchRun> SerialGatheredRun(
    const PartitionedCorpus& corpus, const GTadocEngine::Options& options,
    Task task, const std::vector<uint8_t>& execute = {}) {
  auto executed = PlanExecuted(corpus, options, task, execute);
  if (!executed.ok()) return executed.status();
  BatchEngine::BatchRun batch;
  batch.timing.documents = 0;
  if (!executed->ids.empty()) {
    BatchEngine::Options bopt;
    bopt.engine = options;
    bopt.merge_results = false;
    auto engine = BatchEngine::Create(&corpus, bopt, nullptr, &executed->ids);
    if (!engine.ok()) return engine.status();
    auto run = (*engine)->Run(task, executed->plans);
    if (!run.ok()) return run.status();
    batch = std::move(*run);
  }
  auto gather = BatchEngine::Gather(task, options, corpus,
                                    options.gpu.device_ops_per_sec(), &batch);
  if (!gather.ok()) return gather.status();
  return batch;
}

/// The uncompressed reference result of `request` over `corpus` (global
/// file ids), with the request's query resolved against `defaults` as the
/// server resolves it.
inline Result<AnalyticsResult> UncompressedTruth(
    const PartitionedCorpus& corpus, const CorpusServer::RunRequest& request,
    const GTadocEngine::Options& defaults) {
  std::vector<std::vector<uint32_t>> files;
  for (const Grammar& doc : corpus.partitions) {
    auto expanded = ExpandFiles(doc);
    if (!expanded.ok()) return expanded.status();
    for (auto& file : *expanded) files.push_back(std::move(file));
  }
  return UncompressedAnalytics(files, ResolveQueryDefaults(request, defaults))
      .RunSequential(request.task);
}

}  // namespace gtadoc

#endif  // GTADOC_TESTS_SERVE_UTIL_H_
