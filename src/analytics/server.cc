#include "analytics/server.h"

#include <algorithm>
#include <cmath>

#include "gtadoc/engine.h"
#include "tadoc/cpu_engine.h"

namespace gtadoc {

std::vector<uint64_t> DocumentBlooms(const PartitionedCorpus& corpus) {
  std::vector<uint64_t> blooms;
  blooms.reserve(corpus.partitions.size());
  for (const Grammar& g : corpus.partitions) blooms.push_back(DocumentBloom(g));
  return blooms;
}

std::vector<uint8_t> BloomExecuteMask(
    const std::vector<uint64_t>& document_blooms, const TaskKernel& kernel,
    const TaskInput& input) {
  // Each document answers one question — may this run produce output here?
  // — and the kernel owns the answer (TaskKernel::MayMatchDocument), probed
  // against the document's root Bloom.
  std::vector<uint8_t> execute(document_blooms.size(), 1);
  for (size_t d = 0; d < document_blooms.size(); ++d) {
    execute[d] = kernel.MayMatchDocument(document_blooms[d], input) ? 1 : 0;
  }
  return execute;
}

namespace {

/// A plan list's backend-priced estimate summed in corpus order (0 when
/// empty) — the dispatch input.
double EstimateSeconds(const PlanList& plans) {
  double seconds = 0.0;
  for (const auto& plan : plans) seconds += plan ? plan->estimate.seconds : 0;
  return seconds;
}

}  // namespace

const CorpusServer::ServedRun* CorpusServer::RunTicket::TryGet() const {
  if (server_ == nullptr) return nullptr;
  auto it = server_->served_.find(id_);
  return it == server_->served_.end() ? nullptr : &it->second;
}

Result<CorpusServer::ServedRun> CorpusServer::RunTicket::Await() {
  if (server_ == nullptr) {
    return Status::InvalidArgument("Await on an empty RunTicket");
  }
  return server_->AwaitTicket(id_);
}

const std::string& CorpusServer::TenantHandle::name() const {
  static const std::string kEmpty;
  if (server_ == nullptr) return kEmpty;
  auto it = server_->tenants_.find(id_);
  return it == server_->tenants_.end() ? kEmpty : it->second.name;
}

Result<CorpusServer::Submitted> CorpusServer::TenantHandle::Submit(
    const RunRequest& request, const RunOptions& run_options) {
  if (server_ == nullptr) {
    return Status::InvalidArgument("Submit on an empty TenantHandle");
  }
  return server_->SubmitForTenant(id_, request, run_options);
}

Result<CorpusServer::Submitted> CorpusServer::TenantHandle::Submit(
    const RunRequest& request) {
  return Submit(request, RunOptions{});
}

CorpusServer::CorpusServer(const PartitionedCorpus* corpus,
                           const Options& options)
    : corpus_(corpus),
      options_(options),
      scheduler_(std::vector<uint64_t>(options.num_devices,
                                       options.device_slot_budget),
                 options.scheduler) {}

Result<std::unique_ptr<CorpusServer>> CorpusServer::Create(
    const PartitionedCorpus* corpus, const Options& options) {
  if (corpus == nullptr || corpus->partitions.empty()) {
    return Status::InvalidArgument("server needs at least one document");
  }
  if (options.engine.shared_device != nullptr ||
      options.engine.shared_pool != nullptr) {
    return Status::InvalidArgument(
        "server manages device sharing; leave "
        "engine.shared_device/shared_pool null");
  }
  if (options.engine.plan_cache != nullptr) {
    return Status::InvalidArgument(
        "server owns the plan cache; leave engine.plan_cache null");
  }
  if (options.scheduler.cpu_lanes > 0 &&
      options.cpu.thread_ops_per_sec() <= 0.0) {
    return Status::InvalidArgument(
        "CPU lanes need cost-model parameters (Options::cpu.ghz > 0)");
  }
  ShardedCorpus::Options sopt;
  sopt.num_devices = options.num_devices;
  sopt.replication = options.replication;
  auto sharded = ShardedCorpus::Create(corpus, sopt);
  if (!sharded.ok()) return sharded.status();
  // The topology clamps both; the server reports the values in effect.
  Options normalized = options;
  normalized.num_devices = (*sharded)->num_devices();
  normalized.replication = (*sharded)->replication();
  // Every device keeps the documents it executes resident next to its pools,
  // so all its documents plus its slot budget must fit its memory.
  const uint64_t memory_bytes = normalized.engine.gpu.memory_bytes;
  if (memory_bytes != 0) {
    // Compared before multiplying: a huge budget must not wrap to a small
    // byte count.
    if (normalized.device_slot_budget > memory_bytes / sizeof(uint64_t)) {
      return Status::ResourceExhausted(
          "a device slot budget of " +
          std::to_string(normalized.device_slot_budget) +
          " slots exceeds device memory of " + std::to_string(memory_bytes) +
          " bytes");
    }
    std::vector<uint64_t> document_bytes(corpus->partitions.size());
    for (size_t g = 0; g < corpus->partitions.size(); ++g) {
      document_bytes[g] = DeviceGrammar::BytesFor(corpus->partitions[g]);
    }
    for (size_t d = 0; d < normalized.num_devices; ++d) {
      uint64_t need = normalized.device_slot_budget * sizeof(uint64_t);
      for (uint32_t g : (*sharded)->device_docs(d)) need += document_bytes[g];
      if (need > memory_bytes) {
        return Status::ResourceExhausted(
            "device " + std::to_string(d) + " needs " + std::to_string(need) +
            " bytes for its documents and slot budget, more than its " +
            std::to_string(memory_bytes));
      }
    }
  }

  std::unique_ptr<CorpusServer> server(new CorpusServer(corpus, normalized));
  // One cache for the Submit probes of every run: a repeat shape is a free
  // probe. Execution runs each run's own plans and never consults it.
  server->plan_cache_ = std::make_shared<PlanCache>(
      std::max<size_t>(256, 8 * corpus->partitions.size()));
  server->options_.engine.plan_cache = server->plan_cache_.get();
  server->probe_device_ = std::make_unique<gpu::Device>(
      normalized.engine.gpu, normalized.engine.host_workers);
  server->index_ = std::make_unique<CorpusIndex>(&corpus->partitions);
  server->document_blooms_ = DocumentBlooms(*corpus);
  server->sharded_ = std::move(*sharded);
  server->device_group_ = std::make_unique<DeviceGroup>(server->sharded_.get(),
                                                        server->index_.get());
  server->route_load_.assign(normalized.num_devices, 0.0);
  return server;
}

Result<CorpusServer::TenantHandle> CorpusServer::OpenTenant(
    const TenantOptions& options) {
  if (options_.device_slot_budget > 0) {
    // Quotas span the device group, so they are bounded by the group's
    // total capacity, not any single device's.
    const uint64_t capacity =
        options_.device_slot_budget * static_cast<uint64_t>(num_devices());
    if (options.slot_quota > capacity) {
      return Status::InvalidArgument(
          "tenant quota " + std::to_string(options.slot_quota) +
          " slots exceeds the device budget " + std::to_string(capacity));
    }
  }
  const uint64_t id = next_tenant_++;
  Tenant tenant;
  tenant.name =
      options.name.empty() ? "tenant-" + std::to_string(id) : options.name;
  tenant.slot_quota = options.slot_quota;
  tenant.default_priority = options.default_priority;
  // The quota is enforced where reservations happen, atomically with the
  // capacity checks: in the scheduler's ledger, where it bounds the
  // tenant's slots summed over ALL devices.
  scheduler_.ledger()->SetTenantQuota(id, options.slot_quota);
  stats_.tenants[id].name = tenant.name;
  tenants_[id] = std::move(tenant);
  return TenantHandle(this, id);
}

Status CorpusServer::ProbePlans(PendingRun* run, PlanBackend backend,
                                PlanList* plans) {
  // The ONLY time planning is charged: the run executes exactly the plans of
  // the backend it is dispatched to. The key differs per document only in
  // the grammar fingerprint, so a hit needs nothing but the document's
  // index; a miss builds with the backend's planner.
  GTADOC_RETURN_IF_ERROR(ValidateQuerySpec(run->engine));
  auto kernel = TaskRegistry::Get(run->task);
  if (!kernel.ok()) return kernel.status();
  const bool gpu = backend == kGpuPlanBackend;
  const PlanShape shape =
      gpu ? GpuPlanner::Shape(run->engine) : CpuPlanner::Shape(run->engine);
  PlanKey key = MakePlanKey(backend, 0, run->task, TraversalStrategy::kAuto,
                            run->engine.strategy, shape);
  plans->assign(corpus_->partitions.size(), nullptr);
  for (size_t d = 0; d < plans->size(); ++d) {
    if (run->execute_mask[d] == 0) continue;
    auto index = index_->Get(static_cast<uint32_t>(d));
    if (!index.ok()) return index.status();
    const DocumentIndex& doc = **index;
    key.grammar_fp = doc.fingerprint;
    // Both planners are a few references; the backend picks one. The probe
    // device never loads or executes anything, so after the reset its clock
    // holds this build's planning passes alone (nothing on a hit).
    probe_device_->ResetClock();
    CpuCostMeter meter(options_.cpu);
    GpuPlanner gpu_planner(probe_device_.get(), doc.device_grammar,
                           run->engine);
    CpuPlanner cpu_planner(doc.dag, options_.cpu, &meter);
    auto plan = ResolvePlan(
        plan_cache_.get(),
        gpu ? static_cast<Planner*>(&gpu_planner) : &cpu_planner, **kernel,
        corpus_->partitions[d], doc, shape, key);
    if (!plan.ok()) return plan.status();
    run->admission.admission_seconds +=
        gpu ? probe_device_->SimSeconds() : meter.SequentialSeconds();
    (*plans)[d] = std::move(*plan);
  }
  return Status::OK();
}

void CorpusServer::ShardFootprint(PendingRun* run) {
  run->route = sharded_->Route(run->execute_mask, run->plans, route_load_);
  const size_t num_devices = sharded_->num_devices();
  run->device_footprint.assign(num_devices, 0);
  run->device_weight.assign(num_devices, 0.0);

  uint64_t total = 0;
  for (size_t d = 0; d < num_devices; ++d) {
    const std::vector<uint32_t>& docs = run->route.device_docs[d];
    if (docs.empty()) continue;
    // Per-device pre-size: the maximum plan footprint over the documents
    // routed HERE — the value this device's BatchEngine pre-sizes its pools
    // to from the same plans, not the corpus-wide maximum.
    uint64_t presize = 0;
    for (uint32_t g : docs) {
      const uint64_t slots = run->plans[g]->total_slots;
      presize = std::max(presize, slots);
      run->device_weight[d] += slots > 0 ? static_cast<double>(slots) : 1.0;
    }
    // One pool per worker context, each pre-sized to the same value; the
    // device's BatchEngine splits exactly its routed documents with
    // BatchEngine's own split, so admission prices the contexts execution
    // creates.
    const size_t contexts =
        BatchEngine::ShardSplit(docs.size(), options_.host_workers).size();
    run->device_footprint[d] = contexts * presize;
    total += run->device_footprint[d];
    // The pre-sizing allocation call each context will pay at setup,
    // charged to admission so moving the growth out of the run does not
    // make it free.
    if (presize > 0) {
      run->admission.admission_seconds += static_cast<double>(contexts) *
                                          options_.engine.gpu.device_alloc_us *
                                          1e-6;
    }
  }
  // footprint_slots stays the run's TOTAL reservation (what tenant quotas
  // bound); the per-device split is what admission reserves.
  run->admission.footprint_slots = total;
}

Result<CorpusServer::Submitted> CorpusServer::SubmitForTenant(
    uint64_t tenant_id, const RunRequest& request,
    const RunOptions& run_options) {
  auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) {
    return Status::InvalidArgument("unknown tenant id " +
                                   std::to_string(tenant_id));
  }
  const Tenant& tenant = tenant_it->second;

  // An unregistered task is a genuine NotFound, not a policy Rejection.
  auto kernel_lookup = TaskRegistry::Get(request.task);
  if (!kernel_lookup.ok()) return kernel_lookup.status();
  const TaskKernel& kernel = **kernel_lookup;

  Submitted out;
  // Malformed QoS parameters are a structured refusal: the caller can fix
  // and resubmit; nothing is wrong with the server.
  if (std::isnan(run_options.deadline_seconds) ||
      run_options.deadline_seconds < 0.0) {
    Rejection rejection;
    rejection.reason = Rejection::Reason::kMalformed;
    rejection.detail = "deadline_seconds must be non-negative";
    ++stats_.rejected;
    ++stats_.tenants[tenant_id].rejected;
    out.rejection = std::move(rejection);
    return out;
  }
  const bool lanes_enabled = options_.scheduler.cpu_lanes > 0;
  if (run_options.backend == RunBackend::kCpu && !lanes_enabled) {
    Rejection rejection;
    rejection.reason = Rejection::Reason::kMalformed;
    rejection.detail =
        "backend = kCpu on a server with no CPU lanes "
        "(Options::scheduler.cpu_lanes == 0)";
    ++stats_.rejected;
    ++stats_.tenants[tenant_id].rejected;
    out.rejection = std::move(rejection);
    return out;
  }

  PendingRun run;
  run.task = request.task;
  run.engine = options_.engine;
  // Empty / 0 request fields inherit the server's engine defaults under
  // the replace-whole rule (analytics/query_spec.h): an explicit query
  // replaces the default WHOLE — both fields together — because the
  // engines prefer query_sets whenever it is non-empty.
  static_cast<QuerySpec&>(run.engine) =
      ResolveQueryDefaults(request, options_.engine);

  run.execute_mask = BloomExecuteMask(
      document_blooms_, kernel, GTadocEngine::InputFromOptions(run.engine));
  uint32_t to_execute = 0;
  for (uint8_t e : run.execute_mask) to_execute += e;
  run.admission.documents_to_execute = to_execute;
  run.admission.documents_skipped =
      static_cast<uint32_t>(corpus_->partitions.size()) - to_execute;

  // Dispatch: decide the backend from the plan-derived estimates BEFORE
  // pricing any footprint, so a CPU-dispatched run is never charged the
  // GPU-side pre-sizing allocation it will not perform. A run that executes
  // nothing is priced as exactly nothing: footprint 0, no probe, no
  // pre-sizing allocation charge — admitted immediately without reserving
  // any budget (its all-null plan list makes the gather assemble every
  // document empty). An unprobed side's estimate is 0: the documented
  // losing_estimate_seconds contract for forced dispatch.
  RunBackend backend = run_options.backend == RunBackend::kCpu
                           ? RunBackend::kCpu
                           : RunBackend::kGpu;
  PlanList gpu_plans;
  PlanList cpu_plans;
  if (to_execute > 0) {
    const bool probe_gpu = run_options.backend != RunBackend::kCpu;
    const bool probe_cpu =
        run_options.backend == RunBackend::kCpu ||
        (run_options.backend == RunBackend::kAuto && lanes_enabled);
    if (probe_gpu) {
      GTADOC_RETURN_IF_ERROR(ProbePlans(&run, kGpuPlanBackend, &gpu_plans));
    }
    if (probe_cpu) {
      GTADOC_RETURN_IF_ERROR(ProbePlans(&run, kCpuPlanBackend, &cpu_plans));
    }
    // A tie dispatches to the CPU: a lane run reserves zero device slots,
    // so at equal estimated cost it is strictly cheaper to admit.
    if (probe_gpu && probe_cpu &&
        EstimateSeconds(cpu_plans) <= EstimateSeconds(gpu_plans)) {
      backend = RunBackend::kCpu;
    }
  }
  const bool cpu_chosen = backend == RunBackend::kCpu;
  run.admission.backend = backend;
  run.admission.backend_estimate_seconds =
      EstimateSeconds(cpu_chosen ? cpu_plans : gpu_plans);
  run.admission.losing_estimate_seconds =
      EstimateSeconds(cpu_chosen ? gpu_plans : cpu_plans);
  // Execution runs the chosen side's plans and nothing else.
  run.plans = std::move(cpu_chosen ? cpu_plans : gpu_plans);
  run.plans.resize(corpus_->partitions.size());
  // A CPU run is routed to one lane and reserves it; a GPU run is routed
  // over the devices and reserves its footprint there.
  if (cpu_chosen) {
    run.route = ShardedCorpus::RouteToLane(run.execute_mask);
  } else {
    ShardFootprint(&run);
  }

  // Over-budget refusal: every device's share must fit that device's
  // budget.
  uint64_t over_slots = 0;
  for (uint64_t device_slots : run.device_footprint) {
    if (options_.device_slot_budget > 0 &&
        device_slots > options_.device_slot_budget) {
      over_slots = device_slots;
      break;
    }
  }
  if (over_slots > 0) {
    Rejection rejection;
    rejection.reason = Rejection::Reason::kOverBudget;
    rejection.requested_slots = over_slots;
    rejection.limit_slots = options_.device_slot_budget;
    rejection.detail =
        "run footprint " + std::to_string(over_slots) +
        " slots exceeds the device budget " +
        std::to_string(options_.device_slot_budget);
    ++stats_.rejected;
    ++stats_.tenants[tenant_id].rejected;
    out.rejection = std::move(rejection);
    return out;
  }
  if (tenant.slot_quota > 0 &&
      run.admission.footprint_slots > tenant.slot_quota) {
    Rejection rejection;
    rejection.reason = Rejection::Reason::kOverQuota;
    rejection.requested_slots = run.admission.footprint_slots;
    rejection.limit_slots = tenant.slot_quota;
    rejection.detail =
        "run footprint " + std::to_string(run.admission.footprint_slots) +
        " slots exceeds tenant '" + tenant.name + "' quota " +
        std::to_string(tenant.slot_quota);
    ++stats_.rejected;
    ++stats_.tenants[tenant_id].rejected;
    out.rejection = std::move(rejection);
    return out;
  }

  run.admission.ticket = next_ticket_++;
  run.admission.tenant = tenant_id;
  run.admission.priority =
      run_options.priority.value_or(tenant.default_priority);
  run.admission.deadline =
      run_options.deadline_seconds == kNoDeadline
          ? kNoDeadline
          : scheduler_.now() + run_options.deadline_seconds;
  ++stats_.submitted;
  ++stats_.tenants[tenant_id].submitted;
  // The admitted run's routed documents become standing load, steering
  // later runs' replica selection toward the less-loaded devices.
  for (size_t d = 0; d < run.device_weight.size(); ++d) {
    route_load_[d] += run.device_weight[d];
  }

  ScheduledRun scheduled;
  scheduled.ticket = run.admission.ticket;
  scheduled.tenant = tenant_id;
  scheduled.reservation.device_slots = run.device_footprint;
  scheduled.reservation.lane = run.route.lane_docs.has_value();
  scheduled.priority = run.admission.priority;
  scheduled.deadline = run.admission.deadline;
  scheduler_.Enqueue(scheduled);

  out.ticket = RunTicket(this, run.admission.ticket);
  out.admission = run.admission;
  pending_.emplace(run.admission.ticket, std::move(run));
  return out;
}

Result<DeviceGroup::RunResult> CorpusServer::Execute(const PendingRun& run,
                                                     double start_time) {
  DeviceGroup::RunSpec spec;
  spec.task = run.task;
  spec.engine = run.engine;
  spec.route = &run.route;
  spec.start_time = start_time;
  spec.plans = run.plans;
  spec.cpu = options_.cpu;
  spec.host_workers = options_.host_workers;
  // Live progress: executed documents tick from the shard workers.
  spec.on_document_executed = [this](const BatchEngine::DocumentRun&) {
    std::lock_guard<std::mutex> lock(progress_mu_);
    ++stats_.documents_executed;
  };
  return device_group_->Execute(spec);
}

Status CorpusServer::ServeLoop(std::optional<uint64_t> until_ticket) {
  while (auto decision = scheduler_.StartNext()) {
    auto it = pending_.find(decision->ticket);
    if (it == pending_.end()) {
      return Status::Internal("scheduler started unknown ticket " +
                              std::to_string(decision->ticket));
    }
    PendingRun run = std::move(it->second);
    pending_.erase(it);

    auto executed_run = Execute(run, decision->start_time);
    if (!executed_run.ok()) {
      // The first failure abandons the queue. The failed run's reservation
      // (and any still-active ones) are retired so the budget does not
      // leak.
      scheduler_.Finish(decision->ticket, {}, 0.0);
      scheduler_.DrainActive();
      scheduler_.ClearQueue();
      pending_.clear();
      SyncSchedulerStats();
      return executed_run.status();
    }
    DeviceGroup::RunResult& result = *executed_run;
    const double duration = result.batch.timing.total_seconds();
    // Each device is releasable at its OWN shard's end, and the run
    // completes after its slowest shard plus the gather tail; a lane runs
    // the merge itself, so its one duration is the whole run.
    scheduler_.Finish(decision->ticket,
                      run.route.lane_docs ? std::vector<double>{duration}
                                          : result.device_durations,
                      result.gather_seconds);

    ServedRun served;
    served.admission = run.admission;
    served.start_seconds = decision->start_time;
    served.completion_seconds = decision->start_time + duration;
    served.queue_wait_seconds = decision->queue_wait;
    served.backfilled = decision->backfilled;
    served.device_durations = std::move(result.device_durations);
    served.gather_seconds = result.gather_seconds;
    served.batch = std::move(result.batch);
    const uint64_t executed =
        static_cast<uint64_t>(served.batch.documents.size()) -
        served.batch.documents_skipped;

    ++stats_.served;
    stats_.documents_skipped += served.batch.documents_skipped;
    stats_.mid_run_pool_growths += served.batch.mid_run_pool_growths;
    stats_.queue_wait_seconds += decision->queue_wait;
    TenantStats& tstats = stats_.tenants[run.admission.tenant];
    ++tstats.served;
    tstats.queue_wait_seconds += decision->queue_wait;
    if (decision->backfilled) ++tstats.backfills;

    // Per-backend breakdown, server-wide and per tenant: which side served
    // the run, how much simulated time and work it took there.
    const uint64_t run_ops =
        served.batch.timing.init_ops + served.batch.timing.traversal_ops;
    const bool cpu_run = run.admission.backend == RunBackend::kCpu;
    BackendStats& backend_stats =
        cpu_run ? stats_.cpu_backend : stats_.gpu_backend;
    BackendStats& tenant_backend =
        cpu_run ? tstats.cpu_backend : tstats.gpu_backend;
    for (BackendStats* bs : {&backend_stats, &tenant_backend}) {
      ++bs->runs;
      bs->documents_executed += executed;
      bs->simulated_seconds += duration;
      bs->ops += run_ops;
    }

    const uint64_t ticket = decision->ticket;
    served_.emplace(ticket, std::move(served));
    if (until_ticket.has_value() && ticket == *until_ticket) break;
  }
  // A full serve retires every remaining completion event; an Await cut
  // short leaves the active set reserved — those runs are still resident
  // on the simulated timeline.
  if (!until_ticket.has_value()) scheduler_.DrainActive();
  SyncSchedulerStats();
  return Status::OK();
}

Result<CorpusServer::ServedRun> CorpusServer::AwaitTicket(uint64_t ticket) {
  if (served_.find(ticket) == served_.end()) {
    if (pending_.find(ticket) == pending_.end()) {
      return Status::NotFound("ticket " + std::to_string(ticket) +
                              " is not queued or served (already taken, or "
                              "abandoned by a failed serve)");
    }
    GTADOC_RETURN_IF_ERROR(ServeLoop(ticket));
  }
  auto it = served_.find(ticket);
  if (it == served_.end()) {
    return Status::Internal("ticket " + std::to_string(ticket) +
                            " did not complete");
  }
  ServedRun out = std::move(it->second);
  served_.erase(it);
  return out;
}

Status CorpusServer::ServeUntilIdle() { return ServeLoop(std::nullopt); }

void CorpusServer::SyncSchedulerStats() {
  stats_.backfills = scheduler_.backfills();
  stats_.makespan_seconds = scheduler_.now();
  stats_.plan_cache.hits = plan_cache_->hits();
  stats_.plan_cache.misses = plan_cache_->misses();
  stats_.plan_cache.evictions = plan_cache_->evictions();
  stats_.plan_cache.size = plan_cache_->size();
  for (const auto& [tenant, seconds] : scheduler_.slot_seconds()) {
    stats_.tenants[tenant].slot_seconds_held = seconds;
  }
  for (const auto& [tenant, per_device] :
       scheduler_.slot_seconds_per_device()) {
    stats_.tenants[tenant].slot_seconds_per_device = per_device;
  }

  // Group total for the aggregate; per-device peaks (each bounded by the
  // per-device budget — the admission invariant) in devices[].
  const SlotLedger& ledger = *scheduler_.ledger();
  stats_.peak_admitted_slots = ledger.peak_in_use();
  stats_.peak_cpu_lanes_in_use =
      static_cast<uint32_t>(ledger.peak_lanes_in_use());
  const size_t num_devices = sharded_->num_devices();
  stats_.devices.assign(num_devices, Stats::DeviceStats{});
  for (size_t d = 0; d < num_devices; ++d) {
    Stats::DeviceStats& device = stats_.devices[d];
    static_cast<DeviceGroup::DeviceCounters&>(device) =
        device_group_->counters()[d];
    device.peak_admitted_slots = ledger.peak_in_use_on(d);
  }
  for (const auto& [tenant, per_device] :
       scheduler_.slot_seconds_per_device()) {
    (void)tenant;
    for (size_t d = 0; d < per_device.size() && d < num_devices; ++d) {
      stats_.devices[d].slot_seconds_held += per_device[d];
    }
  }
}

}  // namespace gtadoc
