#ifndef GTADOC_ANALYTICS_SERVER_H_
#define GTADOC_ANALYTICS_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analytics/batch.h"
#include "analytics/document_index.h"
#include "analytics/query_spec.h"
#include "analytics/run_plan.h"
#include "analytics/scheduler.h"
#include "analytics/sharding.h"
#include "analytics/task_kernel.h"
#include "common/result.h"
#include "sequitur/compressor.h"

namespace gtadoc {

/// Each document's root Bloom filter (DocumentBloom), in corpus order.
std::vector<uint64_t> DocumentBlooms(const PartitionedCorpus& corpus);

/// Which documents a run of `kernel` over `input` must execute, decided
/// purely from the documents' root Bloom filters (`document_blooms`, one per
/// document as DocumentBlooms returns them). The per-document question —
/// may this run produce output here? — is answered by the kernel itself
/// (TaskKernel::MayMatchDocument): the default derives "any accepted word
/// may be present" from AcceptedWords (keywordSearch), and kernels with
/// conjunctive semantics override it (phraseSearch rejects a document
/// unless every word of some query phrase may be present).
///
/// Returns one entry per document, 1 = execute. Bloom false positives only
/// cost work — a passed document that holds no real match executes and
/// contributes an empty result — never correctness: a rejected word is
/// *provably* absent from the whole document, so the skipped document's
/// result is empty by construction.
std::vector<uint8_t> BloomExecuteMask(
    const std::vector<uint64_t>& document_blooms, const TaskKernel& kernel,
    const TaskInput& input);

/// \brief Plan-aware serving front-end over a DeviceGroup: rolling
/// admission, multi-tenant QoS and corpus-level Bloom pushdown for
/// concurrent analytics runs on N simulated GPUs (N = 1 by default).
///
/// The paper's pitch is analytics *served* directly on compressed data; a
/// server multiplexing many queries over one device has levers the
/// execution layers below cannot pull:
///
///   1. **Plan-metadata admission.** Submit resolves one plan per executed
///      document, so a run's full pool footprint (`RunPlan::total_slots`)
///      is known before execution, and the run keeps those plans: it
///      executes exactly what it was admitted on and never plans again.
///      The server packs concurrent runs onto the device up to a slot
///      budget — the admitted set never oversubscribes device memory, and
///      `BatchEngine::Run(task, plans)` pre-sizes each executing context's
///      pool to the handed footprint, so NO admitted run ever triggers a
///      mid-run EnsureCapacity growth. A run whose footprint exceeds the
///      whole budget (or its tenant's quota) is refused at Submit.
///   2. **Rolling admission (RunScheduler).** Admitted runs are co-resident
///      tenants overlapping in SIMULATED time; each releases its
///      reservation at its OWN completion, and the next eligible queued run
///      starts the moment its footprint fits. QoS rides on top: per-tenant
///      slot quotas, run priorities, optional deadlines (EDF within a
///      priority), and starvation-free backfill (a bypassed run ages into
///      urgency; see RunSchedulerOptions::aging_limit). Host execution
///      stays serial in admission order, so served results are
///      bit-identical to serial BatchEngine runs under EVERY admission
///      order; the scheduler governs simulated queue-wait and occupancy.
///   3. **Root-Bloom corpus skip.** For selective runs (keyword / phrase /
///      multi-query) a document whose root Bloom filter rejects the query
///      (BloomExecuteMask) is skipped before any engine binds it: no load,
///      no plan, no traversal. Skipped documents contribute the kernel's
///      assembly of zero entries, so the merged corpus result stays
///      bit-identical to the unskipped run.
///
/// The API is session-oriented: `OpenTenant` returns a TenantHandle; its
/// `Submit` returns a RunTicket (or a structured Rejection);
/// `ServeUntilIdle` (or `RunTicket::Await`) executes under rolling
/// admission. Every run goes through the one execution path: a RoutePlan
/// names the resources it holds — devices of the ShardedCorpus (one device
/// being the ordinary case) or one CPU lane — the scheduler's SlotLedger
/// reserves exactly those, and the DeviceGroup executes it there and ends
/// in the one corpus-order gather (BatchEngine::Gather).
class CorpusServer {
 public:
  /// Which backend a run executes on. kAuto lets the dispatcher compare the
  /// two plan-derived CostEstimates and pick the cheaper; kGpu/kCpu force
  /// one side (the forced-backend escape hatch, and the bench's pure-mode
  /// baselines).
  enum class RunBackend {
    kAuto = 0,
    kGpu = 1,
    kCpu = 2,
  };

  struct Options {
    /// Per-run base engine configuration. Per-run query fields
    /// (query_words/query_sets/top_k/ngram_len) are overridden by each
    /// RunRequest; shared_device/shared_pool must be left null and
    /// plan_cache is managed by the server (the Submit probes' memo across
    /// requests; execution runs the plans each run was admitted on and
    /// never consults it).
    GTadocEngine::Options engine;
    /// Device pool-slot budget concurrent admitted runs must fit in (the
    /// device-memory model of admission). 0 = unmetered: everything admits
    /// immediately. This is the budget of EACH device: a Submit is rejected
    /// (Rejection::Reason::kOverBudget) when any single device's share of
    /// its footprint exceeds a non-zero budget even alone.
    uint64_t device_slot_budget = 0;
    /// Simulated GPUs the corpus is sharded across (ShardedCorpus,
    /// round-robin document placement); 0 counts as 1. Each admitted GPU run
    /// is routed only to the devices holding documents its root Blooms did
    /// not reject, executes shard-local batches that overlap on the
    /// simulated timeline, and gathers through one corpus-order merge —
    /// merged and per-document results are bit-identical to a serial
    /// BatchEngine run under every device count. One device is the same
    /// path with a topology of one. Every device runs its documents out of
    /// the one corpus by global id; no grammar is copied on the host.
    size_t num_devices = 1;
    /// Grammar copies per document across the device group, clamped to
    /// [1, num_devices]. R > 1 lets hot documents execute on whichever
    /// replica is least loaded (slot-weighted, admission-time routing).
    /// options() reports both fields as the ShardedCorpus clamped them.
    size_t replication = 1;
    /// Host worker threads per run's BatchEngine (wall clock only). Each
    /// resource a run holds (a device, or its CPU lane) splits the
    /// documents routed to it over up to this many worker contexts; each
    /// GPU context holds its own pool, so a device's admission footprint is
    /// its context count, BatchEngine::ShardSplit(routed,
    /// host_workers).size(), times the maximum plan footprint routed there.
    size_t host_workers = 1;
    /// Rolling-admission QoS knobs: aging limit for starvation-free
    /// backfill, and `scheduler.cpu_lanes` — the hybrid-dispatch switch and
    /// the lane capacity of the scheduler's SlotLedger. With cpu_lanes > 0
    /// every kAuto Submit probes BOTH backends' plan-derived CostEstimates
    /// and dispatches the run to the cheaper one; a CPU-dispatched run is
    /// routed to one lane and reserves it in the ledger (never device
    /// slots), holds it through its merge, and overlaps GPU device time on
    /// the scheduler's clock. 0 (the default) keeps GPU-only serving
    /// bit-for-bit unchanged.
    RunSchedulerOptions scheduler;
    /// Cost model of the CPU backend. Required (ghz > 0) when
    /// scheduler.cpu_lanes > 0; ignored otherwise.
    gpu::CpuSpec cpu;
  };

  /// One serving request: a task plus its per-run query parameters — the
  /// shared QuerySpec, with request semantics: 0 / empty = inherit the
  /// server's engine defaults under the replace-whole rule documented in
  /// analytics/query_spec.h (an explicit query_words or query_sets
  /// replaces the default query as a whole, so an explicit single-word
  /// request is never shadowed by a default multi-query set).
  struct RunRequest : QuerySpec {
    RunRequest() {
      // QuerySpec's engine-facing defaults (top_k=10, ngram_len=3) become
      // "inherit" markers in a request.
      top_k = 0;
      ngram_len = 0;
    }
    Task task = Task::kWordCount;
  };

  /// Per-run QoS parameters of a tenant Submit.
  struct RunOptions {
    /// Higher starts first. Unset: the tenant's default_priority.
    std::optional<int32_t> priority;
    /// Completion target in simulated seconds from submission; runs of
    /// equal priority start earliest-deadline-first. kNoDeadline = none;
    /// negative or NaN is malformed (Rejection::Reason::kMalformed).
    double deadline_seconds = kNoDeadline;
    /// Backend override. kAuto (default) dispatches on the cheaper
    /// CostEstimate when CPU lanes are enabled, and to the GPU otherwise.
    /// Forcing kCpu on a server with no CPU lanes is malformed
    /// (Rejection::Reason::kMalformed) — there is nothing to run it on.
    /// Results are bit-identical under every choice; only the simulated
    /// schedule moves.
    RunBackend backend = RunBackend::kAuto;
  };

  /// A registered serving principal.
  struct TenantOptions {
    std::string name;  ///< empty: "tenant-<id>"
    /// Ceiling on the tenant's concurrently reserved slots, summed over
    /// devices. Admission enforces it atomically with the device budgets
    /// (SlotLedger tenant quotas), and a single run over the quota is
    /// rejected at Submit (Rejection::Reason::kOverQuota). 0 = unquotaed.
    uint64_t slot_quota = 0;
    /// Priority applied when a Submit's RunOptions leaves priority unset.
    int32_t default_priority = 0;
  };

  /// Submit's receipt: everything admission decided from plan metadata and
  /// root Blooms, before any execution.
  struct Admission {
    uint64_t ticket = 0;  ///< unique, ascending in submission order
    /// The run's full device pool footprint in slots, summed over devices:
    /// each device's worker contexts (its routed documents split over
    /// host_workers) times the maximum RunPlan::total_slots over the
    /// documents routed there. Each device's share is what admission
    /// reserves against that device's budget, and the per-device maximum
    /// is what its context pools are pre-sized to.
    /// A run that executes zero documents (fully Bloom-masked, or an empty
    /// query on a selective task) has footprint 0 and is served without
    /// reserving any budget — and without charging any pre-sizing
    /// allocation.
    uint64_t footprint_slots = 0;
    uint32_t documents_to_execute = 0;
    uint32_t documents_skipped = 0;  ///< root-Bloom rejected at Submit
    /// Simulated seconds the probe charged (plan builds for every executed
    /// document, plus the pre-sizing allocation the execution contexts will
    /// pay). Execution runs the probe's plans and reports plan_seconds == 0
    /// — planning moved to admission, it did not disappear.
    double admission_seconds = 0;
    uint64_t tenant = 0;   ///< owning tenant id
    int32_t priority = 0;  ///< resolved priority
    /// Absolute simulated-clock deadline (submit time + deadline_seconds);
    /// kNoDeadline when none was requested.
    double deadline = kNoDeadline;
    /// The backend this run was dispatched to — kGpu always on a server
    /// without CPU lanes. A kCpu run reserves ZERO device slots (its
    /// footprint_slots is 0); it occupies one CPU lane instead.
    RunBackend backend = RunBackend::kGpu;
    /// The chosen backend's plan-derived estimate, summed over the run's
    /// executed documents (simulated seconds). 0 when nothing executes.
    double backend_estimate_seconds = 0;
    /// The rejected backend's estimate — the number the dispatcher decided
    /// against, kept so mispredictions are auditable per run. 0 when only
    /// one side was probed (forced backend, or CPU lanes disabled).
    double losing_estimate_seconds = 0;
  };

  /// One served run: its admission receipt, its place on the simulated
  /// schedule, and the full batch output (per-document + merged + timing).
  struct ServedRun {
    Admission admission;
    BatchEngine::BatchRun batch;
    double start_seconds = 0;       ///< simulated admission (start) time
    double completion_seconds = 0;  ///< start + the run's simulated duration
    double queue_wait_seconds = 0;  ///< start - submit (simulated)
    /// True when the run started while an earlier-ordered run was still
    /// queued (rolling backfill into budget the larger run could not use).
    bool backfilled = false;
    /// GPU runs: each device's simulated shard duration (0 for devices the
    /// run was not routed to). completion_seconds is then start +
    /// max(device_durations) + gather_seconds, while each device's
    /// reservation was released at its OWN shard completion. Empty for
    /// CPU-lane runs.
    std::vector<double> device_durations;
    /// GPU runs: the corpus-order merge tail after the slowest shard.
    double gather_seconds = 0;
  };

  /// A structured admission refusal: the policy that refused, and the
  /// numbers behind it. Distinct from Status — a Rejection is a correct
  /// "no" (the run is over a limit or malformed), not a serving failure;
  /// genuine errors (unknown task, probe failure) stay Status.
  struct Rejection {
    enum class Reason {
      kOverBudget,  ///< footprint exceeds the whole device budget
      kOverQuota,   ///< footprint exceeds the tenant's slot quota
      kMalformed,   ///< invalid request parameters (e.g. negative deadline)
    };
    Reason reason = Reason::kOverBudget;
    std::string detail;
    uint64_t requested_slots = 0;
    uint64_t limit_slots = 0;
  };

  /// Handle to one submitted run's future result. Copyable; all copies
  /// refer to the same run. The server must outlive every ticket.
  class RunTicket {
   public:
    RunTicket() = default;
    bool valid() const { return server_ != nullptr; }
    uint64_t id() const { return id_; }
    /// The served result, or null while the run is still queued (or after
    /// Await moved it out). Never serves; a pure peek.
    const ServedRun* TryGet() const;
    /// Serves (rolling admission) until this run completes, then moves its
    /// result out of the server. A second Await on the same run is
    /// NotFound.
    Result<ServedRun> Await();

   private:
    friend class CorpusServer;
    RunTicket(CorpusServer* server, uint64_t id) : server_(server), id_(id) {}
    CorpusServer* server_ = nullptr;
    uint64_t id_ = 0;
  };

  /// A tenant Submit's outcome: exactly one of {ticket + admission,
  /// rejection} is engaged.
  struct Submitted {
    std::optional<RunTicket> ticket;     ///< the run's handle, when admitted
    std::optional<Admission> admission;  ///< receipt, when admitted
    std::optional<Rejection> rejection;  ///< structured refusal otherwise
    bool admitted() const { return ticket.has_value(); }
  };

  /// A tenant session. Copyable; all copies share the tenant's quota and
  /// stats. The server must outlive every handle.
  class TenantHandle {
   public:
    TenantHandle() = default;
    bool valid() const { return server_ != nullptr; }
    uint64_t id() const { return id_; }
    const std::string& name() const;
    /// Probes and enqueues one run under this tenant: resolves the Bloom
    /// execute mask and plans every executed document through the shared
    /// PlanCache (the footprint probe; the run keeps the plans and executes
    /// them); reserves nothing yet. Policy refusals come back as
    /// Submitted::rejection; genuine failures (unknown task, probe error)
    /// as a non-OK Result.
    Result<Submitted> Submit(const RunRequest& request,
                             const RunOptions& run_options);
    /// Submit with the tenant's default priority and no deadline.
    Result<Submitted> Submit(const RunRequest& request);

   private:
    friend class CorpusServer;
    TenantHandle(CorpusServer* server, uint64_t id)
        : server_(server), id_(id) {}
    CorpusServer* server_ = nullptr;
    uint64_t id_ = 0;
  };

  /// Per-backend serving breakdown (one for the GPU side, one for the CPU
  /// lanes). Device-side aggregates (Stats::devices) stay untouched by CPU
  /// runs — a CPU-dispatched run never shows up as device work.
  struct BackendStats {
    uint64_t runs = 0;  ///< served runs dispatched to this backend
    uint64_t documents_executed = 0;
    double simulated_seconds = 0;  ///< summed simulated run durations
    uint64_t ops = 0;              ///< init + traversal ops charged
  };

  /// Per-tenant serving counters.
  struct TenantStats {
    std::string name;
    uint64_t submitted = 0;  ///< admitted runs
    uint64_t rejected = 0;   ///< refused at Submit
    uint64_t served = 0;
    uint64_t backfills = 0;  ///< runs started ahead of an earlier queued run
    double queue_wait_seconds = 0;  ///< simulated, summed over served runs
    /// The tenant's served work split by dispatched backend.
    BackendStats gpu_backend;
    BackendStats cpu_backend;
    /// Footprint-slots x simulated-seconds the tenant's reservations held.
    double slot_seconds_held = 0;
    /// Element d is the share of slot_seconds_held the tenant's
    /// reservations held on device d (entries sum to slot_seconds_held).
    std::vector<double> slot_seconds_per_device;
  };

  /// Aggregate serving counters (monotonic over the server's lifetime).
  struct Stats {
    /// Per-device serving counters, one per simulated GPU: the device
    /// group's own counters (runs, documents, ops, uploads, residency,
    /// busy time) plus the device's admission side — the witness that a
    /// device the router never selected did no work (all-zero ops) and
    /// that no device's budget was ever exceeded (peak_admitted_slots).
    struct DeviceStats : DeviceGroup::DeviceCounters {
      /// High-water mark of this device's reserved slots; never exceeds
      /// the per-device budget.
      uint64_t peak_admitted_slots = 0;
      /// Slot-seconds held on this device, summed over tenants.
      double slot_seconds_held = 0;
    };

    /// The shared plan cache's counters (one cache fronts the Submit
    /// probes of BOTH backends; execution never touches it; dispatch
    /// decisions amortize here — a repeat shape is a free probe).
    struct PlanCacheStats {
      uint64_t hits = 0;
      uint64_t misses = 0;
      uint64_t evictions = 0;  ///< FIFO-bound drops
      uint64_t size = 0;       ///< resident plans
    };

    uint64_t submitted = 0;
    uint64_t rejected = 0;  ///< refused at Submit (budget / quota / malformed)
    uint64_t served = 0;
    /// High-water mark of concurrently reserved slots summed over the
    /// device group; per-device peaks live in devices[d].peak_admitted_slots,
    /// each bounded by the per-device budget (the admission invariant).
    uint64_t peak_admitted_slots = 0;
    /// Documents served runs skipped, counted once per run from its
    /// gathered batch (either backend).
    uint64_t documents_skipped = 0;
    /// Documents served runs executed, ticking live as each finishes.
    uint64_t documents_executed = 0;
    /// Pool growths charged while served documents were executing, summed
    /// over every served run. Stays 0: admission pre-sizes every context.
    uint64_t mid_run_pool_growths = 0;
    uint64_t backfills = 0;          ///< rolling backfill starts
    double queue_wait_seconds = 0;   ///< simulated, summed over served runs
    /// The simulated clock after the last completed serve — the workload's
    /// makespan, which is what sharded throughput gates compare.
    double makespan_seconds = 0;
    /// Served work split by dispatched backend. devices[] below remains
    /// GPU-side only: CPU-lane runs never appear as device work, so its
    /// aggregates keep their exact pre-dispatch meaning.
    BackendStats gpu_backend;
    BackendStats cpu_backend;
    /// High-water mark of reserved CPU lanes, read from the ledger (bounded
    /// by Options::scheduler.cpu_lanes; the bench's lane-saturation
    /// witness).
    uint32_t peak_cpu_lanes_in_use = 0;
    /// Shared plan-cache counters; refreshed on every serve.
    PlanCacheStats plan_cache;
    std::map<uint64_t, TenantStats> tenants;  ///< by tenant id
    /// One entry per device (see DeviceStats); refreshed on every serve.
    std::vector<DeviceStats> devices;
  };

  /// The corpus must outlive the server. Fails on an empty corpus or
  /// pre-set shared_device/shared_pool/plan_cache, and with
  /// ResourceExhausted when some device cannot hold its documents resident
  /// next to its pools: its documents' device-grammar bytes
  /// (DeviceGrammar::BytesFor) plus 8 bytes per slot of device_slot_budget
  /// exceed a non-zero engine.gpu.memory_bytes.
  static Result<std::unique_ptr<CorpusServer>> Create(
      const PartitionedCorpus* corpus, const Options& options);

  /// Registers a serving tenant: its slot quota becomes a standing
  /// SlotLedger tenant quota, its default priority applies to Submits that
  /// set none.
  Result<TenantHandle> OpenTenant(const TenantOptions& options);

  /// Serves every queued run to completion under rolling admission.
  /// Results are retrieved through each run's RunTicket (Await / TryGet).
  /// On an execution failure the remaining queue is abandoned and the
  /// failure returned.
  Status ServeUntilIdle();

  size_t queued() const { return scheduler_.queued(); }
  const Stats& stats() const { return stats_; }
  /// The cache behind the Submit probes (serving diagnostics).
  PlanCache* plan_cache() const { return plan_cache_.get(); }
  const Options& options() const { return options_; }
  size_t num_devices() const { return sharded_->num_devices(); }
  /// The device topology GPU runs scatter over.
  const ShardedCorpus* sharded_corpus() const { return sharded_.get(); }
  /// The corpus's DocumentIndexes, keyed by global document id: built on a
  /// document's first probe or execution, then shared by every probe, run,
  /// device and replica for the server's lifetime.
  const CorpusIndex& document_index() const { return *index_; }

 private:
  struct Tenant {
    std::string name;
    uint64_t slot_quota = 0;
    int32_t default_priority = 0;
  };
  struct PendingRun {
    Admission admission;
    GTadocEngine::Options engine;       ///< fully-resolved per-run options
    std::vector<uint8_t> execute_mask;  ///< BloomExecuteMask's verdict
    Task task = Task::kWordCount;
    /// The dispatched backend's plan per document, as the Submit probe
    /// resolved it (null = not executed): execution's only plan input, so
    /// a queued run cannot lose its plans to cache eviction.
    PlanList plans;
    /// The scatter decision (its devices, or one CPU lane) and, for GPU
    /// runs, the per-device footprint the reservation names.
    ShardedCorpus::RoutePlan route;
    std::vector<uint64_t> device_footprint;
    /// Slot-weighted load each device gains if this run admits (feeds
    /// least-loaded replica selection for later Submits).
    std::vector<double> device_weight;
  };

  CorpusServer(const PartitionedCorpus* corpus, const Options& options);

  Result<Submitted> SubmitForTenant(uint64_t tenant_id,
                                    const RunRequest& request,
                                    const RunOptions& run_options);
  /// Resolves every executed document's `backend` plan through the shared
  /// (backend-keyed) cache into `*plans` (one entry per document, null
  /// where skipped), adding the planning cost to admission_seconds. The
  /// run's key is built once; per document only its grammar fingerprint
  /// changes, so a hit needs just the document's index. A miss builds the
  /// plan with that backend's planner, engine-free: the GPU planner on
  /// probe_device_, the CPU planner on a fresh meter. InvalidArgument when
  /// the run's query fails ValidateQuerySpec. Reserves nothing; the
  /// footprint is priced by ShardFootprint only if the run dispatches to
  /// the GPU.
  Status ProbePlans(PendingRun* run, PlanBackend backend, PlanList* plans);
  /// Prices a GPU-dispatched run from its plans: routes it (least-loaded
  /// replica selection over the standing per-device load), then prices
  /// each device as the worker contexts its routed documents split into
  /// times the maximum total_slots routed there, plus the pre-sizing
  /// allocation charge.
  void ShardFootprint(PendingRun* run);
  /// Executes a run on the resources its RoutePlan names (devices, or a
  /// CPU lane) through the DeviceGroup, which gathers the global batch.
  /// `start_time` is the run's simulated admission time, which decides the
  /// documents it finds resident on a device.
  Result<DeviceGroup::RunResult> Execute(const PendingRun& run,
                                         double start_time);
  /// The serving loop: starts runs through the scheduler, executes each
  /// serially, reports durations back. Stops early after `until_ticket`
  /// completes (leaving the rest queued). On failure the queue is
  /// abandoned.
  Status ServeLoop(std::optional<uint64_t> until_ticket);
  /// RunTicket::Await's implementation.
  Result<ServedRun> AwaitTicket(uint64_t ticket);
  /// Pulls the scheduler/budget-side counters into stats_.
  void SyncSchedulerStats();

  const PartitionedCorpus* corpus_;
  Options options_;
  std::shared_ptr<PlanCache> plan_cache_;
  /// The device the GPU Submit probe charges plan builds to (clock reset
  /// before each). It never loads a document or executes a run.
  std::unique_ptr<gpu::Device> probe_device_;
  /// Lazily built per-document indexes of corpus_, borrowed by the probes,
  /// the CPU lanes and every device.
  std::unique_ptr<CorpusIndex> index_;
  /// DocumentBlooms(*corpus_), computed once at Create: Submit's
  /// BloomExecuteMask input.
  std::vector<uint64_t> document_blooms_;
  RunScheduler scheduler_;
  /// Topology, executor, and the standing per-device routed-slot load
  /// replica selection balances against.
  std::unique_ptr<ShardedCorpus> sharded_;
  std::unique_ptr<DeviceGroup> device_group_;
  std::vector<double> route_load_;
  std::map<uint64_t, Tenant> tenants_;
  std::map<uint64_t, PendingRun> pending_;  ///< queued, by ticket
  std::map<uint64_t, ServedRun> served_;    ///< completed, not yet taken
  uint64_t next_ticket_ = 0;
  /// 0 stays the untagged SlotLedger tenant, never a served tenant.
  uint64_t next_tenant_ = 1;
  std::mutex progress_mu_;  ///< guards live document counters in stats_
  Stats stats_;
};

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_SERVER_H_
