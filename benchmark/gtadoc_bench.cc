// Serving benchmark: builds one workload's fixed corpus and its server,
// serves the request stream --seed draws through the public CorpusServer
// tenant API as a closed loop with 4 outstanding requests, checks every
// result against the uncompressed reference, and prints every metric as
// `name value unit`, then one JSON object as the last line. See README.md.
//
//   gtadoc_bench --workload <mixed|selective|heavy|sharded> --seed <n>
//                [--seconds <s>] [--trace <out.json>]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/query_spec.h"
#include "analytics/server.h"
#include "analytics/uncompressed.h"
#include "bench_lib.h"
#include "format/serializer.h"
#include "workloads.h"

using namespace gtadoc;
using namespace gtadoc::bench;

namespace {

/// Set-up is repeated and its median reported, so that set-up time is
/// steady enough to bound.
constexpr int kSetupRepetitions = 5;
constexpr size_t kOutstanding = 4;
/// The corpus is part of the workload, like a dataset: --seed draws only the
/// request stream. Corpora of different seeds differ in compressibility and
/// task cost by more than the host metrics' bounds, so a seed-drawn corpus
/// would hide regressions.
constexpr uint64_t kCorpusSeed = 1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  std::string trace_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// One set-up: the generated corpus, the served (parsed) corpus and the
/// server over it. Not movable: the server points into `corpus`.
struct Setup {
  GeneratedCorpus generated;
  PartitionedCorpus corpus;
  std::unique_ptr<CorpusServer> server;
  std::vector<CorpusServer::TenantHandle> tenants;
  uint64_t container_bytes = 0;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

/// Host seconds of each set-up step.
struct SetupTimes {
  double datagen = 0;
  double compress = 0;
  double serialize = 0;
  double parse = 0;
  double create = 0;
  double warmup = 0;
  double total() const {
    return datagen + compress + serialize + parse + create + warmup;
  }
};

/// Runs `step`, records it as a child span of `parent`, stores its host
/// seconds in `*seconds` and returns its status.
template <typename Fn>
Status TimedStep(const char* name, int64_t parent, HostClock& clock,
                 Trace& trace, double* seconds, Fn&& step) {
  const double t0 = clock.Now();
  Status status = step();
  const double t1 = clock.Now();
  trace.Add({name, 1, 0, {t0, t1}, parent, -1});
  *seconds = t1 - t0;
  return status;
}

Result<std::unique_ptr<Setup>> RunSetup(const WorkloadSpec& spec,
                                        HostClock& clock, Trace& trace,
                                        SetupTimes* times) {
  auto setup = std::make_unique<Setup>();
  const double begin = clock.Now();
  // The parent span is recorded first so its index is known; its end is
  // patched below.
  const int64_t parent = trace.Add({"setup", 1, 0, {begin, begin}, -1, -1});
  Status st;

  st = TimedStep("datagen.generate", parent, clock, trace, &times->datagen,
                 [&] {
    auto generated = spec.generate(kCorpusSeed);
    if (!generated.ok()) return generated.status();
    setup->generated = std::move(*generated);
    return Status::OK();
  });
  if (!st.ok()) return st;

  st = TimedStep("sequitur.compress", parent, clock, trace, &times->compress,
                 [&] { return Compress(&setup->generated); });
  if (!st.ok()) return st;

  std::vector<std::string> containers;
  st = TimedStep("format.serialize", parent, clock, trace, &times->serialize,
                 [&] {
    for (const Grammar& doc : setup->generated.documents) {
      containers.push_back(SerializeGrammar(doc));
      setup->container_bytes += containers.back().size();
    }
    return Status::OK();
  });

  st = TimedStep("format.parse", parent, clock, trace, &times->parse, [&] {
    std::vector<Grammar> parsed;
    for (const std::string& bytes : containers) {
      auto grammar = ParseGrammar(bytes);
      if (!grammar.ok()) return grammar.status();
      parsed.push_back(std::move(*grammar));
    }
    auto corpus = CorpusFromDocuments(std::move(parsed));
    if (!corpus.ok()) return corpus.status();
    setup->corpus = std::move(*corpus);
    return Status::OK();
  });
  if (!st.ok()) return st;
  containers.clear();

  st = TimedStep("server.create", parent, clock, trace, &times->create, [&] {
    auto server = CorpusServer::Create(&setup->corpus, spec.server);
    if (!server.ok()) return server.status();
    setup->server = std::move(*server);
    for (const TenantSpec& tenant : spec.tenants) {
      CorpusServer::TenantOptions options = tenant.options;
      if (tenant.quota_from_plans) {
        auto quota =
            MaxShardedFootprint(setup->corpus, spec.server, tenant.mix);
        if (!quota.ok()) return quota.status();
        options.slot_quota = std::min(
            *quota, spec.server.device_slot_budget * spec.server.num_devices);
      }
      auto handle = setup->server->OpenTenant(options);
      if (!handle.ok()) return handle.status();
      setup->tenants.push_back(*handle);
    }
    return Status::OK();
  });
  if (!st.ok()) return st;

  // One request per distinct task, served and discarded, so that every
  // task's first-use costs land here and not in the timed phase.
  st = TimedStep("warmup", parent, clock, trace, &times->warmup, [&] {
    RequestStream warm(spec, setup->generated, 0);
    for (const Request& request : warm.OnePerTask()) {
      auto submitted = setup->tenants[request.tenant].Submit(request.run);
      if (!submitted.ok()) return submitted.status();
      if (!submitted->admitted()) {
        return Status::Internal("warm-up request rejected: " +
                                submitted->rejection->detail);
      }
      auto served = submitted->ticket->Await();
      if (!served.ok()) return served.status();
    }
    return Status::OK();
  });
  if (!st.ok()) return st;

  trace.SetEnd(parent, clock.Now());
  return setup;
}

/// What the benchmark keeps of one timed request.
struct Record {
  CorpusServer::RunRequest request;
  bool in_window = false;
  int64_t ticket = -1;
  size_t lane = 0;
  std::string failure;  ///< empty while the request is healthy
  Interval submit;
  Interval await;
  double seen = 0;  ///< host time the client first saw the run served
  bool served = false;
  std::string digest;  ///< of the merged result
  // Simulated side, from the ServedRun.
  double sim_submit = 0;
  double sim_latency = 0;
  double sim_start = 0;
  double sim_completion = 0;
  double queue_wait = 0;
  double gather = 0;
  std::vector<double> device_durations;
  CorpusServer::Admission admission;
  RunTiming timing;
  uint64_t mid_run_growths = 0;
};

/// The closed loop's product.
struct TimedPhase {
  std::vector<Record> records;
  double wall_seconds = 0;
  CorpusServer::Stats before;  ///< at the end of warm-up
  CorpusServer::Stats window;  ///< when the simulated window drained
};

void Collect(CorpusServer::RunTicket& ticket, Record* rec, HostClock& clock,
             double seen) {
  rec->await.begin = clock.Now();
  auto run = ticket.Await();
  rec->await.end = clock.Now();
  if (!run.ok()) {
    rec->failure = "await: " + run.status().ToString();
    return;
  }
  rec->seen = seen >= 0 ? seen : rec->await.end;
  rec->served = true;
  // Digesting and freeing a result is the benchmark's work, not the server's.
  clock.Pause();
  {
    const CorpusServer::ServedRun served = std::move(*run);
    rec->digest = served.batch.merged.Digest();
    rec->sim_submit = SimSubmitSeconds(served);
    rec->sim_latency = SimLatencySeconds(served);
    rec->sim_start = served.start_seconds;
    rec->sim_completion = served.completion_seconds;
    rec->queue_wait = served.queue_wait_seconds;
    rec->gather = served.gather_seconds;
    rec->device_durations = served.device_durations;
    rec->admission = served.admission;
    rec->timing = served.batch.timing;
    rec->mid_run_growths = served.batch.mid_run_pool_growths;
  }
  clock.Resume();
}

TimedPhase RunTimed(const WorkloadSpec& spec, Setup& setup, uint64_t seed,
                    double seconds, HostClock& clock) {
  TimedPhase phase;
  phase.before = setup.server->stats();
  RequestStream stream(spec, setup.generated, seed);

  struct InFlight {
    CorpusServer::RunTicket ticket;
    size_t record;
  };
  std::deque<InFlight> in_flight;
  std::vector<bool> lane_busy(kOutstanding, false);
  bool window_drained = false;
  const double begin = clock.Now();

  auto may_submit = [&] {
    if (phase.records.size() < spec.window_requests) return true;
    return window_drained && clock.Now() - begin < seconds;
  };
  auto release = [&](const InFlight& f) {
    lane_busy[phase.records[f.record].lane] = false;
  };

  for (;;) {
    while (in_flight.size() < kOutstanding && may_submit()) {
      Request request = stream.Next();
      Record rec;
      rec.in_window = phase.records.size() < spec.window_requests;
      rec.lane = static_cast<size_t>(
          std::find(lane_busy.begin(), lane_busy.end(), false) -
          lane_busy.begin());
      rec.submit.begin = clock.Now();
      auto submitted = setup.tenants[request.tenant].Submit(request.run);
      rec.submit.end = clock.Now();
      rec.request = std::move(request.run);
      if (!submitted.ok()) {
        rec.failure = "submit: " + submitted.status().ToString();
      } else if (!submitted->admitted()) {
        rec.failure = "rejected: " + submitted->rejection->detail;
      } else {
        rec.ticket = static_cast<int64_t>(submitted->ticket->id());
        lane_busy[rec.lane] = true;
        in_flight.push_back({*submitted->ticket, phase.records.size()});
      }
      phase.records.push_back(std::move(rec));
    }
    if (in_flight.empty()) {
      if (window_drained) break;
      window_drained = true;
      phase.window = setup.server->stats();
      continue;
    }

    InFlight front = in_flight.front();
    in_flight.pop_front();
    Collect(front.ticket, &phase.records[front.record], clock, -1);
    release(front);
    // Poll the other in-flight tickets: one Await may have served several.
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->ticket.TryGet() == nullptr) {
        ++it;
        continue;
      }
      const double seen = clock.Now();
      Collect(it->ticket, &phase.records[it->record], clock, seen);
      release(*it);
      it = in_flight.erase(it);
    }
  }
  phase.wall_seconds = clock.Now() - begin;
  return phase;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ShapeKey(Task task, const QuerySpec& q) {
  std::string key = std::to_string(static_cast<int>(task)) + "|" +
                    std::to_string(q.top_k) + "|" +
                    std::to_string(q.ngram_len) + "|";
  for (uint32_t w : q.query_words) key += std::to_string(w) + ",";
  key += "|";
  for (const auto& set : q.query_sets) {
    for (uint32_t w : set) key += std::to_string(w) + ",";
    key += ";";
  }
  return key;
}

/// Checks every served record against the uncompressed reference over
/// `raw` (one reference per distinct query shape) and for mid-run pool
/// growth; marks failures in place. A run that planned at execution is not
/// a failure: the server's bounded FIFO plan cache can evict a queued run's
/// plans before it executes, so such runs are counted
/// (plan_cache.replanned_runs) instead.
void Verify(const WorkloadSpec& spec,
            const std::vector<std::vector<uint32_t>>& raw,
            std::vector<Record>* records) {
  std::map<std::string, std::string> reference;
  for (Record& rec : *records) {
    if (!rec.served) continue;
    const QuerySpec query =
        ResolveQueryDefaults(rec.request, spec.server.engine);
    const std::string key = ShapeKey(rec.request.task, query);
    auto it = reference.find(key);
    if (it == reference.end()) {
      UncompressedAnalytics truth(raw, query);
      const std::string digest = truth.RunSequential(rec.request.task).Digest();
      it = reference.emplace(key, digest).first;
    }
    if (rec.digest != it->second) {
      rec.failure = "result " + rec.digest + " != reference " + it->second;
    } else if (rec.mid_run_growths != 0) {
      rec.failure = "mid-run pool growth";
    }
  }
}

/// Server-wide invariants at the end of the timed phase: no device ever
/// held more than its budget, and no pool grew mid-run.
uint64_t InvariantViolations(const WorkloadSpec& spec,
                             const CorpusServer::Stats& stats) {
  uint64_t violations = 0;
  for (size_t d = 0; d < stats.devices.size(); ++d) {
    const uint64_t peak = stats.devices[d].peak_admitted_slots;
    if (spec.server.device_slot_budget > 0 &&
        peak > spec.server.device_slot_budget) {
      std::fprintf(stderr, "invariant: device %zu peak %llu > budget %llu\n",
                   d, static_cast<unsigned long long>(peak),
                   static_cast<unsigned long long>(
                       spec.server.device_slot_budget));
      ++violations;
    }
  }
  if (stats.mid_run_pool_growths != 0) {
    std::fprintf(stderr, "invariant: %llu mid-run pool growths\n",
                 static_cast<unsigned long long>(stats.mid_run_pool_growths));
    ++violations;
  }
  return violations;
}


struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One pass over the timed records: host sums cover every timed request,
/// simulated sums the simulated window.
struct Tally {
  std::vector<double> host_latency_ms, submit_ms, await_ms;
  double submit_s = 0, await_s = 0;
  uint64_t runs = 0, cpu_runs = 0, gpu_runs = 0, replanned = 0;
  std::vector<double> sim_latency_ms, queue_wait_ms, residuals;
  double first_sim_submit = std::numeric_limits<double>::infinity();
  double last_completion = 0;
  uint64_t docs_skipped = 0, docs_total = 0;
  double admission_s = 0, queue_wait_s = 0, gather_s = 0;
  double devices_routed = 0;  ///< summed over GPU runs
  RunTiming gpu;              ///< GPU runs' timings, folded
};

Tally TallyRecords(const std::vector<Record>& records) {
  Tally t;
  t.gpu.documents = 0;
  for (const Record& rec : records) {
    const double submit = rec.submit.end - rec.submit.begin;
    t.submit_s += submit;
    t.submit_ms.push_back(submit * 1e3);
    if (rec.ticket >= 0) {
      t.await_s += rec.await.end - rec.await.begin;
      t.await_ms.push_back((rec.await.end - rec.await.begin) * 1e3);
    }
    if (!rec.served) continue;
    t.host_latency_ms.push_back((rec.seen - rec.submit.begin) * 1e3);
    if (!rec.in_window) continue;
    ++t.runs;
    t.sim_latency_ms.push_back(rec.sim_latency * 1e3);
    t.queue_wait_ms.push_back(rec.queue_wait * 1e3);
    t.first_sim_submit = std::min(t.first_sim_submit, rec.sim_submit);
    t.last_completion = std::max(t.last_completion, rec.sim_completion);
    t.docs_skipped += rec.admission.documents_skipped;
    t.docs_total +=
        rec.admission.documents_skipped + rec.admission.documents_to_execute;
    t.admission_s += rec.admission.admission_seconds;
    t.queue_wait_s += rec.queue_wait;
    t.gather_s += rec.gather;
    if (rec.admission.backend_estimate_seconds > 0) {
      t.residuals.push_back((rec.sim_completion - rec.sim_start) /
                            rec.admission.backend_estimate_seconds);
    }
    if (rec.timing.plan_seconds > 0) ++t.replanned;
    if (rec.admission.backend == CorpusServer::RunBackend::kCpu) {
      ++t.cpu_runs;
      continue;
    }
    ++t.gpu_runs;
    t.gpu.Accumulate(rec.timing);
    if (rec.device_durations.empty()) {
      t.devices_routed += rec.admission.documents_to_execute > 0 ? 1 : 0;
    } else {
      for (double d : rec.device_durations) t.devices_routed += d > 0 ? 1 : 0;
    }
  }
  return t;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double SetupMedian(const std::vector<SetupTimes>& times,
                   double SetupTimes::*field) {
  std::vector<double> v;
  for (const SetupTimes& t : times) v.push_back(t.*field);
  return Median(v);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double SumSlotSeconds(const CorpusServer::Stats& s) {
  double total = 0;
  for (const auto& [id, tenant] : s.tenants) total += tenant.slot_seconds_held;
  return total;
}

/// What the end-to-end and per-layer metrics are computed from.
struct RunFacts {
  const WorkloadSpec* spec;
  const std::vector<SetupTimes>* setup_times;
  const TimedPhase* phase;
  const Tally* tally;
  const Setup* setup;
  double raw_tokens;
  double peak_rss_mb;
};

std::vector<Metric> EndToEnd(const RunFacts& f) {
  std::vector<double> setup_totals;
  for (const SetupTimes& t : *f.setup_times) setup_totals.push_back(t.total());
  const Tally& t = *f.tally;
  return {
      {"setup_s", Median(setup_totals), "s"},
      {"host_rps",
       static_cast<double>(f.phase->records.size()) / f.phase->wall_seconds,
       "req/s"},
      {"host_latency_p50_ms", Percentile(t.host_latency_ms, 50), "ms"},
      {"host_latency_p95_ms", Percentile(t.host_latency_ms, 95), "ms"},
      {"sim_rps",
       Ratio(static_cast<double>(t.runs),
             t.last_completion - t.first_sim_submit),
       "sim_req/s"},
      {"sim_latency_p50_ms", Percentile(t.sim_latency_ms, 50), "sim_ms"},
      {"sim_latency_p95_ms", Percentile(t.sim_latency_ms, 95), "sim_ms"},
      {"bytes_per_token",
       static_cast<double>(f.setup->container_bytes) / f.raw_tokens,
       "B/token"},
      {"peak_rss_mb", f.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const RunFacts& f) {
  const Tally& t = *f.tally;
  const CorpusServer::Stats& b = f.phase->before;
  const CorpusServer::Stats& w = f.phase->window;
  const uint64_t budget = f.spec->server.device_slot_budget;
  auto setup_median = [&](double SetupTimes::*field) {
    return SetupMedian(*f.setup_times, field);
  };
  // The marker corpus's generator compresses inside datagen, so Sequitur
  // has no step of its own there.
  const double compress_s = f.setup->generated.doc_files.empty()
                                ? 0
                                : setup_median(&SetupTimes::compress);
  double rules = 0;
  for (const Grammar& doc : f.setup->corpus.partitions) {
    rules += static_cast<double>(doc.rules.size());
  }
  const double plan_hits =
      static_cast<double>(w.plan_cache.hits - b.plan_cache.hits);
  const double plan_misses =
      static_cast<double>(w.plan_cache.misses - b.plan_cache.misses);
  double busy_sum = 0, busy_max = 0;
  uint64_t peak_slots = 0;
  for (size_t d = 0; d < w.devices.size(); ++d) {
    const double busy = w.devices[d].busy_seconds - b.devices[d].busy_seconds;
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    peak_slots = std::max(peak_slots, w.devices[d].peak_admitted_slots);
  }
  const double devices = static_cast<double>(w.devices.size());

  return {
      {"datagen.host_s", setup_median(&SetupTimes::datagen), "s"},
      {"sequitur.host_s", compress_s, "s"},
      {"sequitur.mtokens_per_s", Ratio(f.raw_tokens / 1e6, compress_s),
       "Mtoken/s"},
      {"sequitur.rules_per_ktoken", rules / f.raw_tokens * 1e3,
       "rules/ktoken"},
      {"format.serialize_host_s", setup_median(&SetupTimes::serialize), "s"},
      {"format.parse_host_s", setup_median(&SetupTimes::parse), "s"},
      {"server.create_host_s", setup_median(&SetupTimes::create), "s"},
      {"server.submit_host_s", t.submit_s, "s"},
      {"server.submit_p50_ms", Percentile(t.submit_ms, 50), "ms"},
      {"server.await_host_s", t.await_s, "s"},
      {"server.await_p50_ms", Percentile(t.await_ms, 50), "ms"},
      {"server.bloom_skip_frac",
       Ratio(static_cast<double>(t.docs_skipped),
             static_cast<double>(t.docs_total)),
       "fraction"},
      {"server.admission_sim_s", t.admission_s, "sim_s"},
      {"plan_cache.hit_frac", Ratio(plan_hits, plan_hits + plan_misses),
       "fraction"},
      {"plan_cache.misses", plan_misses, "count"},
      {"plan_cache.evictions",
       static_cast<double>(w.plan_cache.evictions - b.plan_cache.evictions),
       "count"},
      {"plan_cache.replanned_runs", static_cast<double>(t.replanned), "count"},
      {"scheduler.queue_wait_sim_s", t.queue_wait_s, "sim_s"},
      {"scheduler.queue_wait_p95_ms", Percentile(t.queue_wait_ms, 95),
       "sim_ms"},
      {"scheduler.backfills", static_cast<double>(w.backfills - b.backfills),
       "count"},
      {"scheduler.peak_slots_frac",
       Ratio(static_cast<double>(peak_slots), static_cast<double>(budget)),
       "fraction"},
      {"scheduler.slot_seconds", SumSlotSeconds(w) - SumSlotSeconds(b),
       "slot_sim_s"},
      {"scheduler.peak_cpu_lanes",
       static_cast<double>(w.peak_cpu_lanes_in_use), "count"},
      {"dispatch.cpu_run_frac",
       Ratio(static_cast<double>(t.cpu_runs), static_cast<double>(t.runs)),
       "fraction"},
      {"dispatch.residual_p50", Percentile(t.residuals, 50), "ratio"},
      {"dispatch.residual_p95", Percentile(t.residuals, 95), "ratio"},
      {"tadoc.sim_s",
       w.cpu_backend.simulated_seconds - b.cpu_backend.simulated_seconds,
       "sim_s"},
      {"tadoc.ops", static_cast<double>(w.cpu_backend.ops - b.cpu_backend.ops),
       "ops"},
      {"gtadoc.init_sim_s", t.gpu.init_seconds, "sim_s"},
      {"gtadoc.upload_sim_s", t.gpu.upload_seconds, "sim_s"},
      {"gtadoc.overlap_saved_sim_s", t.gpu.overlap_saved_seconds, "sim_s"},
      {"gtadoc.traversal_sim_s", t.gpu.traversal_seconds, "sim_s"},
      {"gtadoc.plan_sim_s", t.gpu.plan_seconds, "sim_s"},
      {"gtadoc.init_ops", static_cast<double>(t.gpu.init_ops), "ops"},
      {"gtadoc.traversal_ops", static_cast<double>(t.gpu.traversal_ops),
       "ops"},
      {"gpu.busy_sim_s", busy_sum, "sim_s"},
      {"gpu.peak_slots", static_cast<double>(peak_slots), "slots"},
      {"gpu.mid_run_pool_growths",
       static_cast<double>(w.mid_run_pool_growths - b.mid_run_pool_growths),
       "count"},
      {"sharding.busy_imbalance", Ratio(busy_max, busy_sum / devices),
       "ratio"},
      {"sharding.gather_sim_s", t.gather_s, "sim_s"},
      {"sharding.devices_per_run",
       Ratio(t.devices_routed, static_cast<double>(t.gpu_runs)), "devices"},
      {"bench.client_host_s", f.phase->wall_seconds - t.submit_s - t.await_s,
       "s"},
  };
}

/// Adds every timed request's host and simulated spans to `trace`, prints
/// the self-time summary and writes the trace to `path`.
Status WriteTrace(const std::vector<Record>& records, const std::string& path,
                  Trace* trace) {
  for (const Record& rec : records) {
    const double end = rec.served ? rec.seen : rec.submit.end;
    const int64_t lane = static_cast<int64_t>(rec.lane) + 1;
    const int64_t parent = trace->Add(
        {"request", 1, lane, {rec.submit.begin, end}, -1, rec.ticket});
    trace->Add({"server.submit", 1, lane, rec.submit, parent, rec.ticket});
    if (rec.ticket >= 0) {
      trace->Add({"server.await", 1, lane, rec.await, parent, rec.ticket});
    }
    if (!rec.served) continue;
    trace->Add({"sim.queue", 2, 0, {rec.sim_submit, rec.sim_start}, -1,
                rec.ticket});
    trace->Add({"sim.run", 2, 0, {rec.sim_start, rec.sim_completion}, -1,
                rec.ticket});
    for (size_t d = 0; d < rec.device_durations.size(); ++d) {
      if (rec.device_durations[d] <= 0) continue;
      trace->Add({"sim.shard", 3, static_cast<int64_t>(d),
                  {rec.sim_start, rec.sim_start + rec.device_durations[d]},
                  -1, rec.ticket});
    }
  }
  std::printf("# self time by span: name count total_s self_s\n");
  for (const auto& [name, sum] : trace->Summarize()) {
    std::printf("# %s %llu %.6f %.6f\n", name.c_str(),
                static_cast<unsigned long long>(sum.count), sum.total_seconds,
                sum.self_seconds);
  }
  const std::string json = trace->ToJson();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + path);
  const bool written = std::fwrite(json.data(), 1, json.size(), out) ==
                       json.size();
  if (std::fclose(out) != 0 || !written) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

std::string ResultJson(const std::vector<Metric>& metrics, size_t attempted,
                       uint64_t failed) {
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gtadoc_bench --workload <mixed|selective|heavy|"
                 "sharded> --seed <n> [--seconds <s>] [--trace <out.json>]\n");
    return 2;
  }
  auto found = FindWorkload(args.workload);
  if (!found.ok()) {
    std::fprintf(stderr, "%s\n", found.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec spec = std::move(*found);
  HostClock clock;
  Trace trace(!args.trace_path.empty());

  std::vector<SetupTimes> setup_times;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    setup.reset();
    SetupTimes times;
    auto built = RunSetup(spec, clock, trace, &times);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup = std::move(*built);
    setup_times.push_back(times);
  }

  TimedPhase phase = RunTimed(spec, *setup, args.seed, args.seconds, clock);
  const double peak_rss_mb = PeakRssMb();

  const double verify_begin = clock.Now();
  auto raw = RawFiles(setup->generated);
  if (!raw.ok()) {
    std::fprintf(stderr, "raw files: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  Verify(spec, *raw, &phase.records);
  const double verify_seconds = clock.Now() - verify_begin;
  uint64_t failed = InvariantViolations(spec, setup->server->stats());
  for (const Record& rec : phase.records) {
    if (rec.failure.empty()) continue;
    ++failed;
    std::fprintf(stderr, "request %lld (%s): %s\n",
                 static_cast<long long>(rec.ticket),
                 TaskName(rec.request.task), rec.failure.c_str());
  }

  double raw_tokens = 0;
  for (const auto& file : *raw) raw_tokens += static_cast<double>(file.size());
  const Tally tally = TallyRecords(phase.records);
  const RunFacts facts{&spec,  &setup_times, &phase,     &tally,
                       setup.get(), raw_tokens, peak_rss_mb};
  const std::vector<Metric> end_to_end = EndToEnd(facts);
  std::vector<Metric> per_layer = PerLayer(facts);
  if (trace.enabled()) {
    const double begin = clock.Now();
    Status written = WriteTrace(phase.records, args.trace_path, &trace);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    // The recorder's in-loop cost plus building and writing the trace.
    const double overhead = trace.record_seconds() + (clock.Now() - begin);
    per_layer.push_back(
        {"trace.overhead_frac", overhead / phase.wall_seconds, "fraction"});
  }

  std::printf("# workload %s seed %llu: %zu timed requests (%llu in the "
              "simulated window) in %.3f s; verified in %.3f s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              phase.records.size(), static_cast<unsigned long long>(tally.runs),
              phase.wall_seconds, verify_seconds);
  std::vector<Metric> printed = end_to_end;
  printed.push_back({"failed_frac",
                     static_cast<double>(failed) /
                         static_cast<double>(phase.records.size()),
                     "fraction"});
  if (trace.enabled()) {
    printed.insert(printed.end(), per_layer.begin(), per_layer.end());
  }
  for (const Metric& m : printed) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n",
              ResultJson(trace.enabled() ? per_layer : end_to_end,
                         phase.records.size(), failed)
                  .c_str());
  return failed == 0 ? 0 : 1;
}
