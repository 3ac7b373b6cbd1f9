#include "workloads.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "analytics/batch.h"
#include "analytics/sharding.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"

namespace gtadoc {
namespace bench {
namespace {

/// Every workload serves the Pascal platform (GTX 1080 + i7-7700K) with the
/// compressed data's PCIe upload charged.
CorpusServer::Options BaseServer() {
  const gpu::Platform platform = gpu::PascalPlatform();
  CorpusServer::Options options;
  options.engine.gpu = platform.gpu;
  options.engine.charge_pcie = true;
  options.engine.host_workers = 1;
  options.cpu = platform.cpu;
  return options;
}

/// Generates `spec` and splits its files into `documents` equal documents.
GeneratedCorpus SplitIntoDocuments(const DatasetSpec& spec,
                                   uint32_t documents) {
  TokenizedCorpus tokens = GenerateTokens(spec);
  GeneratedCorpus out;
  out.num_words = static_cast<uint32_t>(tokens.words.size());
  out.doc_files.resize(documents);
  const size_t per_doc = tokens.file_tokens.size() / documents;
  for (size_t f = 0; f < tokens.file_tokens.size(); ++f) {
    out.doc_files[std::min<size_t>(f / per_doc, documents - 1)].push_back(
        std::move(tokens.file_tokens[f]));
  }
  return out;
}

/// A DatasetA-shaped corpus (12k-word Zipf vocabulary, ~240k tokens) as 16
/// documents of 25 files.
Result<GeneratedCorpus> MixedCorpus(uint64_t seed) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 16 * 25;
  spec.seed = seed;
  return SplitIntoDocuments(spec, 16);
}

/// A DatasetE-shaped corpus (25k vocabulary, Zipf 0.95, heavily templated,
/// ~320k tokens) as 8 documents of 2 large files.
Result<GeneratedCorpus> HeavyCorpus(uint64_t seed) {
  DatasetSpec spec = DatasetE();
  spec.num_files = 8 * 2;
  spec.seed = seed;
  return SplitIntoDocuments(spec, 8);
}

/// 64 documents of 4 files and 15k tokens each; 16 markers live only in the
/// first 8, whose root Blooms alone pass them.
Result<GeneratedCorpus> MarkerCorpusFor(uint64_t seed) {
  MarkerCorpusSpec spec;
  spec.num_docs = 64;
  spec.relevant = 8;
  spec.num_markers = 16;
  spec.files_per_doc = 4;
  spec.tokens_per_doc = 15000;
  spec.seed = seed;
  auto built = BuildMarkerCorpus(spec);
  if (!built.ok()) return built.status();
  GeneratedCorpus out;
  out.num_words = built->num_words;
  out.documents = std::move(built->corpus.partitions);
  out.markers = std::move(built->markers);
  return out;
}

std::vector<MixEntry> Entries(std::initializer_list<Task> tasks) {
  std::vector<MixEntry> out;
  for (Task task : tasks) {
    QueryKind query = QueryKind::kNone;
    if (task == Task::kKeywordSearch) query = QueryKind::kRandomWords;
    if (task == Task::kPhraseSearch) query = QueryKind::kCorpusBigram;
    out.push_back({task, query});
  }
  return out;
}

TenantSpec Tenant(const char* name, int32_t priority,
                  std::vector<MixEntry> mix) {
  TenantSpec tenant;
  tenant.options.name = name;
  tenant.options.default_priority = priority;
  tenant.mix = std::move(mix);
  return tenant;
}

WorkloadSpec Mixed() {
  WorkloadSpec w;
  w.name = "mixed";
  w.generate = MixedCorpus;
  w.server = BaseServer();
  w.server.device_slot_budget = 80000;
  w.server.scheduler.cpu_lanes = 2;
  w.tenants.push_back(Tenant(
      "mixed", 0,
      Entries({Task::kWordCount, Task::kSort, Task::kInvertedIndex,
               Task::kTermVector, Task::kSequenceCount,
               Task::kRankedInvertedIndex, Task::kKeywordSearch,
               Task::kTopKWords, Task::kTfIdf, Task::kPhraseSearch})));
  w.window_requests = 200;
  return w;
}

WorkloadSpec Selective() {
  WorkloadSpec w;
  w.name = "selective";
  w.generate = MarkerCorpusFor;
  w.server = BaseServer();
  w.server.device_slot_budget = 24000;
  w.server.scheduler.cpu_lanes = 2;
  w.tenants.push_back(
      Tenant("selective", 0,
             {{Task::kKeywordSearch, QueryKind::kMarkerSets},
              {Task::kKeywordSearch, QueryKind::kMarker},
              {Task::kPhraseSearch, QueryKind::kMarkerBigram}}));
  w.window_requests = 600;
  return w;
}

WorkloadSpec Heavy() {
  WorkloadSpec w;
  w.name = "heavy";
  w.generate = HeavyCorpus;
  w.server = BaseServer();
  w.server.device_slot_budget = 40000;
  w.server.host_workers = 2;
  w.tenants.push_back(Tenant(
      "heavy", 0,
      Entries({Task::kSequenceCount, Task::kSequenceCount, Task::kTfIdf,
               Task::kTermVector, Task::kRankedInvertedIndex})));
  w.window_requests = 200;
  return w;
}

WorkloadSpec Sharded() {
  WorkloadSpec w;
  w.name = "sharded";
  w.generate = MixedCorpus;
  w.server = BaseServer();
  w.server.num_devices = 4;
  w.server.replication = 2;
  w.server.device_slot_budget = 48000;
  w.server.scheduler.cpu_lanes = 2;
  w.tenants.push_back(Tenant(
      "interactive", 1,
      Entries({Task::kKeywordSearch, Task::kPhraseSearch, Task::kTopKWords})));
  w.tenants.push_back(Tenant(
      "batch", 0,
      Entries({Task::kWordCount, Task::kSort, Task::kInvertedIndex,
               Task::kTermVector, Task::kSequenceCount,
               Task::kRankedInvertedIndex, Task::kTfIdf})));
  w.tenants.back().quota_from_plans = true;
  w.window_requests = 200;
  return w;
}

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "mixed") return Mixed();
  if (name == "selective") return Selective();
  if (name == "heavy") return Heavy();
  if (name == "sharded") return Sharded();
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (mixed, selective, heavy, sharded)");
}

Status Compress(GeneratedCorpus* corpus) {
  if (!corpus->documents.empty()) return Status::OK();
  for (const auto& files : corpus->doc_files) {
    auto grammar = CompressTokenStreams(files, corpus->num_words);
    if (!grammar.ok()) return grammar.status();
    corpus->documents.push_back(std::move(*grammar));
  }
  return Status::OK();
}

Result<std::vector<std::vector<uint32_t>>> RawFiles(
    const GeneratedCorpus& corpus) {
  std::vector<std::vector<uint32_t>> files;
  if (!corpus.doc_files.empty()) {
    for (const auto& doc : corpus.doc_files) {
      files.insert(files.end(), doc.begin(), doc.end());
    }
    return files;
  }
  for (const Grammar& doc : corpus.documents) {
    auto expanded = ExpandFiles(doc);
    if (!expanded.ok()) return expanded.status();
    for (auto& file : *expanded) files.push_back(std::move(file));
  }
  return files;
}

Result<uint64_t> MaxShardedFootprint(const PartitionedCorpus& corpus,
                                     const CorpusServer::Options& server,
                                     const std::vector<MixEntry>& mix) {
  ShardedCorpus::Options sopt;
  sopt.num_devices = server.num_devices;
  sopt.replication = server.replication;
  auto sharded = ShardedCorpus::Create(&corpus, sopt);
  if (!sharded.ok()) return sharded.status();

  std::unique_ptr<GTadocEngine> engine;
  uint64_t largest = 0;
  for (const MixEntry& entry : mix) {
    if (entry.query != QueryKind::kNone) {
      return Status::InvalidArgument("footprint bound needs query-free tasks");
    }
    std::vector<uint64_t> slots(corpus.partitions.size(), 0);
    for (size_t d = 0; d < corpus.partitions.size(); ++d) {
      const Grammar* doc = &corpus.partitions[d];
      if (engine == nullptr) {
        auto created = GTadocEngine::Create(doc, server.engine);
        if (!created.ok()) return created.status();
        engine = std::move(*created);
      } else {
        Status st = engine->Rebind(doc);
        if (!st.ok()) return st;
      }
      auto plan = engine->PlanOnly(entry.task);
      if (!plan.ok()) return plan.status();
      slots[d] = (*plan)->total_slots;
    }
    uint64_t total = 0;
    for (size_t dev = 0; dev < (*sharded)->num_devices(); ++dev) {
      const std::vector<uint32_t>& docs = (*sharded)->device_docs(dev);
      uint64_t presize = 0;
      for (uint32_t g : docs) presize = std::max(presize, slots[g]);
      total += presize *
               BatchEngine::ShardSplit(docs.size(), server.host_workers).size();
    }
    largest = std::max(largest, total);
  }
  return largest;
}

RequestStream::RequestStream(const WorkloadSpec& spec,
                             const GeneratedCorpus& corpus, uint64_t seed)
    : corpus_(corpus), rng_(seed ^ 0x5eedc0ffee5eedull) {
  for (size_t t = 0; t < spec.tenants.size(); ++t) {
    for (const MixEntry& mix : spec.tenants[t].mix) {
      entries_.push_back({t, mix});
    }
  }
}

Request RequestStream::Next() {
  if (next_in_block_ == block_.size()) {
    block_.resize(entries_.size());
    for (size_t i = 0; i < block_.size(); ++i) block_[i] = i;
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.Uniform(i)]);
    }
    next_in_block_ = 0;
  }
  return Make(entries_[block_[next_in_block_++]]);
}

std::vector<Request> RequestStream::OnePerTask() {
  std::vector<Request> out;
  std::vector<Task> seen;
  for (const Entry& entry : entries_) {
    if (std::find(seen.begin(), seen.end(), entry.mix.task) != seen.end()) {
      continue;
    }
    seen.push_back(entry.mix.task);
    out.push_back(Make(entry));
  }
  return out;
}

Request RequestStream::Make(const Entry& entry) {
  Request out;
  out.tenant = entry.tenant;
  out.run.task = entry.mix.task;
  const std::vector<uint32_t>& markers = corpus_.markers;
  auto marker = [&] { return markers[rng_.Uniform(markers.size())]; };
  switch (entry.mix.query) {
    case QueryKind::kNone:
      break;
    case QueryKind::kRandomWords:
      for (int i = 0; i < 2; ++i) {
        out.run.query_words.push_back(
            static_cast<uint32_t>(rng_.Uniform(corpus_.num_words)));
      }
      break;
    case QueryKind::kCorpusBigram: {
      // GenerateTokens gives every file at least template_len + 2 tokens.
      const auto& doc =
          corpus_.doc_files[rng_.Uniform(corpus_.doc_files.size())];
      const std::vector<uint32_t>& file = doc[rng_.Uniform(doc.size())];
      const size_t at = rng_.Uniform(file.size() - 1);
      out.run.query_words = {file[at], file[at + 1]};
      break;
    }
    case QueryKind::kMarkerSets: {
      std::vector<uint32_t> pool = markers;
      for (size_t i = 0; i < 4; ++i) {
        std::swap(pool[i], pool[i + rng_.Uniform(pool.size() - i)]);
        out.run.query_sets.push_back({pool[i]});
      }
      break;
    }
    case QueryKind::kMarker:
      out.run.query_words = {marker()};
      break;
    case QueryKind::kMarkerBigram:
      out.run.query_words = {marker(), marker()};
      break;
  }
  return out;
}

}  // namespace bench
}  // namespace gtadoc
