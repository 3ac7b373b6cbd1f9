#ifndef GTADOC_BENCHMARK_WORKLOADS_H_
#define GTADOC_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/server.h"
#include "common/random.h"
#include "common/result.h"
#include "format/grammar.h"
#include "tadoc/parallel_engine.h"

namespace gtadoc {
namespace bench {

/// How a request of one mix entry picks its query.
enum class QueryKind {
  kNone,          ///< the task's defaults (no query words)
  kRandomWords,   ///< keywordSearch over 2 uniformly drawn dictionary words
  kCorpusBigram,  ///< phraseSearch over a bigram sampled from the corpus
  kMarkerSets,    ///< keywordSearch with 4 single-marker query sets
  kMarker,        ///< keywordSearch over one marker
  kMarkerBigram,  ///< phraseSearch over two markers
};

struct MixEntry {
  Task task = Task::kWordCount;
  QueryKind query = QueryKind::kNone;
};

/// One serving tenant and the requests it sends. The stream draws from the
/// union of all tenants' entries; an entry listed twice is drawn twice as
/// often.
struct TenantSpec {
  CorpusServer::TenantOptions options;
  std::vector<MixEntry> mix;
  /// Sets options.slot_quota at set-up to the largest footprint one run of
  /// this tenant can reserve under any routing (MaxShardedFootprint), so no
  /// single run is refused but two large ones cannot co-reside.
  bool quota_from_plans = false;
};

/// A workload's corpus as its generator built it.
struct GeneratedCorpus {
  /// Raw word-id streams, per document then per file. Empty for the marker
  /// corpus, whose generator compresses internally.
  std::vector<std::vector<std::vector<uint32_t>>> doc_files;
  uint32_t num_words = 0;
  /// Compressed documents; filled by the generator for the marker corpus
  /// and by Compress otherwise.
  std::vector<Grammar> documents;
  std::vector<uint32_t> markers;
};

/// A workload: the corpus it generates, the server it builds and the
/// traffic it sends.
struct WorkloadSpec {
  std::string name;
  /// Builds the corpus from a seed (the datagen step of set-up).
  Result<GeneratedCorpus> (*generate)(uint64_t seed) = nullptr;
  CorpusServer::Options server;
  std::vector<TenantSpec> tenants;
  /// The simulated window: the first N timed requests, drained before any
  /// later request is submitted, so every simulated metric is a pure
  /// function of the seed.
  size_t window_requests = 200;
};

/// The workload named mixed, selective, heavy or sharded.
Result<WorkloadSpec> FindWorkload(const std::string& name);

/// Compresses every document of `corpus` not compressed yet.
Status Compress(GeneratedCorpus* corpus);
/// The raw word-id streams in global file order: the generator's own
/// streams, or the marker corpus's documents expanded.
Result<std::vector<std::vector<uint32_t>>> RawFiles(
    const GeneratedCorpus& corpus);

/// The largest device footprint, in slots, one run of any `mix` entry can
/// reserve on `server` (sharded): per device, the executing worker contexts
/// times the largest plan footprint among the documents the device holds,
/// summed over devices. Plans every document of `corpus`; entries must
/// carry no query.
Result<uint64_t> MaxShardedFootprint(const PartitionedCorpus& corpus,
                                     const CorpusServer::Options& server,
                                     const std::vector<MixEntry>& mix);

/// One request and the tenant (index into WorkloadSpec::tenants) sending it.
struct Request {
  size_t tenant = 0;
  CorpusServer::RunRequest run;
};

/// The seeded request stream. Entries are drawn in shuffled blocks, one
/// of each mix entry per block, so every prefix of the stream holds each
/// entry in close to its share.
class RequestStream {
 public:
  /// `corpus` must outlive the stream (bigrams are sampled from it).
  RequestStream(const WorkloadSpec& spec, const GeneratedCorpus& corpus,
                uint64_t seed);
  Request Next();
  /// One request per distinct task of the mix, in first-listed order
  /// (the warm-up).
  std::vector<Request> OnePerTask();

 private:
  struct Entry {
    size_t tenant;
    MixEntry mix;
  };
  Request Make(const Entry& entry);

  const GeneratedCorpus& corpus_;
  std::vector<Entry> entries_;
  std::vector<size_t> block_;
  size_t next_in_block_ = 0;
  Rng rng_;
};

}  // namespace bench
}  // namespace gtadoc

#endif  // GTADOC_BENCHMARK_WORKLOADS_H_
