#include "analytics/task_kernel.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/status.h"
#include "gpu/device.h"
#include "gpu/memory_pool.h"
#include "gpu/primitives.h"

namespace gtadoc {

namespace {

/// Orders (id, count) by count desc then id asc — the canonical tie-break for
/// sort, termVector and rankedInvertedIndex outputs.
bool CountDescIdAsc(const std::pair<uint32_t, uint64_t>& a,
                    const std::pair<uint32_t, uint64_t>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

uint64_t Log2Ceil(uint64_t n) {
  uint64_t l = 1;
  while ((1ull << l) < n + 1) ++l;
  return l;
}

/// Per-rule bytes at which the default strategy heuristic abandons top-down:
/// the paper's observation that a 16-byte file buffer (4 files) is negligible
/// scales to kFileCountThreshold files of dense+list state (16 bytes each).
constexpr uint64_t kTopDownStateByteLimit = 16ull * kFileCountThreshold;

/// log2(num/den) in 1/1024 fixed-point units (num >= den > 0), pure integer
/// math so every engine computes bit-identical idf scores.
uint64_t FixedLog2(uint64_t num, uint64_t den) {
  // Normalize num/den into [1, 2) as a Q32 value.
  uint64_t e = 0;
  while (num / den >= 2) {
    den <<= 1;
    ++e;
  }
  unsigned __int128 x = ((static_cast<unsigned __int128>(num)) << 32) / den;
  uint64_t frac = 0;
  for (int bit = 0; bit < 10; ++bit) {
    x = (x * x) >> 32;  // square in Q32
    frac <<= 1;
    if (x >= (static_cast<unsigned __int128>(2) << 32)) {
      x >>= 1;
      frac |= 1;
    }
  }
  return (e << 10) | frac;
}

/// The scaled inverse document frequency of a word present in `df` of `n`
/// files: log2(n/df) in 1/1024 units.
uint64_t ScaledIdf(uint64_t n, uint64_t df) { return FixedLog2(n, df); }

}  // namespace

const char* TraversalShapeName(TraversalShape shape) {
  switch (shape) {
    case TraversalShape::kGlobalWeight:
      return "globalWeight";
    case TraversalShape::kPerFileWeight:
      return "perFileWeight";
    case TraversalShape::kSequence:
      return "sequence";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// AssemblyOps backends
// ---------------------------------------------------------------------------

void CpuAssembly::ChargeUpdates(uint64_t n) {
  if (meter_ != nullptr) meter_->Charge(n);
}

void CpuAssembly::ChargeSort(uint64_t n) {
  if (meter_ != nullptr && n > 0) meter_->Charge(4 * n * Log2Ceil(n));
}

void CpuAssembly::ChargeGroupSort(uint64_t groups, uint64_t entries) {
  (void)groups;
  if (meter_ != nullptr) meter_->Charge(2 * entries);
}

void CpuAssembly::SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* kv) {
  std::sort(kv->begin(), kv->end());
  ChargeSort(kv->size());
}

void GpuAssembly::ChargeUpdates(uint64_t n) {
  // Host-side reshaping of an already-drained table: free, as in the
  // hand-written drivers this replaces (the drain's D2H copy is charged by
  // the driver).
  (void)n;
}

void GpuAssembly::ChargeSort(uint64_t n) {
  if (n == 0) return;
  const uint64_t per_thread = 2 * Log2Ceil(n);
  device_->Launch("assembleSort",
                  static_cast<uint32_t>(std::min<uint64_t>(n, 1u << 20)),
                  [&](gpu::ThreadCtx& ctx) { ctx.Charge(per_thread); });
}

void GpuAssembly::ChargeGroupSort(uint64_t groups, uint64_t entries) {
  (void)entries;
  if (groups == 0) return;
  // One logical thread per group orders its (small) list — the old rankSort
  // kernel.
  device_->Launch("assembleGroupSort",
                  static_cast<uint32_t>(std::min<uint64_t>(groups, 1u << 26)),
                  [&](gpu::ThreadCtx& ctx) { ctx.Charge(8); });
}

void GpuAssembly::SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* kv) {
  gpu::DeviceSortPairs(device_, kv);
}

void CpuAssembly::SelectTopK(
    uint32_t k,
    std::vector<std::vector<std::pair<uint32_t, uint64_t>>>* groups) {
  const StateLayout& heap = BoundedHeapLayout();
  StateDims dims;
  dims.top_k = k;
  const uint64_t group_slots = heap.SlotsForBound(dims, k);
  std::vector<uint64_t> slab(group_slots * groups->size(), 0);
  CpuStateOps ops(meter_);
  for (size_t g = 0; g < groups->size(); ++g) {
    StateView state(slab.data(), g * group_slots, group_slots);
    heap.Init(state, ops);
    for (const auto& [id, count] : (*groups)[g]) {
      heap.Absorb(state, id, count, ops);
    }
    if (meter_ != nullptr) meter_->Charge(2 * (*groups)[g].size());
    DrainHeapSorted(state, &(*groups)[g]);
  }
}

void GpuAssembly::SelectTopK(
    uint32_t k,
    std::vector<std::vector<std::pair<uint32_t, uint64_t>>>* groups) {
  if (groups->empty()) return;
  const StateLayout& heap = BoundedHeapLayout();
  StateDims dims;
  dims.top_k = k;
  const uint64_t group_slots = heap.SlotsForBound(dims, k);
  const uint64_t total_slots = group_slots * groups->size();
  // Per-group heap regions carved from the memory pool — the same Section
  // IV-C discipline as the traversal state, so the selection runs as a real
  // device stage (one logical thread per group, its sift steps on the
  // critical path) instead of a free host reshape. The run's planned lease
  // is the fast path: the planner reserved these slots inside the run's one
  // pool acquisition (AssemblyStateSlots), so assembly charges no
  // allocation call and never touches the traversal regions (heap Init
  // tolerates the dirty slab). A pool with an undersized lease (a custom
  // kernel without the hint) is recycled whole — its traversal regions are
  // dead by assembly time — and only without any pool does a scoped pool
  // pay the old per-assembly allocation.
  std::unique_ptr<gpu::MemoryPool> scoped;
  gpu::MemoryPool* pool = lease_.pool;
  uint64_t base = lease_.offset;
  if (pool != nullptr && total_slots > lease_.slots) {
    pool->Reset();
    pool->EnsureCapacity(total_slots);
    base = 0;
  } else if (pool == nullptr) {
    scoped = std::make_unique<gpu::MemoryPool>(device_, total_slots);
    pool = scoped.get();
    base = 0;
  }
  uint64_t total_entries = 0;
  device_->Launch("assembleTopK", static_cast<uint32_t>(groups->size()),
                  [&](gpu::ThreadCtx& ctx) {
                    GpuStateOps ops(&ctx);
                    StateView state(pool->slab(),
                                    base + ctx.tid() * group_slots,
                                    group_slots);
                    heap.Init(state, ops);
                    for (const auto& [id, count] : (*groups)[ctx.tid()]) {
                      heap.Absorb(state, id, count, ops);
                    }
                  });
  for (const auto& g : *groups) total_entries += g.size();
  ChargeGroupSort(groups->size(), total_entries);  // the ordered drains
  for (size_t g = 0; g < groups->size(); ++g) {
    StateView state(pool->slab(), base + g * group_slots, group_slots);
    DrainHeapSorted(state, &(*groups)[g]);
  }
}

// ---------------------------------------------------------------------------
// TaskKernel defaults
// ---------------------------------------------------------------------------

const StateLayout& TaskKernel::Layout(TraversalStrategy strategy) const {
  switch (shape()) {
    case TraversalShape::kGlobalWeight:
      return strategy == TraversalStrategy::kBottomUp ? LocalWordTableLayout()
                                                      : ScalarWeightLayout();
    case TraversalShape::kPerFileWeight:
      return strategy == TraversalStrategy::kBottomUp ? LocalWordTableLayout()
                                                      : DensePerFileLayout();
    case TraversalShape::kSequence:
      return HeadTailLayout();
  }
  return ScalarWeightLayout();
}

uint64_t TaskKernel::StateBytesPerRule(const Grammar& g, const TaskInput& input,
                                       TraversalStrategy strategy) const {
  StateDims dims;
  dims.num_files = g.num_files();
  dims.num_words = g.num_words;
  dims.ngram_len = input.ngram_len;
  dims.top_k = input.top_k;
  return Layout(strategy).PropagatedBytesPerRule(dims);
}

uint64_t TaskKernel::ExpectedDistinctKeys(const StateDims& dims,
                                          const TaskInput& input) const {
  uint64_t vocab = dims.num_words;
  const std::vector<uint32_t>* accepted = AcceptedWords(input);
  if (accepted != nullptr) {
    vocab = std::min<uint64_t>(vocab, accepted->size());
  }
  switch (shape()) {
    case TraversalShape::kGlobalWeight:
      return std::max<uint64_t>(1, vocab);
    case TraversalShape::kPerFileWeight:
      return std::max<uint64_t>(1, vocab * dims.num_files);
    case TraversalShape::kSequence:
      return 0;  // distinct windows are unknowable before the traversal
  }
  return 0;
}

bool TaskKernel::MayMatchDocument(uint64_t root_bloom,
                                  const TaskInput& input) const {
  const std::vector<uint32_t>* accepted = AcceptedWords(input);
  if (accepted == nullptr) return true;  // non-selective: always execute
  // An empty accept set provably matches nothing; otherwise the document may
  // produce output iff any accepted word may be present in it.
  for (uint32_t w : *accepted) {
    const uint64_t mask = WordBloomMask(w);
    if ((root_bloom & mask) == mask) return true;
  }
  return false;
}

TraversalStrategy TaskKernel::PreferredStrategy(const Grammar& g,
                                                const DagView& dag,
                                                const TaskInput& input) const {
  (void)dag;
  // The adaptive selector of [4], generalized: propagate top-down while the
  // per-rule accumulator footprint stays negligible, fall back to bottom-up
  // local tables once it grows with the input (Section VI-C).
  const uint64_t per_rule =
      StateBytesPerRule(g, input, TraversalStrategy::kTopDown);
  return per_rule > kTopDownStateByteLimit ? TraversalStrategy::kBottomUp
                                           : TraversalStrategy::kTopDown;
}

void TaskKernel::AssembleGlobal(
    const TaskInput& input,
    const std::vector<std::pair<uint32_t, uint64_t>>& counts, AssemblyOps* ops,
    AnalyticsResult* out) const {
  (void)input;
  (void)counts;
  (void)ops;
  (void)out;
  GTADOC_LOG(Error) << "kernel '" << name()
                    << "' does not implement AssembleGlobal";
  GTADOC_CHECK(false);
}

void TaskKernel::AssembleFileWord(const TaskInput& input, uint32_t num_files,
                                  const std::vector<FileWordCount>& counts,
                                  AssemblyOps* ops,
                                  AnalyticsResult* out) const {
  (void)input;
  (void)num_files;
  (void)counts;
  (void)ops;
  (void)out;
  GTADOC_LOG(Error) << "kernel '" << name()
                    << "' does not implement AssembleFileWord";
  GTADOC_CHECK(false);
}

void TaskKernel::AssembleSequence(const TaskInput& input,
                                  gpu::NgramCounts counts, AssemblyOps* ops,
                                  AnalyticsResult* out) const {
  (void)input;
  (void)counts;
  (void)ops;
  (void)out;
  GTADOC_LOG(Error) << "kernel '" << name()
                    << "' does not implement AssembleSequence";
  GTADOC_CHECK(false);
}

void TaskKernel::FinalizeMerge(AnalyticsResult* acc,
                               uint64_t* merge_ops) const {
  (void)merge_ops;
  Canonicalize(acc);
}

// ---------------------------------------------------------------------------
// WordFilter
// ---------------------------------------------------------------------------

WordFilter::WordFilter(const TaskKernel& kernel, const TaskInput& input,
                       uint32_t num_words) {
  const std::vector<uint32_t>* accepted = kernel.AcceptedWords(input);
  if (accepted == nullptr) {
    accepted_count_ = num_words;
    return;
  }
  selective_ = true;
  bits_.assign(num_words, 0);
  for (uint32_t w : *accepted) {
    if (w < num_words && bits_[w] == 0) {
      bits_[w] = 1;
      ++accepted_count_;
    }
  }
}

// ---------------------------------------------------------------------------
// Built-in kernels. Each class is the complete definition of one task: its
// shape, its assembly from the shape's canonical accumulator, its merge and
// result operations, and its uncompressed reference loop.
// ---------------------------------------------------------------------------

namespace {

// ------------------------------------------------------------- wordCount ---

class WordCountKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kWordCount; }
  const char* name() const override { return "wordCount"; }
  TraversalShape shape() const override {
    return TraversalShape::kGlobalWeight;
  }

  void AssembleGlobal(const TaskInput& input,
                      const std::vector<std::pair<uint32_t, uint64_t>>& counts,
                      AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    for (const auto& [w, c] : counts) out->word_count[w] += c;
    ops->ChargeUpdates(counts.size());
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    (void)file_base;  // word-keyed: file ids do not appear
    for (const auto& [w, c] : doc.word_count) {
      acc->word_count[w] += c;
      ++*merge_ops;
    }
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    return r.word_count.size() * 12;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.word_count == b.word_count;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [w, c] : r.word_count) {
      *h = HashCombine(HashCombine(*h, w), c);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kWordCount;
    std::unordered_map<uint32_t, uint64_t> counts;
    for (const auto& file : files) {
      for (uint32_t w : file) {
        ++counts[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
    }
    out.word_count.insert(counts.begin(), counts.end());
    if (meter != nullptr) meter->Charge(counts.size());
    return out;
  }
};

// ------------------------------------------------------------------ sort ---

class SortKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kSort; }
  const char* name() const override { return "sort"; }
  TraversalShape shape() const override {
    return TraversalShape::kGlobalWeight;
  }

  void AssembleGlobal(const TaskInput& input,
                      const std::vector<std::pair<uint32_t, uint64_t>>& counts,
                      AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    // Pack (inverted count, word id) so ascending key order equals
    // (count desc, word asc); the backend charges its sort.
    std::vector<std::pair<uint64_t, uint64_t>> kv;
    kv.reserve(counts.size());
    for (const auto& [w, c] : counts) {
      kv.emplace_back(
          (static_cast<uint64_t>(UINT32_MAX - static_cast<uint32_t>(c)) << 32) |
              w,
          c);
    }
    ops->SortPairs(&kv);
    out->sort.reserve(kv.size());
    for (const auto& [key, c] : kv) {
      out->sort.emplace_back(static_cast<uint32_t>(key & 0xffffffffu), c);
    }
  }

  void Canonicalize(AnalyticsResult* r) const override {
    std::sort(r->sort.begin(), r->sort.end(), CountDescIdAsc);
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    (void)file_base;
    // Counts accumulate by word id; FinalizeMerge re-derives the ordering.
    for (const auto& [w, c] : doc.sort) {
      acc->word_count[w] += c;
      ++*merge_ops;
    }
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    acc->sort.assign(acc->word_count.begin(), acc->word_count.end());
    std::sort(acc->sort.begin(), acc->sort.end(), CountDescIdAsc);
    acc->word_count.clear();
    *merge_ops += acc->sort.size() * 4;
    Canonicalize(acc);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    return r.sort.size() * 12;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.sort == b.sort;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [w, c] : r.sort) {
      *h = HashCombine(HashCombine(*h, w), c);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kSort;
    std::unordered_map<uint32_t, uint64_t> counts;
    for (const auto& file : files) {
      for (uint32_t w : file) {
        ++counts[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
    }
    out.sort.assign(counts.begin(), counts.end());
    std::sort(out.sort.begin(), out.sort.end(), CountDescIdAsc);
    if (meter != nullptr) {
      meter->Charge(4 * counts.size() * Log2Ceil(counts.size()));
    }
    return out;
  }
};

// ----------------------------------------------------------- invertedIndex ---

class InvertedIndexKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kInvertedIndex; }
  const char* name() const override { return "invertedIndex"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    (void)num_files;
    for (const FileWordCount& e : counts) {
      out->inverted_index[e.word].push_back(e.file);
    }
    ops->ChargeUpdates(2 * counts.size());
  }

  void Canonicalize(AnalyticsResult* r) const override {
    for (auto& [word, files] : r->inverted_index) {
      (void)word;
      std::sort(files.begin(), files.end());
      files.erase(std::unique(files.begin(), files.end()), files.end());
    }
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    for (const auto& [w, files] : doc.inverted_index) {
      auto& list = acc->inverted_index[w];
      for (uint32_t f : files) list.push_back(f + file_base);
      *merge_ops += files.size();
    }
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = 0;
    for (const auto& [w, files] : r.inverted_index) {
      (void)w;
      bytes += 8 + files.size() * 4;
    }
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.inverted_index == b.inverted_index;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [w, files] : r.inverted_index) {
      *h = HashCombine(*h, w);
      for (uint32_t f : files) *h = HashCombine(*h, f);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kInvertedIndex;
    for (uint32_t f = 0; f < files.size(); ++f) {
      for (uint32_t w : files[f]) {
        auto& list = out.inverted_index[w];
        if (list.empty() || list.back() != f) list.push_back(f);
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
    }
    return out;
  }
};

// -------------------------------------------------------------- termVector ---

class TermVectorKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kTermVector; }
  const char* name() const override { return "termVector"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    if (out->term_vector.size() < num_files) out->term_vector.resize(num_files);
    for (const FileWordCount& e : counts) {
      out->term_vector[e.file].emplace_back(e.word, e.count);
    }
    ops->ChargeUpdates(4 * counts.size());
  }

  void Canonicalize(AnalyticsResult* r) const override {
    for (auto& vec : r->term_vector) {
      std::sort(vec.begin(), vec.end(), CountDescIdAsc);
    }
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    if (acc->term_vector.size() < file_base + doc.term_vector.size()) {
      acc->term_vector.resize(file_base + doc.term_vector.size());
    }
    for (size_t f = 0; f < doc.term_vector.size(); ++f) {
      acc->term_vector[file_base + f] = doc.term_vector[f];
      *merge_ops += doc.term_vector[f].size();
    }
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = 0;
    for (const auto& v : r.term_vector) bytes += 4 + v.size() * 12;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.term_vector == b.term_vector;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& vec : r.term_vector) {
      for (const auto& [w, c] : vec) *h = HashCombine(HashCombine(*h, w), c);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kTermVector;
    out.term_vector.resize(files.size());
    for (uint32_t f = 0; f < files.size(); ++f) {
      std::unordered_map<uint32_t, uint64_t> counts;
      for (uint32_t w : files[f]) {
        ++counts[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
      out.term_vector[f].assign(counts.begin(), counts.end());
      std::sort(out.term_vector[f].begin(), out.term_vector[f].end(),
                CountDescIdAsc);
      if (meter != nullptr) meter->Charge(counts.size() * 4);
    }
    return out;
  }
};

// ------------------------------------------------------ flat n-gram tables ---
//
// Both sequence results are flat tables (analytics/results.h). The helpers
// below work on any table with `ngram_len`/`files`/`words`/`counts` arrays:
// gpu::NgramCounts (drained, any order) and SequenceCountResult.

/// One (file, gram, count) entry packed for sorting: the gram's L words sit
/// inline, so std::sort moves the keys themselves instead of chasing an
/// index permutation through the arrays. L == 0 stands for every other
/// length; those grams are compared through their offset into the source
/// word pool.
template <uint32_t L>
struct GramRecord {
  static constexpr uint32_t kLen = L;
  uint32_t file;
  uint32_t w[L];
  uint64_t count;

  void Set(uint32_t f, const uint32_t* pool, size_t off, uint64_t c) {
    file = f;
    std::copy_n(pool + off, L, w);
    count = c;
  }
  const uint32_t* gram(const uint32_t* pool) const {
    (void)pool;
    return w;
  }
};

template <>
struct GramRecord<0> {
  static constexpr uint32_t kLen = 0;
  uint32_t file;
  size_t off;
  uint64_t count;

  void Set(uint32_t f, const uint32_t* pool, size_t o, uint64_t c) {
    (void)pool;
    file = f;
    off = o;
    count = c;
  }
  const uint32_t* gram(const uint32_t* pool) const { return pool + off; }
};

/// Calls fn(GramRecord<3>()) for trigrams (the default l), and
/// fn(GramRecord<0>()) otherwise.
template <typename Fn>
void WithGramRecord(uint32_t l, Fn&& fn) {
  if (l == 3) return fn(GramRecord<3>());
  return fn(GramRecord<0>());
}

/// Lexicographic three-way comparison of two l-word grams.
int CompareGrams(const uint32_t* a, const uint32_t* b, uint32_t l) {
  for (uint32_t k = 0; k < l; ++k) {
    if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
  }
  return 0;
}

/// Sorts `recs` ascending by a key of kWords 32-bit words, most significant
/// first, where key(r, k) is word k of r's key. An LSD radix sort over the
/// key's bytes: one pass builds every byte's histogram, and a byte that is
/// the same in every record decides no order and costs no scatter pass.
/// Records with equal keys keep their input order.
template <size_t kWords, typename R, typename Key>
void RadixSortRecords(std::vector<R>* recs, Key key) {
  const size_t n = recs->size();
  if (n < 2) return;
  constexpr size_t kDigits = 4 * kWords;
  // Digit d is byte d % 4 of key word kWords - 1 - d / 4: least significant
  // first.
  std::vector<std::array<size_t, 256>> hist(kDigits);  // zero-initialized
  for (const R& r : *recs) {
    for (size_t k = 0; k < kWords; ++k) {
      const uint32_t v = key(r, k);
      std::array<size_t, 256>* h = &hist[4 * (kWords - 1 - k)];
      ++h[0][v & 0xff];
      ++h[1][(v >> 8) & 0xff];
      ++h[2][(v >> 16) & 0xff];
      ++h[3][v >> 24];
    }
  }
  std::vector<R> scratch(n);
  std::vector<R>* src = recs;
  std::vector<R>* dst = &scratch;
  for (size_t d = 0; d < kDigits; ++d) {
    std::array<size_t, 256>& h = hist[d];
    const uint32_t shift = 8 * (d % 4);
    const size_t k = kWords - 1 - d / 4;
    if (h[(key(src->front(), k) >> shift) & 0xff] == n) continue;
    size_t sum = 0;
    for (size_t& c : h) {
      const size_t count = c;
      c = sum;
      sum += count;
    }
    for (const R& r : *src) (*dst)[h[(key(r, k) >> shift) & 0xff]++] = r;
    std::swap(src, dst);
  }
  if (src != recs) recs->swap(scratch);
}

template <typename R, typename Table>
std::vector<R> PackRecords(const Table& t) {
  std::vector<R> recs(t.counts.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].Set(t.files[i], t.words.data(), i * t.ngram_len, t.counts[i]);
  }
  return recs;
}

/// True when every entry's (file, gram) is strictly greater than the
/// previous one's.
template <typename Table>
bool StrictlyAscendingByFileGram(const Table& t) {
  const uint32_t l = t.ngram_len;
  for (size_t i = 1; i < t.counts.size(); ++i) {
    if (t.files[i - 1] != t.files[i]) {
      if (t.files[i - 1] > t.files[i]) return false;
    } else if (CompareGrams(&t.words[(i - 1) * l], &t.words[i * l], l) >= 0) {
      return false;
    }
  }
  return true;
}

/// Orders `t` by (file, gram) and sums the counts of equal keys into one
/// entry. A table that already is strictly ascending costs one scan.
template <typename Table>
void SortByFileGram(Table* t) {
  if (StrictlyAscendingByFileGram(*t)) return;
  WithGramRecord(t->ngram_len, [t](auto tag) {
    using R = decltype(tag);
    const uint32_t l = R::kLen != 0 ? R::kLen : t->ngram_len;
    const uint32_t* pool = t->words.data();
    std::vector<R> recs = PackRecords<R>(*t);
    if constexpr (R::kLen == 3) {
      RadixSortRecords<4>(&recs, [](const R& r, size_t k) {
        return k == 0 ? r.file : r.w[k - 1];
      });
    } else {
      std::sort(recs.begin(), recs.end(), [pool, l](const R& a, const R& b) {
        if (a.file != b.file) return a.file < b.file;
        return CompareGrams(a.gram(pool), b.gram(pool), l) < 0;
      });
    }
    std::vector<uint32_t> words(t->words.size());
    size_t n = 0;
    for (size_t i = 0; i < recs.size(); ++i) {
      const uint32_t* g = recs[i].gram(pool);
      if (n > 0 && recs[i].file == t->files[n - 1] &&
          CompareGrams(recs[i - 1].gram(pool), g, l) == 0) {
        t->counts[n - 1] += recs[i].count;
        continue;
      }
      t->files[n] = recs[i].file;
      t->counts[n] = recs[i].count;
      std::copy_n(g, l, words.begin() + n * l);
      ++n;
    }
    t->files.resize(n);
    t->counts.resize(n);
    words.resize(n * l);
    t->words = std::move(words);
  });
}

/// Groups the entries of `t` (any order) by gram: grams ascending, each
/// gram's postings by count desc then file asc. Entries with an equal
/// (file, gram) stay separate postings.
RankedInvertedIndexResult RankByGram(const gpu::NgramCounts& t) {
  RankedInvertedIndexResult r;
  r.ngram_len = t.ngram_len;
  WithGramRecord(t.ngram_len, [&t, &r](auto tag) {
    using R = decltype(tag);
    const uint32_t l = R::kLen != 0 ? R::kLen : t.ngram_len;
    const uint32_t* pool = t.words.data();
    std::vector<R> recs = PackRecords<R>(t);
    if constexpr (R::kLen == 3) {
      // Key (gram, ~count, file): count descending is ~count ascending.
      RadixSortRecords<6>(&recs, [](const R& r, size_t k) -> uint32_t {
        switch (k) {
          case 3:
            return ~static_cast<uint32_t>(r.count >> 32);
          case 4:
            return ~static_cast<uint32_t>(r.count);
          case 5:
            return r.file;
          default:
            return r.w[k];
        }
      });
    } else {
      std::sort(recs.begin(), recs.end(), [pool, l](const R& a, const R& b) {
        const int c = CompareGrams(a.gram(pool), b.gram(pool), l);
        if (c != 0) return c < 0;
        if (a.count != b.count) return a.count > b.count;
        return a.file < b.file;
      });
    }
    r.postings.reserve(recs.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      const uint32_t* g = recs[i].gram(pool);
      if (i == 0 || CompareGrams(recs[i - 1].gram(pool), g, l) != 0) {
        r.offsets.push_back(i);
        r.grams.insert(r.grams.end(), g, g + l);
      }
      r.postings.emplace_back(recs[i].file, recs[i].count);
    }
    if (!recs.empty()) r.offsets.push_back(recs.size());
  });
  return r;
}

/// The grams [first, last) of a ranked table, strictly ascending.
struct GramRun {
  const RankedInvertedIndexResult* table;
  size_t first;
  size_t last;
};

/// Appends gram g of `src` with its postings to `out`.
void AppendGram(const RankedInvertedIndexResult& src, size_t g,
                RankedInvertedIndexResult* out) {
  const Span<uint32_t> gram = src.gram(g);
  const Span<RankedInvertedIndexResult::Posting> p = src.postings_at(g);
  out->grams.insert(out->grams.end(), gram.begin(), gram.end());
  out->postings.insert(out->postings.end(), p.begin(), p.end());
  out->offsets.push_back(out->postings.size());
}

/// Merges two runs into one ranked table. A gram in both gets the rank
/// merge of its two posting lists.
RankedInvertedIndexResult MergeTwoRuns(const GramRun& a, const GramRun& b,
                                       uint32_t l) {
  RankedInvertedIndexResult out;
  out.ngram_len = l;
  const auto postings = [](const GramRun& r) {
    return r.table->offsets[r.last] - r.table->offsets[r.first];
  };
  out.grams.reserve((a.last - a.first + b.last - b.first) * l);
  out.offsets.reserve(a.last - a.first + b.last - b.first + 1);
  out.postings.reserve(postings(a) + postings(b));
  out.offsets.push_back(0);
  size_t i = a.first;
  size_t j = b.first;
  while (i < a.last && j < b.last) {
    const int c = CompareGrams(a.table->gram(i).begin(),
                               b.table->gram(j).begin(), l);
    if (c < 0) {
      AppendGram(*a.table, i++, &out);
    } else if (c > 0) {
      AppendGram(*b.table, j++, &out);
    } else {
      const Span<uint32_t> gram = a.table->gram(i);
      out.grams.insert(out.grams.end(), gram.begin(), gram.end());
      const auto pa = a.table->postings_at(i++);
      const auto pb = b.table->postings_at(j++);
      std::merge(pa.begin(), pa.end(), pb.begin(), pb.end(),
                 std::back_inserter(out.postings), CountDescIdAsc);
      out.offsets.push_back(out.postings.size());
    }
  }
  for (; i < a.last; ++i) AppendGram(*a.table, i, &out);
  for (; j < b.last; ++j) AppendGram(*b.table, j, &out);
  return out;
}

/// Coalesces a concatenation of ranked blocks (each sorted by gram, each
/// gram's postings ranked, as RankByGram and this function leave them) into
/// one ranked table. The maximal strictly ascending stretches of grams are
/// merged pairwise as sorted runs, so a gram found in one run keeps its
/// postings as they are and no posting is re-sorted.
void MergeGramRuns(RankedInvertedIndexResult* t) {
  const uint32_t l = t->ngram_len;
  std::vector<GramRun> runs;
  for (size_t g = 0; g < t->size(); ++g) {
    if (g == 0 || CompareGrams(t->gram(g - 1).begin(), t->gram(g).begin(),
                               l) >= 0) {
      runs.push_back({t, g, g});
    }
    ++runs.back().last;
  }
  if (runs.size() < 2) return;
  std::vector<RankedInvertedIndexResult> merged;  // what `runs` point into
  while (runs.size() > 1) {
    std::vector<RankedInvertedIndexResult> next;
    next.reserve((runs.size() + 1) / 2);
    for (size_t r = 0; r + 1 < runs.size(); r += 2) {
      next.push_back(MergeTwoRuns(runs[r], runs[r + 1], l));
    }
    if (runs.size() % 2 == 1) {  // copied: its table may be freed below
      next.push_back(MergeTwoRuns(runs.back(), GramRun{t, 0, 0}, l));
    }
    merged = std::move(next);
    runs.clear();
    for (const RankedInvertedIndexResult& m : merged) {
      runs.push_back({&m, 0, m.size()});
    }
  }
  *t = std::move(merged.front());
}

// ----------------------------------------------------------- sequenceCount ---

class SequenceCountKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kSequenceCount; }
  const char* name() const override { return "sequenceCount"; }
  TraversalShape shape() const override { return TraversalShape::kSequence; }

  void AssembleSequence(const TaskInput& input, gpu::NgramCounts counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    ops->ChargeUpdates(counts.size());
    SequenceCountResult& r = out->sequence_count;
    r.ngram_len = counts.ngram_len;
    r.files = std::move(counts.files);
    r.words = std::move(counts.words);
    r.counts = std::move(counts.counts);
    SortByFileGram(&r);
  }

  /// Appends the document's entries with their files offset. Documents merge
  /// in ascending file_base in corpus order, so the appended table stays
  /// sorted and FinalizeMerge only scans it.
  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    const SequenceCountResult& d = doc.sequence_count;
    if (d.empty()) return;
    SequenceCountResult& a = acc->sequence_count;
    a.ngram_len = d.ngram_len;
    for (uint32_t f : d.files) a.files.push_back(f + file_base);
    a.words.insert(a.words.end(), d.words.begin(), d.words.end());
    a.counts.insert(a.counts.end(), d.counts.begin(), d.counts.end());
    *merge_ops += d.size();
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    (void)merge_ops;
    SortByFileGram(&acc->sequence_count);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    return r.sequence_count.size() * (12 + 4ull * ngram_len);
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.sequence_count == b.sequence_count;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    const SequenceCountResult& t = r.sequence_count;
    for (size_t i = 0; i < t.size(); ++i) {
      *h = HashCombine(*h, t.files[i]);
      for (uint32_t w : t.gram(i)) *h = HashCombine(*h, w);
      *h = HashCombine(*h, t.counts[i]);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kSequenceCount;
    const uint32_t l = input.ngram_len;
    std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint64_t> counts;
    for (uint32_t f = 0; f < files.size(); ++f) {
      const auto& file = files[f];
      if (file.size() < l) continue;
      for (size_t i = 0; i + l <= file.size(); ++i) {
        std::vector<uint32_t> gram(file.begin() + i, file.begin() + i + l);
        ++counts[{f, std::move(gram)}];
        if (meter != nullptr) meter->Charge(2 * l + kCpuSeqMapDescentOps);
      }
    }
    // The map's order is the result's (file, gram) order.
    SequenceCountResult& r = out.sequence_count;
    r.ngram_len = l;
    for (const auto& [key, c] : counts) {
      r.files.push_back(key.first);
      r.words.insert(r.words.end(), key.second.begin(), key.second.end());
      r.counts.push_back(c);
    }
    return out;
  }
};

// ---------------------------------------------------- rankedInvertedIndex ---

class RankedInvertedIndexKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kRankedInvertedIndex; }
  const char* name() const override { return "rankedInvertedIndex"; }
  TraversalShape shape() const override { return TraversalShape::kSequence; }

  void AssembleSequence(const TaskInput& input, gpu::NgramCounts counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    out->ranked_inverted_index = RankByGram(counts);
    ops->ChargeUpdates(2 * counts.size());
    ops->ChargeGroupSort(out->ranked_inverted_index.size(), counts.size());
  }

  void Canonicalize(AnalyticsResult* r) const override {
    RankedInvertedIndexResult& t = r->ranked_inverted_index;
    for (size_t g = 0; g < t.size(); ++g) {
      std::sort(t.postings.begin() + t.offsets[g],
                t.postings.begin() + t.offsets[g + 1], CountDescIdAsc);
    }
  }

  /// Appends the document's gram blocks with their files offset; equal
  /// grams of different documents are coalesced by FinalizeMerge.
  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    const RankedInvertedIndexResult& d = doc.ranked_inverted_index;
    if (d.empty()) return;
    RankedInvertedIndexResult& a = acc->ranked_inverted_index;
    a.ngram_len = d.ngram_len;
    if (a.offsets.empty()) a.offsets.push_back(0);
    a.grams.insert(a.grams.end(), d.grams.begin(), d.grams.end());
    const uint64_t base = a.postings.size();
    for (size_t g = 1; g < d.offsets.size(); ++g) {
      a.offsets.push_back(base + d.offsets[g]);
    }
    for (const auto& [f, c] : d.postings) {
      a.postings.emplace_back(f + file_base, c);
    }
    *merge_ops += d.postings.size();
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    RankedInvertedIndexResult& a = acc->ranked_inverted_index;
    *merge_ops += a.postings.size() * 2;
    MergeGramRuns(&a);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    const RankedInvertedIndexResult& t = r.ranked_inverted_index;
    return t.size() * 4ull * ngram_len + t.postings.size() * 12;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.ranked_inverted_index == b.ranked_inverted_index;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    const RankedInvertedIndexResult& t = r.ranked_inverted_index;
    for (size_t g = 0; g < t.size(); ++g) {
      for (uint32_t w : t.gram(g)) *h = HashCombine(*h, w);
      for (const auto& [f, c] : t.postings_at(g)) {
        *h = HashCombine(HashCombine(*h, f), c);
      }
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kRankedInvertedIndex;
    const uint32_t l = input.ngram_len;
    std::map<std::vector<uint32_t>, std::unordered_map<uint32_t, uint64_t>>
        per_gram;
    for (uint32_t f = 0; f < files.size(); ++f) {
      const auto& file = files[f];
      if (file.size() < l) continue;
      for (size_t i = 0; i + l <= file.size(); ++i) {
        std::vector<uint32_t> gram(file.begin() + i, file.begin() + i + l);
        ++per_gram[std::move(gram)][f];
        if (meter != nullptr) meter->Charge(2 * l + kCpuSeqMapDescentOps);
      }
    }
    // The map's order is the result's gram order.
    RankedInvertedIndexResult& r = out.ranked_inverted_index;
    r.ngram_len = l;
    for (const auto& [gram, counts] : per_gram) {
      std::vector<std::pair<uint32_t, uint64_t>> list(counts.begin(),
                                                      counts.end());
      std::sort(list.begin(), list.end(), CountDescIdAsc);
      if (meter != nullptr) meter->Charge(counts.size() * 4);
      if (r.offsets.empty()) r.offsets.push_back(0);
      r.grams.insert(r.grams.end(), gram.begin(), gram.end());
      r.postings.insert(r.postings.end(), list.begin(), list.end());
      r.offsets.push_back(r.postings.size());
    }
    return out;
  }
};

// ----------------------------------------------------------- keywordSearch ---

/// Per-file hit totals of one query word set over pre-aggregated
/// (file, word, count) triples — the shared reduction of keywordSearch's
/// single- and multi-query assemblies.
KeywordSearchResult HitsForQuery(const std::vector<uint32_t>& query,
                                 const std::vector<FileWordCount>& counts) {
  std::vector<uint32_t> sorted = query;
  std::sort(sorted.begin(), sorted.end());
  std::map<uint32_t, uint64_t> hits;
  for (const FileWordCount& e : counts) {
    if (!std::binary_search(sorted.begin(), sorted.end(), e.word)) continue;
    hits[e.file] += e.count;
  }
  return KeywordSearchResult(hits.begin(), hits.end());
}

/// Folds one document's per-set results into the accumulator with file ids
/// offset — shared by the keyword and phrase kernels' Merge.
void MergeMultiQuery(const AnalyticsResult& doc, uint32_t file_base,
                     AnalyticsResult* acc, uint64_t* merge_ops) {
  if (acc->keyword_multi.size() < doc.keyword_multi.size()) {
    acc->keyword_multi.resize(doc.keyword_multi.size());
  }
  for (size_t q = 0; q < doc.keyword_multi.size(); ++q) {
    for (const auto& [f, hits] : doc.keyword_multi[q]) {
      acc->keyword_multi[q].emplace_back(f + file_base, hits);
      ++*merge_ops;
    }
  }
}

/// The seventh task, written purely against the framework: given a query
/// word set, return the documents (files) containing at least one query word
/// with their total hit counts — a grep-style selective scan. It rides the
/// per-file-weight shape and declares its accept set, which lets every
/// driver prune rules whose subtree contains no query word: the compressed
/// traversal touches only the matching corner of the grammar instead of the
/// whole token stream. With Options::query_sets the one pruned traversal
/// serves every set at once: the accept set is the union, and the assembly
/// splits the drained triples into per-set results bit-identical to
/// single-query runs.
class KeywordSearchKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kKeywordSearch; }
  const char* name() const override { return "keywordSearch"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  const std::vector<uint32_t>* AcceptedWords(
      const TaskInput& input) const override {
    return &input.query_words;
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)num_files;
    // Defensive re-filter: the result must be query-only even under a driver
    // that forgot to filter. (query_words is the union when sets are given.)
    out->keyword_search = HitsForQuery(input.query_words, counts);
    ops->ChargeUpdates(counts.size());
    if (!input.query_sets.empty()) {
      out->keyword_multi.clear();
      out->keyword_multi.reserve(input.query_sets.size());
      for (const auto& set : input.query_sets) {
        out->keyword_multi.push_back(HitsForQuery(set, counts));
      }
      ops->ChargeUpdates(counts.size() * input.query_sets.size());
    }
  }

  void Canonicalize(AnalyticsResult* r) const override {
    std::sort(r->keyword_search.begin(), r->keyword_search.end());
    for (auto& set : r->keyword_multi) std::sort(set.begin(), set.end());
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    for (const auto& [f, hits] : doc.keyword_search) {
      acc->keyword_search.emplace_back(f + file_base, hits);
      ++*merge_ops;
    }
    MergeMultiQuery(doc, file_base, acc, merge_ops);
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    *merge_ops += acc->keyword_search.size();
    for (const auto& set : acc->keyword_multi) *merge_ops += set.size();
    Canonicalize(acc);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = r.keyword_search.size() * 12;
    for (const auto& set : r.keyword_multi) bytes += set.size() * 12;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.keyword_search == b.keyword_search &&
           a.keyword_multi == b.keyword_multi;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [f, hits] : r.keyword_search) {
      *h = HashCombine(HashCombine(*h, f), hits);
      ++*entries;
    }
    for (const auto& set : r.keyword_multi) {
      for (const auto& [f, hits] : set) {
        *h = HashCombine(HashCombine(*h, f), hits);
      }
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kKeywordSearch;
    auto scan = [&](const std::vector<uint32_t>& words) {
      KeywordSearchResult result;
      std::vector<uint32_t> query = words;
      std::sort(query.begin(), query.end());
      for (uint32_t f = 0; f < files.size(); ++f) {
        uint64_t hits = 0;
        for (uint32_t w : files[f]) {
          // One membership probe per token: the grep-style full scan the
          // compressed traversal is benchmarked against.
          if (std::binary_search(query.begin(), query.end(), w)) ++hits;
          if (meter != nullptr) meter->Charge(2);
        }
        if (hits > 0) result.emplace_back(f, hits);
      }
      return result;
    };
    out.keyword_search = scan(input.query_words);
    for (const auto& set : input.query_sets) {
      out.keyword_multi.push_back(scan(set));
    }
    return out;
  }
};

// ------------------------------------------------------------- topKWords ---

/// Per-file bounded selection: the k most frequent words of every file,
/// k from the engines' top_k option. The first kernel impossible under the
/// fixed accumulator shapes: its selection state is a BoundedHeapLayout —
/// per-group k-best heaps carved from the memory pool and reduced on the
/// device — instead of the full sort the `sort`/termVector assembly pays.
class TopKWordsKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kTopKWords; }
  const char* name() const override { return "topKWords"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  uint64_t AssemblyStateSlots(const StateDims& dims,
                              const TaskInput& input) const override {
    // One BoundedHeap region per file, leased from the run's pool so
    // SelectTopK charges no extra allocation call.
    StateDims heap_dims;
    heap_dims.top_k = input.top_k;
    return dims.num_files *
           BoundedHeapLayout().SlotsForBound(heap_dims, input.top_k);
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    std::vector<std::vector<std::pair<uint32_t, uint64_t>>> groups(num_files);
    for (const FileWordCount& e : counts) {
      groups[e.file].emplace_back(e.word, e.count);
    }
    ops->ChargeUpdates(counts.size());
    ops->SelectTopK(input.top_k, &groups);
    out->top_k_words = std::move(groups);
  }

  void Canonicalize(AnalyticsResult* r) const override {
    for (auto& vec : r->top_k_words) {
      std::sort(vec.begin(), vec.end(), CountDescIdAsc);
    }
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    if (acc->top_k_words.size() < file_base + doc.top_k_words.size()) {
      acc->top_k_words.resize(file_base + doc.top_k_words.size());
    }
    for (size_t f = 0; f < doc.top_k_words.size(); ++f) {
      acc->top_k_words[file_base + f] = doc.top_k_words[f];
      *merge_ops += doc.top_k_words[f].size();
    }
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = 0;
    for (const auto& v : r.top_k_words) bytes += 4 + v.size() * 12;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.top_k_words == b.top_k_words;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& vec : r.top_k_words) {
      for (const auto& [w, c] : vec) *h = HashCombine(HashCombine(*h, w), c);
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kTopKWords;
    out.top_k_words.resize(files.size());
    for (uint32_t f = 0; f < files.size(); ++f) {
      std::unordered_map<uint32_t, uint64_t> counts;
      for (uint32_t w : files[f]) {
        ++counts[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
      // The reference baseline pays the full count + sort the device heaps
      // avoid; the truncation afterwards makes the outputs comparable.
      std::vector<std::pair<uint32_t, uint64_t>> all(counts.begin(),
                                                     counts.end());
      std::sort(all.begin(), all.end(), CountDescIdAsc);
      if (all.size() > input.top_k) all.resize(input.top_k);
      out.top_k_words[f] = std::move(all);
      if (meter != nullptr && !counts.empty()) {
        meter->Charge(4 * counts.size() * Log2Ceil(counts.size()));
      }
    }
    return out;
  }
};

// ----------------------------------------------------------------- tfIdf ---

/// Per-file scored term vectors: tf from the file's word counts (termVector
/// state), df from the word's distinct-file presence (invertedIndex state),
/// both composed out of one per-file-weight traversal. Scores are scaled
/// integers (tf * log2(N/df) in 1/1024 units, pure integer math), so every
/// engine and the batch merge produce bit-identical vectors.
class TfIdfKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kTfIdf; }
  const char* name() const override { return "tfIdf"; }
  TraversalShape shape() const override {
    return TraversalShape::kPerFileWeight;
  }

  void AssembleFileWord(const TaskInput& input, uint32_t num_files,
                        const std::vector<FileWordCount>& counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    (void)input;
    std::vector<uint32_t> df;  // by word id; (file, word) pairs are unique
    for (const FileWordCount& e : counts) {
      if (e.word >= df.size()) df.resize(size_t{e.word} + 1, 0);
      ++df[e.word];
    }
    out->tf_idf.assign(num_files, std::vector<TfIdfEntry>());
    for (const FileWordCount& e : counts) {
      TfIdfEntry entry;
      entry.word = e.word;
      entry.tf = e.count;
      entry.score = e.count * ScaledIdf(num_files, df[e.word]);
      out->tf_idf[e.file].push_back(entry);
    }
    ops->ChargeUpdates(2 * counts.size());
    ops->ChargeGroupSort(num_files, counts.size());
    // The caller's canonicalize pass supplies the per-file score ordering.
  }

  void Canonicalize(AnalyticsResult* r) const override {
    for (auto& vec : r->tf_idf) {
      std::sort(vec.begin(), vec.end(),
                [](const TfIdfEntry& a, const TfIdfEntry& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.word < b.word;
                });
    }
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    if (acc->tf_idf.size() < file_base + doc.tf_idf.size()) {
      acc->tf_idf.resize(file_base + doc.tf_idf.size());
    }
    for (size_t f = 0; f < doc.tf_idf.size(); ++f) {
      // Term frequencies merge verbatim; the scores are document-local and
      // FinalizeMerge re-derives them from the corpus-wide df.
      acc->tf_idf[file_base + f] = doc.tf_idf[f];
      *merge_ops += doc.tf_idf[f].size();
    }
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    const uint64_t num_files = acc->tf_idf.size();
    std::vector<uint32_t> df;  // by word id
    for (const auto& vec : acc->tf_idf) {
      for (const TfIdfEntry& e : vec) {
        if (e.word >= df.size()) df.resize(size_t{e.word} + 1, 0);
        ++df[e.word];
      }
    }
    for (auto& vec : acc->tf_idf) {
      for (TfIdfEntry& e : vec) {
        e.score = e.tf * ScaledIdf(num_files, df[e.word]);
        *merge_ops += 2;
      }
    }
    Canonicalize(acc);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = 0;
    for (const auto& v : r.tf_idf) bytes += 4 + v.size() * 20;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.tf_idf == b.tf_idf;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& vec : r.tf_idf) {
      for (const TfIdfEntry& e : vec) {
        *h = HashCombine(HashCombine(HashCombine(*h, e.word), e.tf), e.score);
      }
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    (void)input;
    AnalyticsResult out;
    out.task = Task::kTfIdf;
    const uint64_t num_files = files.size();
    std::vector<std::unordered_map<uint32_t, uint64_t>> tf(files.size());
    std::unordered_map<uint32_t, uint32_t> df;
    for (uint32_t f = 0; f < files.size(); ++f) {
      for (uint32_t w : files[f]) {
        if (++tf[f][w] == 1) ++df[w];
        if (meter != nullptr) meter->Charge(kCpuHashUpdateOps);
      }
    }
    out.tf_idf.assign(files.size(), std::vector<TfIdfEntry>());
    for (uint32_t f = 0; f < files.size(); ++f) {
      for (const auto& [w, count] : tf[f]) {
        TfIdfEntry entry;
        entry.word = w;
        entry.tf = count;
        entry.score = count * ScaledIdf(num_files, df[w]);
        out.tf_idf[f].push_back(entry);
        if (meter != nullptr) meter->Charge(4);
      }
    }
    return out;
  }
};

// ------------------------------------------------------------ phraseSearch ---

/// Multi-word phrase hits per file, riding the sequence pipeline and the
/// multi-query seam: the window length is the phrase's length
/// (SequenceWindow), the head/tail machinery enumerates every l-window of
/// the compressed stream exactly once, and the assembly keeps only windows
/// equal to the phrase. With Options::query_sets each set is one phrase
/// (all sets must share a length — the window — for a set to match; other
/// lengths yield empty results) and one traversal serves them all. A
/// one-word "phrase" is keywordSearch's job: the window then falls back to
/// ngram_len and nothing matches.
class PhraseSearchKernel : public TaskKernel {
 public:
  Task task() const override { return Task::kPhraseSearch; }
  const char* name() const override { return "phraseSearch"; }
  TraversalShape shape() const override { return TraversalShape::kSequence; }

  uint32_t SequenceWindow(const TaskInput& input) const override {
    const std::vector<uint32_t>* phrase = &input.query_words;
    if (!input.query_sets.empty()) phrase = &input.query_sets.front();
    return phrase->size() >= 2 ? static_cast<uint32_t>(phrase->size())
                               : input.ngram_len;
  }

  /// Conjunctive pushdown: a phrase can only occur in a document that may
  /// contain EVERY one of its words, so a document passes iff some query
  /// phrase fully passes the root Bloom. (The traversal itself declares no
  /// word filter — window adjacency needs the full stream — which is why
  /// this override exists instead of the AcceptedWords-derived default.)
  bool MayMatchDocument(uint64_t root_bloom,
                        const TaskInput& input) const override {
    auto phrase_may = [root_bloom](const std::vector<uint32_t>& phrase) {
      if (phrase.empty()) return true;  // degenerate: stay conservative
      for (uint32_t w : phrase) {
        const uint64_t mask = WordBloomMask(w);
        if ((root_bloom & mask) != mask) return false;
      }
      return true;
    };
    if (input.query_sets.empty()) return phrase_may(input.query_words);
    for (const auto& phrase : input.query_sets) {
      if (phrase_may(phrase)) return true;
    }
    return false;
  }

  void AssembleSequence(const TaskInput& input, gpu::NgramCounts counts,
                        AssemblyOps* ops, AnalyticsResult* out) const override {
    auto match = [&counts](const std::vector<uint32_t>& phrase) {
      std::map<uint32_t, uint64_t> hits;
      if (phrase.size() == counts.ngram_len) {
        for (size_t i = 0; i < counts.size(); ++i) {
          if (std::equal(phrase.begin(), phrase.end(), counts.gram(i))) {
            hits[counts.files[i]] += counts.counts[i];
          }
        }
      }
      return PhraseSearchResult(hits.begin(), hits.end());
    };
    if (input.query_sets.empty()) {
      out->phrase_search = match(input.query_words);
      ops->ChargeUpdates(counts.size());
    } else {
      out->keyword_multi.clear();
      out->keyword_multi.reserve(input.query_sets.size());
      for (const auto& phrase : input.query_sets) {
        out->keyword_multi.push_back(match(phrase));
      }
      ops->ChargeUpdates(counts.size() * input.query_sets.size());
    }
  }

  void Canonicalize(AnalyticsResult* r) const override {
    std::sort(r->phrase_search.begin(), r->phrase_search.end());
    for (auto& set : r->keyword_multi) std::sort(set.begin(), set.end());
  }

  void Merge(const AnalyticsResult& doc, uint32_t file_base,
             AnalyticsResult* acc, uint64_t* merge_ops) const override {
    for (const auto& [f, hits] : doc.phrase_search) {
      acc->phrase_search.emplace_back(f + file_base, hits);
      ++*merge_ops;
    }
    MergeMultiQuery(doc, file_base, acc, merge_ops);
  }

  void FinalizeMerge(AnalyticsResult* acc, uint64_t* merge_ops) const override {
    *merge_ops += acc->phrase_search.size();
    for (const auto& set : acc->keyword_multi) *merge_ops += set.size();
    Canonicalize(acc);
  }

  uint64_t ResultBytes(const AnalyticsResult& r,
                       uint32_t ngram_len) const override {
    (void)ngram_len;
    uint64_t bytes = r.phrase_search.size() * 12;
    for (const auto& set : r.keyword_multi) bytes += set.size() * 12;
    return bytes;
  }

  bool Equal(const AnalyticsResult& a,
             const AnalyticsResult& b) const override {
    return a.phrase_search == b.phrase_search &&
           a.keyword_multi == b.keyword_multi;
  }

  void DigestFold(const AnalyticsResult& r, uint64_t* h,
                  size_t* entries) const override {
    for (const auto& [f, hits] : r.phrase_search) {
      *h = HashCombine(HashCombine(*h, f), hits);
      ++*entries;
    }
    for (const auto& set : r.keyword_multi) {
      for (const auto& [f, hits] : set) {
        *h = HashCombine(HashCombine(*h, f), hits);
      }
      ++*entries;
    }
  }

  AnalyticsResult RunUncompressed(
      const std::vector<std::vector<uint32_t>>& files, const TaskInput& input,
      CpuCostMeter* meter) const override {
    AnalyticsResult out;
    out.task = Task::kPhraseSearch;
    const uint32_t l = SequenceWindow(input);
    auto scan = [&](const std::vector<uint32_t>& phrase) {
      PhraseSearchResult result;
      if (phrase.size() != l) return result;
      for (uint32_t f = 0; f < files.size(); ++f) {
        const auto& file = files[f];
        uint64_t hits = 0;
        for (size_t i = 0; i + l <= file.size(); ++i) {
          if (std::equal(phrase.begin(), phrase.end(), file.begin() + i)) {
            ++hits;
          }
          if (meter != nullptr) meter->Charge(2);
        }
        if (hits > 0) result.emplace_back(f, hits);
      }
      return result;
    };
    if (input.query_sets.empty()) {
      out.phrase_search = scan(input.query_words);
    } else {
      for (const auto& phrase : input.query_sets) {
        out.keyword_multi.push_back(scan(phrase));
      }
    }
    return out;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// TaskRegistry
// ---------------------------------------------------------------------------

struct TaskRegistry::Impl {
  mutable std::mutex mu;
  std::map<int, std::unique_ptr<TaskKernel>> kernels;
};

TaskRegistry::TaskRegistry() : impl_(new Impl) {
  auto add = [this](std::unique_ptr<TaskKernel> k) {
    impl_->kernels.emplace(static_cast<int>(k->task()), std::move(k));
  };
  add(std::make_unique<WordCountKernel>());
  add(std::make_unique<SortKernel>());
  add(std::make_unique<InvertedIndexKernel>());
  add(std::make_unique<TermVectorKernel>());
  add(std::make_unique<SequenceCountKernel>());
  add(std::make_unique<RankedInvertedIndexKernel>());
  add(std::make_unique<KeywordSearchKernel>());
  add(std::make_unique<TopKWordsKernel>());
  add(std::make_unique<TfIdfKernel>());
  add(std::make_unique<PhraseSearchKernel>());
}

TaskRegistry& TaskRegistry::Instance() {
  static TaskRegistry* registry = new TaskRegistry();
  return *registry;
}

Status TaskRegistry::Register(std::unique_ptr<TaskKernel> kernel) {
  if (kernel == nullptr) {
    return Status::InvalidArgument("cannot register a null kernel");
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  const int id = static_cast<int>(kernel->task());
  auto it = impl_->kernels.find(id);
  if (it != impl_->kernels.end()) {
    return Status::InvalidArgument(
        std::string("task id already registered: ") + it->second->name());
  }
  impl_->kernels.emplace(id, std::move(kernel));
  return Status::OK();
}

Result<const TaskKernel*> TaskRegistry::Get(Task task) {
  const TaskKernel* kernel = Find(task);
  if (kernel == nullptr) {
    return Status::NotFound("no task kernel registered for task id " +
                            std::to_string(static_cast<int>(task)));
  }
  return kernel;
}

const TaskKernel* TaskRegistry::Find(Task task) {
  TaskRegistry& reg = Instance();
  std::lock_guard<std::mutex> lock(reg.impl_->mu);
  auto it = reg.impl_->kernels.find(static_cast<int>(task));
  return it == reg.impl_->kernels.end() ? nullptr : it->second.get();
}

std::vector<Task> TaskRegistry::RegisteredTasks() {
  TaskRegistry& reg = Instance();
  std::lock_guard<std::mutex> lock(reg.impl_->mu);
  std::vector<Task> tasks;
  tasks.reserve(reg.impl_->kernels.size());
  for (const auto& [id, kernel] : reg.impl_->kernels) {
    (void)kernel;
    tasks.push_back(static_cast<Task>(id));
  }
  return tasks;
}

}  // namespace gtadoc
