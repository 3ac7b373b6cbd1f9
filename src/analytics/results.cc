#include "analytics/results.h"

#include <algorithm>
#include <sstream>

#include "analytics/task_kernel.h"

namespace gtadoc {

// Every per-task branch lives on the task's kernel (analytics/task_kernel.cc);
// these free functions are the registry-backed entry points the rest of the
// system calls, and they work for out-of-tree kernels too.

const char* TaskName(Task task) {
  const TaskKernel* kernel = TaskRegistry::Find(task);
  return kernel == nullptr ? "?" : kernel->name();
}

std::vector<Task> AllTasks() {
  return {Task::kWordCount,     Task::kSort,
          Task::kInvertedIndex, Task::kTermVector,
          Task::kSequenceCount, Task::kRankedInvertedIndex};
}

bool IsSequenceTask(Task task) {
  const TaskKernel* kernel = TaskRegistry::Find(task);
  return kernel != nullptr && kernel->sequence_sensitive();
}

void Canonicalize(AnalyticsResult* result) {
  const TaskKernel* kernel = TaskRegistry::Find(result->task);
  if (kernel != nullptr) kernel->Canonicalize(result);
}

void MergeResult(const AnalyticsResult& doc, uint32_t file_base,
                 AnalyticsResult* acc, uint64_t* merge_ops) {
  const TaskKernel* kernel = TaskRegistry::Find(acc->task);
  if (kernel != nullptr) kernel->Merge(doc, file_base, acc, merge_ops);
}

void FinalizeMergedResult(AnalyticsResult* acc, uint64_t* merge_ops) {
  const TaskKernel* kernel = TaskRegistry::Find(acc->task);
  if (kernel != nullptr) kernel->FinalizeMerge(acc, merge_ops);
}

uint64_t ResultBytes(const AnalyticsResult& r, uint32_t ngram_len) {
  const TaskKernel* kernel = TaskRegistry::Find(r.task);
  return kernel == nullptr ? 0 : kernel->ResultBytes(r, ngram_len);
}

namespace {

/// Index of `gram` among the ascending grams [lo, hi) of `pool` (l words
/// each), or hi when it is absent.
size_t FindGram(const std::vector<uint32_t>& pool, size_t l, size_t lo,
                size_t hi, const std::vector<uint32_t>& gram) {
  const size_t end = hi;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint32_t* g = pool.data() + mid * l;
    if (std::lexicographical_compare(g, g + l, gram.begin(), gram.end())) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < end && std::equal(gram.begin(), gram.end(), pool.data() + lo * l)
             ? lo
             : end;
}

}  // namespace

uint64_t SequenceCountResult::Count(uint32_t file,
                                    const std::vector<uint32_t>& gram) const {
  if (gram.size() != ngram_len) return 0;
  const auto range = std::equal_range(files.begin(), files.end(), file);
  const size_t end = range.second - files.begin();
  const size_t i =
      FindGram(words, ngram_len, range.first - files.begin(), end, gram);
  return i < end ? counts[i] : 0;
}

Span<RankedInvertedIndexResult::Posting> RankedInvertedIndexResult::Postings(
    const std::vector<uint32_t>& gram) const {
  if (gram.size() != ngram_len) return {};
  const size_t g = FindGram(grams, ngram_len, 0, size(), gram);
  return g < size() ? postings_at(g) : Span<Posting>();
}

bool AnalyticsResult::SameAs(const AnalyticsResult& other) const {
  if (task != other.task) return false;
  const TaskKernel* kernel = TaskRegistry::Find(task);
  return kernel != nullptr && kernel->Equal(*this, other);
}

std::string AnalyticsResult::Digest() const {
  uint64_t h = 0;
  size_t entries = 0;
  const TaskKernel* kernel = TaskRegistry::Find(task);
  if (kernel != nullptr) kernel->DigestFold(*this, &h, &entries);
  std::ostringstream os;
  os << TaskName(task) << "{entries=" << entries << ", digest=" << std::hex << h
     << "}";
  return os.str();
}

}  // namespace gtadoc
