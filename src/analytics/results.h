#ifndef GTADOC_ANALYTICS_RESULTS_H_
#define GTADOC_ANALYTICS_RESULTS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/span.h"

namespace gtadoc {

/// The analytics tasks: the six of TADOC/CompressDirect (Section V of the
/// paper; semantics follow the Puma benchmark suite the TADOC line evaluates)
/// plus keyword search, the first task added through the TaskKernel registry.
/// Out-of-tree kernels may register further ids beyond the named ones (see
/// analytics/task_kernel.h).
enum class Task : int {
  kWordCount = 0,
  kSort = 1,
  kInvertedIndex = 2,
  kTermVector = 3,
  kSequenceCount = 4,
  kRankedInvertedIndex = 5,
  kKeywordSearch = 6,
  kTopKWords = 7,
  kTfIdf = 8,
  kPhraseSearch = 9,
};

/// Kernel name for a registered task, "?" otherwise (display helper; the
/// authoritative name lives on the kernel).
const char* TaskName(Task task);
/// The paper's six tasks in the paper's order (benchmark drivers iterate
/// these; TaskRegistry::RegisteredTasks() lists every registered task).
std::vector<Task> AllTasks();
/// True for tasks that need the head/tail sequence machinery (delegates to
/// the kernel's traversal shape).
bool IsSequenceTask(Task task);

/// word id -> total frequency across all files.
using WordCountResult = std::map<uint32_t, uint64_t>;

/// (word id, frequency) ordered by frequency desc, then word id asc.
using SortResult = std::vector<std::pair<uint32_t, uint64_t>>;

/// word id -> sorted list of file ids containing it.
using InvertedIndexResult = std::map<uint32_t, std::vector<uint32_t>>;

/// Per file: (word id, frequency) ordered by frequency desc, word id asc.
using TermVectorResult =
    std::vector<std::vector<std::pair<uint32_t, uint64_t>>>;

/// (file id, l-gram) -> count as parallel arrays sorted by (file, gram),
/// one entry per distinct key. Entry i is file `files[i]`, gram `gram(i)`
/// (the word ids `words[i * ngram_len, (i + 1) * ngram_len)`) and count
/// `counts[i]`.
struct SequenceCountResult {
  uint32_t ngram_len = 0;  ///< l; implied by the arrays when non-empty
  std::vector<uint32_t> files;
  std::vector<uint32_t> words;
  std::vector<uint64_t> counts;

  size_t size() const { return counts.size(); }
  bool empty() const { return counts.empty(); }
  Span<uint32_t> gram(size_t i) const {
    return Span<uint32_t>(words.data() + i * ngram_len, ngram_len);
  }
  /// The count of (file, gram); 0 when absent.
  uint64_t Count(uint32_t file, const std::vector<uint32_t>& gram) const;

  /// Equal entries (ngram_len is implied by the arrays).
  bool operator==(const SequenceCountResult& o) const {
    return files == o.files && words == o.words && counts == o.counts;
  }
};

/// l-gram -> postings (file id, count), grams ascending. CSR: gram g is the
/// word ids `grams[g * ngram_len, (g + 1) * ngram_len)` and its postings are
/// `postings[offsets[g], offsets[g + 1])`, ordered by count desc, file id
/// asc. `offsets` is empty when there are no grams and holds size() + 1
/// entries starting with 0 otherwise.
struct RankedInvertedIndexResult {
  using Posting = std::pair<uint32_t, uint64_t>;

  uint32_t ngram_len = 0;  ///< l; implied by the arrays when non-empty
  std::vector<uint32_t> grams;
  std::vector<uint64_t> offsets;
  std::vector<Posting> postings;

  /// Number of distinct grams.
  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  bool empty() const { return size() == 0; }
  Span<uint32_t> gram(size_t g) const {
    return Span<uint32_t>(grams.data() + g * ngram_len, ngram_len);
  }
  Span<Posting> postings_at(size_t g) const {
    return Span<Posting>(postings.data() + offsets[g],
                         offsets[g + 1] - offsets[g]);
  }
  /// The postings of `gram`; empty when absent.
  Span<Posting> Postings(const std::vector<uint32_t>& gram) const;

  /// Equal grams and postings (ngram_len is implied by the arrays).
  bool operator==(const RankedInvertedIndexResult& o) const {
    return grams == o.grams && offsets == o.offsets && postings == o.postings;
  }
};

/// (file id, total query-word hits) for every file containing at least one
/// query word, ordered by file id asc.
using KeywordSearchResult = std::vector<std::pair<uint32_t, uint64_t>>;

/// (file id, phrase occurrence count) for every file containing the phrase
/// at least once, ordered by file id asc (kPhraseSearch).
using PhraseSearchResult = std::vector<std::pair<uint32_t, uint64_t>>;

/// Per file: the k most frequent words as (word id, frequency), ordered by
/// frequency desc then word id asc (k from the engines' top_k option).
using TopKWordsResult = std::vector<std::vector<std::pair<uint32_t, uint64_t>>>;

/// One scored term of a file's tf-idf vector. The score is
/// tf * log2(num_files / df) in 1/1024 fixed-point units, computed with pure
/// integer math so every engine produces bit-identical vectors.
struct TfIdfEntry {
  uint32_t word = 0;
  uint64_t tf = 0;     ///< term frequency in the file
  uint64_t score = 0;  ///< scaled tf-idf

  bool operator==(const TfIdfEntry& o) const {
    return word == o.word && tf == o.tf && score == o.score;
  }
};

/// Per file: tf-idf entries ordered by score desc then word id asc. Entries
/// with idf 0 (words present in every file) are kept with score 0 so merges
/// can recompute document frequencies exactly.
using TfIdfResult = std::vector<std::vector<TfIdfEntry>>;

/// \brief Union holder for one task's output, so engines can expose a single
/// `Run(task)` entry point. Only the member matching `task` is populated.
struct AnalyticsResult {
  Task task = Task::kWordCount;
  WordCountResult word_count;
  SortResult sort;
  InvertedIndexResult inverted_index;
  TermVectorResult term_vector;
  SequenceCountResult sequence_count;
  RankedInvertedIndexResult ranked_inverted_index;
  KeywordSearchResult keyword_search;
  TopKWordsResult top_k_words;
  TfIdfResult tf_idf;
  PhraseSearchResult phrase_search;
  /// Per-query-set results of a multi-query run (Options::query_sets):
  /// keyword_multi[i] is query set i's result, bit-identical to a
  /// single-query run of that set. Populated by kKeywordSearch (hits per
  /// file) and kPhraseSearch (phrase counts per file); empty otherwise.
  std::vector<KeywordSearchResult> keyword_multi;

  /// Structural equality on the member selected by `task`.
  bool SameAs(const AnalyticsResult& other) const;
  /// Small human-readable digest (sizes and a checksum) for logging.
  std::string Digest() const;
};

/// Canonicalizes orderings that the task definitions leave ambiguous (ties in
/// sort/termVector are broken by word id; file lists sorted).
void Canonicalize(AnalyticsResult* result);

/// \brief Folds one document's (or partition's) result into a corpus-level
/// accumulator, shared by the coarse-grained CPU baseline and the GPU batch
/// engine so both merge identically.
///
/// The document's local file ids are offset by `file_base` (its first global
/// file id); word-keyed tables sum, file-keyed tables concatenate. Documents
/// must share one word-id space (a common dictionary). For wordCount *and*
/// sort the counts accumulate into `acc->word_count`; FinalizeMergedResult
/// rebuilds the derived orderings afterwards. Merge work is counted into
/// `merge_ops` with the engines' charge discipline (one op per moved entry).
void MergeResult(const AnalyticsResult& doc, uint32_t file_base,
                 AnalyticsResult* acc, uint64_t* merge_ops);

/// Completes an accumulator built by MergeResult: materializes sort from the
/// accumulated word counts, re-sorts rankedInvertedIndex file lists, and
/// canonicalizes.
void FinalizeMergedResult(AnalyticsResult* acc, uint64_t* merge_ops);

/// Serialized size estimate of a result in bytes — the D2H drain volume of a
/// GPU run and the shuffle volume of the distributed baseline.
uint64_t ResultBytes(const AnalyticsResult& r, uint32_t ngram_len);

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_RESULTS_H_
