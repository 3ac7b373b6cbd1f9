#ifndef GTADOC_ANALYTICS_QUERY_SPEC_H_
#define GTADOC_ANALYTICS_QUERY_SPEC_H_

#include <cstdint>
#include <vector>

#include "analytics/task_kernel.h"
#include "common/status.h"

namespace gtadoc {

/// \brief The per-run query parameters every engine shares.
///
/// One struct, four fields, embedded (by inheritance) into
/// `GTadocEngine::Options`, `CpuTadocOptions`, `UncompressedAnalytics` and
/// `CorpusServer::RunRequest` so "what does a run ask for" is defined in
/// exactly one place. The kernel-facing `TaskInput` is derived from a
/// QuerySpec by `MakeTaskInput` below — also the one place the
/// multi-query flattening rule lives.
///
/// **The replace-whole inheritance rule.** A serving layer resolving a
/// request against configured defaults (`ResolveQueryDefaults`) treats the
/// query as ONE value with two representations: an explicit request query —
/// non-empty `query_words` OR non-empty `query_sets` — replaces the default
/// query WHOLE, i.e. both fields together. The fields must never be
/// inherited independently, because every engine prefers `query_sets`
/// whenever it is non-empty: inheriting a default `query_sets` next to a
/// request's explicit `query_words` would silently shadow the request.
/// The scalar fields (`top_k`, `ngram_len`) inherit independently, with 0
/// meaning "use the default".
struct QuerySpec {
  /// Query word ids for selective kernels (kKeywordSearch), or the ordered
  /// phrase of kPhraseSearch.
  std::vector<uint32_t> query_words;
  /// Multi-query sets: one relevance/traversal pass serves every set, with
  /// per-set results in AnalyticsResult::keyword_multi. When non-empty it
  /// supersedes query_words (the run's accept set is the union of all
  /// sets).
  std::vector<std::vector<uint32_t>> query_sets;
  /// k of bounded-selection kernels (kTopKWords).
  uint32_t top_k = 10;
  /// l of the sequence tasks (paper default: 3-word sequences).
  uint32_t ngram_len = 3;

  /// True when this spec carries an explicit query (either representation).
  bool has_query() const { return !query_words.empty() || !query_sets.empty(); }
};

/// The kernel-facing input a run with this spec receives: `query_sets`
/// flattened into the effective accept set (`query_words` = the union of
/// all sets whenever sets are present). Every engine's MakeInput delegates
/// here, so serving layers evaluating kernels against `MakeTaskInput(spec)`
/// see precisely the input execution would use, with no risk of drift.
inline TaskInput MakeTaskInput(const QuerySpec& spec) {
  TaskInput input;
  input.ngram_len = spec.ngram_len;
  input.top_k = spec.top_k;
  input.query_sets = spec.query_sets;
  if (!input.query_sets.empty()) {
    // One accept set serves every query: the flattened union.
    for (const auto& set : input.query_sets) {
      input.query_words.insert(input.query_words.end(), set.begin(),
                               set.end());
    }
  } else {
    input.query_words = spec.query_words;
  }
  return input;
}

/// The one validity check of a resolved spec, applied by both engines'
/// Create and by the serving Submit probe on either backend: an n-gram
/// needs at least two words.
inline Status ValidateQuerySpec(const QuerySpec& spec) {
  if (spec.ngram_len < 2) {
    return Status::InvalidArgument("ngram_len must be >= 2");
  }
  return Status::OK();
}

/// Resolves a request spec against configured defaults, applying the
/// replace-whole rule documented on QuerySpec: an explicit request query
/// replaces the default query as a whole (both fields); an empty request
/// query inherits BOTH default fields; `top_k`/`ngram_len` inherit
/// independently when 0.
inline QuerySpec ResolveQueryDefaults(const QuerySpec& request,
                                      const QuerySpec& defaults) {
  QuerySpec resolved = defaults;
  if (request.has_query()) {
    resolved.query_words = request.query_words;
    resolved.query_sets = request.query_sets;
  }
  if (request.top_k != 0) resolved.top_k = request.top_k;
  if (request.ngram_len != 0) resolved.ngram_len = request.ngram_len;
  return resolved;
}

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_QUERY_SPEC_H_
