#ifndef GTADOC_ANALYTICS_DOCUMENT_INDEX_H_
#define GTADOC_ANALYTICS_DOCUMENT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "format/dag.h"
#include "format/grammar.h"
#include "gtadoc/device_grammar.h"

namespace gtadoc {

/// \brief Everything the engines derive from a document's grammar alone:
/// the validated DAG view (Figure 1(e)), the device grammar's CSR arrays,
/// the per-rule subtree Bloom filters and the grammar fingerprint plans are
/// keyed by.
///
/// Immutable once built. TADOC and G-TADOC prepare the rule DAG once when a
/// document is loaded and then run many analytics over it; engines borrow a
/// shared DocumentIndex instead of rebuilding it per run, and GPU engines
/// bind to its device grammar by reference.
struct DocumentIndex {
  DagView dag;
  /// The arrays a GPU engine traverses, root file ids included. Putting
  /// them on a device is DeviceGrammar::Load's charged step.
  DeviceGrammar device_grammar;
  /// Per-rule 64-bit Bloom filters over each rule's *subtree* vocabulary
  /// (children before parents). A word absent from rule r's filter is
  /// provably absent from its whole expansion, so selective relevance is one
  /// flat probe per rule (the planner's planBloomRelevance pass).
  /// rule_blooms[0] covers the whole document and equals DocumentBloom(g).
  std::vector<uint64_t> rule_blooms;
  uint64_t fingerprint = 0;

  /// The one builder every engine path goes through. Returns Corruption for
  /// grammars DagView rejects.
  static Result<std::shared_ptr<const DocumentIndex>> Build(const Grammar& g);
};

/// \brief The DocumentIndexes of a corpus, built lazily and at most once
/// per document for the CorpusIndex's lifetime, keyed by document id.
///
/// A document is built on its first Get, under a per-document once_flag, so
/// concurrent first uses (host workers, devices) wait on one build.
/// Documents nobody asks for — root-Bloom skipped ones — are never built. A
/// failed build is kept with its Status: every later Get of that document
/// fails the same way without retrying, and other documents are unaffected.
class CorpusIndex {
 public:
  /// `documents` must outlive the index.
  explicit CorpusIndex(const std::vector<Grammar>* documents);
  CorpusIndex(const CorpusIndex&) = delete;
  CorpusIndex& operator=(const CorpusIndex&) = delete;

  size_t size() const { return documents_->size(); }

  /// Document `doc`'s index, building it on first use. Thread-safe.
  Result<std::shared_ptr<const DocumentIndex>> Get(uint32_t doc) const;

  /// Builds of document `doc` so far (0 before its first Get, then 1).
  uint32_t builds(uint32_t doc) const;
  /// Builds over all documents.
  uint64_t builds() const;

 private:
  struct Entry {
    std::once_flag once;
    std::atomic<uint32_t> builds{0};
    Status status;
    std::shared_ptr<const DocumentIndex> index;
  };

  const std::vector<Grammar>* documents_;
  std::unique_ptr<Entry[]> entries_;
};

}  // namespace gtadoc

#endif  // GTADOC_ANALYTICS_DOCUMENT_INDEX_H_
