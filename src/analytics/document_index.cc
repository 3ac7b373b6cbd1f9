#include "analytics/document_index.h"

#include <string>

#include "analytics/run_plan.h"

namespace gtadoc {

Result<std::shared_ptr<const DocumentIndex>> DocumentIndex::Build(
    const Grammar& g) {
  auto dag = DagView::Build(g);
  if (!dag.ok()) return dag.status();
  auto index = std::make_shared<DocumentIndex>();
  index->dag = std::move(*dag);
  const DagView& v = index->dag;
  std::vector<uint64_t>& blooms = index->rule_blooms;
  blooms.assign(v.num_rules(), 0);
  const std::vector<uint32_t>& order = v.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint32_t r = *it;
    uint64_t bloom = 0;
    for (const RuleWordEntry& w : v.words(r)) bloom |= WordBloomMask(w.word);
    for (const RuleChildEntry& e : v.children(r)) bloom |= blooms[e.child];
    blooms[r] = bloom;
  }
  index->device_grammar = DeviceGrammar::Build(g, v);
  index->fingerprint = GrammarFingerprint(g);
  return std::shared_ptr<const DocumentIndex>(std::move(index));
}

CorpusIndex::CorpusIndex(const std::vector<Grammar>* documents)
    : documents_(documents), entries_(new Entry[documents->size()]) {}

Result<std::shared_ptr<const DocumentIndex>> CorpusIndex::Get(
    uint32_t doc) const {
  if (doc >= size()) {
    return Status::InvalidArgument("document " + std::to_string(doc) +
                                   " is outside the indexed corpus");
  }
  Entry& entry = entries_[doc];
  std::call_once(entry.once, [&] {
    auto built = DocumentIndex::Build((*documents_)[doc]);
    if (built.ok()) {
      entry.index = std::move(*built);
    } else {
      entry.status = built.status();
    }
    entry.builds.fetch_add(1, std::memory_order_release);
  });
  if (entry.index == nullptr) return entry.status;
  return entry.index;
}

uint32_t CorpusIndex::builds(uint32_t doc) const {
  if (doc >= size()) return 0;
  return entries_[doc].builds.load(std::memory_order_acquire);
}

uint64_t CorpusIndex::builds() const {
  uint64_t total = 0;
  for (size_t d = 0; d < size(); ++d) {
    total += entries_[d].builds.load(std::memory_order_acquire);
  }
  return total;
}

}  // namespace gtadoc
