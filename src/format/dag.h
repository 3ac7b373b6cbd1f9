#ifndef GTADOC_FORMAT_DAG_H_
#define GTADOC_FORMAT_DAG_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "format/grammar.h"

namespace gtadoc {

/// One aggregated rule->subrule edge: `child` occurs `freq` times in the
/// parent's body (Algorithm 1's `subRuleId, subRuleFreq` pairs).
struct RuleChildEntry {
  uint32_t child;  // rule index
  uint32_t freq;
};

/// One aggregated local word: word terminal `word` occurs `freq` times
/// directly in the rule body (splitters excluded).
struct RuleWordEntry {
  uint32_t word;
  uint32_t freq;
};

/// Sorts `ids` and calls `emit(id, multiplicity)` once per distinct id, in
/// ascending id order: the aggregation DagView applies to each rule body.
template <typename Emit>
void ForEachAggregated(std::vector<uint32_t>* ids, Emit&& emit) {
  std::sort(ids->begin(), ids->end());
  for (size_t i = 0; i < ids->size();) {
    size_t j = i + 1;
    while (j < ids->size() && (*ids)[j] == (*ids)[i]) ++j;
    emit((*ids)[i], static_cast<uint32_t>(j - i));
    i = j;
  }
}

/// \brief DAG interpretation of a grammar (Figure 1(e)).
///
/// Precomputes everything both engines traverse: aggregated child edges with
/// multiplicities, aggregated local words, distinct parent lists, in-edge
/// counts excluding the root (Algorithm 1 seeds traversal from rules whose
/// only parent is the root), topological order and per-rule depth.
///
/// Storage is CSR: one flat array per entry kind plus per-rule offsets, so a
/// view costs a handful of allocations however many rules it holds. Entry
/// order is fixed: children by rule id, words by word id, parents in
/// ascending parent id (the order edges are discovered scanning rules 0..n).
class DagView {
 public:
  /// Validates the grammar (id ranges, acyclicity, non-empty root) and
  /// builds the view. Returns Corruption for malformed grammars.
  static Result<DagView> Build(const Grammar& g);

  size_t num_rules() const { return in_edges_nonroot_.size(); }

  Span<RuleChildEntry> children(uint32_t r) const {
    return Row(children_, child_off_, r);
  }
  Span<RuleWordEntry> words(uint32_t r) const {
    return Row(words_, word_off_, r);
  }
  /// Distinct parent rule indices (the root appears as parent index 0).
  Span<uint32_t> parents(uint32_t r) const {
    return Row(parents_, parent_off_, r);
  }

  /// Number of distinct parents other than the root (Algorithm 1's
  /// rule.numInEdge; rules with zero start the top-down traversal).
  uint32_t num_in_edges_nonroot(uint32_t r) const {
    return in_edges_nonroot_[r];
  }
  /// Number of distinct child rules (bottom-up readiness threshold).
  uint32_t num_out_edges(uint32_t r) const {
    return child_off_[r + 1] - child_off_[r];
  }
  /// How many times rule `r` appears directly in the root body.
  uint32_t root_freq(uint32_t r) const { return root_freq_[r]; }

  /// Longest path length from the root (root depth = 0).
  uint32_t depth(uint32_t r) const { return depth_[r]; }
  uint32_t max_depth() const { return max_depth_; }

  /// Rule indices ordered so parents precede children.
  const std::vector<uint32_t>& topo_order() const { return topo_order_; }

  /// Number of symbols in rule r's body (workload for the scheduler).
  uint32_t body_size(uint32_t r) const { return body_size_[r]; }

 private:
  template <typename T>
  static Span<T> Row(const std::vector<T>& flat,
                        const std::vector<uint32_t>& off, uint32_t r) {
    return Span<T>(flat.data() + off[r], off[r + 1] - off[r]);
  }

  // CSR: row r of each kind is [off[r], off[r + 1]) of its flat array.
  std::vector<uint32_t> child_off_;
  std::vector<RuleChildEntry> children_;
  std::vector<uint32_t> word_off_;
  std::vector<RuleWordEntry> words_;
  std::vector<uint32_t> parent_off_;
  std::vector<uint32_t> parents_;
  std::vector<uint32_t> in_edges_nonroot_;
  std::vector<uint32_t> root_freq_;
  std::vector<uint32_t> depth_;
  std::vector<uint32_t> topo_order_;
  std::vector<uint32_t> body_size_;
  uint32_t max_depth_ = 0;
};

/// Summary statistics of a compressed grammar (Table II plus DAG shape).
struct DagStats {
  uint64_t num_rules = 0;
  uint64_t num_edges = 0;           // aggregated rule->rule edges
  uint64_t total_body_symbols = 0;  // compressed size in symbols
  uint64_t vocabulary_size = 0;
  uint64_t num_files = 0;
  uint32_t max_depth = 0;
  double avg_body_length = 0.0;
  uint64_t expanded_tokens = 0;  // total tokens when fully expanded
  /// expanded_tokens / total_body_symbols: how much the grammar reuses.
  double reuse_factor = 0.0;
};

/// Computes statistics; requires a valid grammar (uses DagView internally).
Result<DagStats> ComputeDagStats(const Grammar& g);

}  // namespace gtadoc

#endif  // GTADOC_FORMAT_DAG_H_
