#include "format/dag.h"

#include <algorithm>
#include <deque>

namespace gtadoc {

Result<DagView> DagView::Build(const Grammar& g) {
  if (g.rules.empty()) return Status::Corruption("grammar has no rules");
  if (g.rules[0].empty()) return Status::Corruption("root rule is empty");
  const size_t n = g.rules.size();

  DagView v;
  v.child_off_.assign(n + 1, 0);
  v.word_off_.assign(n + 1, 0);
  v.in_edges_nonroot_.assign(n, 0);
  v.root_freq_.assign(n, 0);
  v.depth_.assign(n, 0);
  v.body_size_.assign(n, 0);

  // Aggregate bodies: each rule's child and word ids, sorted and
  // run-length folded straight into the flat arrays.
  std::vector<uint32_t> child_ids;
  std::vector<uint32_t> word_ids;
  for (uint32_t r = 0; r < n; ++r) {
    child_ids.clear();
    word_ids.clear();
    v.body_size_[r] = static_cast<uint32_t>(g.rules[r].size());
    for (uint32_t sym : g.rules[r]) {
      if (g.IsRule(sym)) {
        const uint32_t child = g.RuleIndex(sym);
        if (child >= n) return Status::Corruption("rule id out of range");
        if (child == r) return Status::Corruption("rule references itself");
        child_ids.push_back(child);
      } else if (g.IsWord(sym)) {
        word_ids.push_back(sym);
      } else {
        // Splitters may only appear in the root.
        if (r != 0) return Status::Corruption("splitter outside root rule");
        if (g.SplitterIndex(sym) + 1 >= g.num_files()) {
          return Status::Corruption("splitter index out of range");
        }
      }
    }
    ForEachAggregated(&child_ids, [&v](uint32_t child, uint32_t freq) {
      v.children_.push_back(RuleChildEntry{child, freq});
    });
    ForEachAggregated(&word_ids, [&v](uint32_t word, uint32_t freq) {
      v.words_.push_back(RuleWordEntry{word, freq});
    });
    v.child_off_[r + 1] = static_cast<uint32_t>(v.children_.size());
    v.word_off_[r + 1] = static_cast<uint32_t>(v.words_.size());
  }
  v.children_.shrink_to_fit();
  v.words_.shrink_to_fit();

  // Parents (each child's parents in ascending parent id), in-edge counts,
  // root frequencies.
  v.parent_off_.assign(n + 1, 0);
  for (const RuleChildEntry& e : v.children_) ++v.parent_off_[e.child + 1];
  for (uint32_t r = 0; r < n; ++r) v.parent_off_[r + 1] += v.parent_off_[r];
  v.parents_.resize(v.children_.size());
  std::vector<uint32_t> cursor(v.parent_off_.begin(), v.parent_off_.end() - 1);
  for (uint32_t r = 0; r < n; ++r) {
    for (const RuleChildEntry& e : v.children(r)) {
      v.parents_[cursor[e.child]++] = r;
      if (r != 0) ++v.in_edges_nonroot_[e.child];
      if (r == 0) v.root_freq_[e.child] = e.freq;
    }
  }

  // Kahn topological sort from the root; also computes depths and rejects
  // cycles and rules unreachable from the root.
  std::vector<uint32_t> pending(n, 0);
  for (uint32_t r = 0; r < n; ++r) {
    pending[r] = v.parent_off_[r + 1] - v.parent_off_[r];
  }
  std::deque<uint32_t> ready;
  if (pending[0] != 0) return Status::Corruption("root rule has a parent");
  ready.push_back(0);
  v.topo_order_.reserve(n);
  while (!ready.empty()) {
    const uint32_t r = ready.front();
    ready.pop_front();
    v.topo_order_.push_back(r);
    for (const RuleChildEntry& e : v.children(r)) {
      v.depth_[e.child] = std::max(v.depth_[e.child], v.depth_[r] + 1);
      if (--pending[e.child] == 0) ready.push_back(e.child);
    }
  }
  if (v.topo_order_.size() != n) {
    return Status::Corruption("grammar has a cycle or unreachable rules");
  }
  v.max_depth_ = *std::max_element(v.depth_.begin(), v.depth_.end());
  return v;
}

Result<DagStats> ComputeDagStats(const Grammar& g) {
  auto view = DagView::Build(g);
  if (!view.ok()) return view.status();
  const DagView& v = *view;

  DagStats s;
  s.num_rules = v.num_rules();
  s.vocabulary_size = g.num_words;
  s.num_files = g.num_files();
  s.max_depth = v.max_depth();
  for (uint32_t r = 0; r < v.num_rules(); ++r) {
    s.num_edges += v.children(r).size();
    s.total_body_symbols += v.body_size(r);
  }
  s.avg_body_length = static_cast<double>(s.total_body_symbols) /
                      static_cast<double>(s.num_rules);

  // Expanded token counts per rule, children before parents (reverse topo).
  std::vector<uint64_t> expanded(v.num_rules(), 0);
  const std::vector<uint32_t>& order = v.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint32_t r = *it;
    uint64_t total = 0;
    for (const RuleWordEntry& w : v.words(r)) total += w.freq;
    for (const RuleChildEntry& e : v.children(r)) {
      total += static_cast<uint64_t>(e.freq) * expanded[e.child];
    }
    expanded[r] = total;
  }
  s.expanded_tokens = expanded[0];
  s.reuse_factor = s.total_body_symbols == 0
                       ? 0.0
                       : static_cast<double>(s.expanded_tokens) /
                             static_cast<double>(s.total_body_symbols);
  return s;
}

}  // namespace gtadoc
