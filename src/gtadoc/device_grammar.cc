#include "gtadoc/device_grammar.h"

#include <algorithm>

#include "gpu/primitives.h"

namespace gtadoc {

namespace {

/// Root positions per thread of the indicator and assignment launches.
constexpr size_t kRootBlock = 256;

/// The packed arena's size for a grammar of `rules` rules, `body` body
/// symbols, `edges` aggregated edges (parents are the same pairs, so they
/// count again), `words` aggregated local words and a root of `root`
/// symbols.
size_t ArenaBytes(uint64_t rules, uint64_t body, uint64_t edges,
                  uint64_t words, uint64_t root) {
  // body_off is uint64; body_sym and the rest are uint32: three offset
  // arrays (rules + 1 each), three per-rule topology arrays, child id/freq,
  // parent id and the unused per-edge word (see DeviceBytes), word
  // id/freq, root_file_of_pos.
  const uint64_t u32 = 6 * rules + 3 + 4 * edges + 2 * words + root;
  return static_cast<size_t>((rules + 1) * sizeof(uint64_t) +
                             (body + u32) * sizeof(uint32_t));
}

}  // namespace

bool GrammarArena::Fit(const DeviceGrammar& g) {
  bool grown = false;
  auto fit = [&grown](uint64_t* extent, uint64_t need) {
    if (need > *extent) {
      grown = true;
      *extent = need;
    }
  };
  fit(&rules, g.num_rules);
  fit(&body, g.body_sym.size());
  fit(&edges, g.child_id.size());
  fit(&words, g.word_id.size());
  fit(&root, g.root_file_of_pos.size());
  return grown;
}

size_t DeviceGrammar::DeviceBytes() const {
  return ArenaBytes(num_rules, body_sym.size(), child_id.size(),
                    word_id.size(), root_file_of_pos.size());
}

size_t DeviceGrammar::BytesFor(const Grammar& g) {
  // Distinct child rules and distinct words per rule body: DagView's
  // aggregation, counted without building the view.
  uint64_t body = 0, edges = 0, words = 0;
  std::vector<uint32_t> syms;
  for (const std::vector<uint32_t>& rule : g.rules) {
    body += rule.size();
    syms.clear();
    for (uint32_t sym : rule) {
      if (!g.IsSplitter(sym)) syms.push_back(sym);
    }
    ForEachAggregated(&syms, [&](uint32_t sym, uint32_t) {
      ++(g.IsWord(sym) ? words : edges);
    });
  }
  const uint64_t root = g.rules.empty() ? 0 : g.rules[0].size();
  return ArenaBytes(g.rules.size(), body, edges, words, root);
}

DeviceGrammar DeviceGrammar::Build(const Grammar& g, const DagView& dag) {
  DeviceGrammar d;
  const uint32_t n = static_cast<uint32_t>(dag.num_rules());
  d.num_rules = n;
  d.num_words = g.num_words;
  d.num_files = g.num_files();

  d.body_off.assign(n + 1, 0);
  for (uint32_t r = 0; r < n; ++r) {
    d.body_off[r + 1] = d.body_off[r] + g.rules[r].size();
  }
  d.body_sym.reserve(d.body_off[n]);
  for (uint32_t r = 0; r < n; ++r) {
    d.body_sym.insert(d.body_sym.end(), g.rules[r].begin(), g.rules[r].end());
  }

  d.child_off.assign(n + 1, 0);
  d.word_off.assign(n + 1, 0);
  d.parent_off.assign(n + 1, 0);
  for (uint32_t r = 0; r < n; ++r) {
    d.child_off[r + 1] = d.child_off[r] +
                         static_cast<uint32_t>(dag.children(r).size());
    d.word_off[r + 1] =
        d.word_off[r] + static_cast<uint32_t>(dag.words(r).size());
    d.parent_off[r + 1] =
        d.parent_off[r] + static_cast<uint32_t>(dag.parents(r).size());
  }
  d.child_id.reserve(d.child_off[n]);
  d.child_freq.reserve(d.child_off[n]);
  d.word_id.reserve(d.word_off[n]);
  d.word_freq.reserve(d.word_off[n]);
  d.parent_id.reserve(d.parent_off[n]);
  d.in_edges_nonroot.resize(n);
  d.num_children.resize(n);
  d.root_freq.resize(n);
  for (uint32_t r = 0; r < n; ++r) {
    for (const RuleChildEntry& e : dag.children(r)) {
      d.child_id.push_back(e.child);
      d.child_freq.push_back(e.freq);
    }
    for (const RuleWordEntry& w : dag.words(r)) {
      d.word_id.push_back(w.word);
      d.word_freq.push_back(w.freq);
    }
    for (uint32_t p : dag.parents(r)) d.parent_id.push_back(p);
    d.in_edges_nonroot[r] = dag.num_in_edges_nonroot(r);
    d.num_children[r] = dag.num_out_edges(r);
    d.root_freq[r] = dag.root_freq(r);
  }

  // The root scan's output: a splitter ends its file, so every position
  // belongs to the file numbered by the splitters at or before it.
  const std::vector<uint32_t>& root = g.rules[0];
  d.root_file_of_pos.resize(root.size());
  uint32_t file = 0;
  for (size_t i = 0; i < root.size(); ++i) {
    if (g.IsSplitter(root[i])) ++file;
    d.root_file_of_pos[i] = file;
  }
  return d;
}

void DeviceGrammar::Load(gpu::Device* device, bool charge_pcie,
                         GrammarArena* arena) const {
  // The CSR arrays live in one packed device arena (DeviceBytes() is its
  // size): one allocation call, unless a recycled arena already fits.
  if (arena == nullptr || arena->Fit(*this)) device->ChargeDeviceAlloc(1);

  // Ship the compressed representation across PCIe (large datasets only; the
  // paper keeps resident datasets on-device).
  if (charge_pcie) device->CopyHostToDevice(UploadBytes());

  // Root scan (on-device): file ids are an inclusive prefix sum of the
  // splitter indicator — the indicator kernel, the device exclusive scan
  // and the assignment kernel, the two kernels one thread per kRootBlock
  // root positions charging one op per position. Build already holds the
  // result, so the launches only charge.
  const size_t n = root_file_of_pos.size();
  const uint32_t blocks =
      static_cast<uint32_t>((n + kRootBlock - 1) / kRootBlock);
  const auto per_position = [n](gpu::ThreadCtx& ctx) {
    const size_t lo = static_cast<size_t>(ctx.tid()) * kRootBlock;
    ctx.Charge(std::min(n, lo + kRootBlock) - lo);
  };
  device->Launch("rootSplitterIndicator", blocks, per_position);
  gpu::ChargeExclusiveScan(device, n);
  device->Launch("rootFileAssign", blocks, per_position);
}

}  // namespace gtadoc
