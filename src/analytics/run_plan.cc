#include "analytics/run_plan.h"

#include <algorithm>

#include "analytics/document_index.h"
#include "common/hash.h"

namespace gtadoc {

namespace {

/// Lays one region group out after `cursor`, aligning each offset up to
/// `align` slots — the same exclusive-scan discipline as
/// gpu::MemoryPool::PlanRegions, resolved once at plan time so executors
/// never re-plan.
void ResolveGroup(std::vector<uint64_t> sizes, uint64_t align,
                  uint64_t* cursor, RegionGroup* out) {
  out->offsets.assign(sizes.size(), 0);
  uint64_t c = *cursor;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (align > 1) c = (c + align - 1) / align * align;
    out->offsets[i] = c;
    c += sizes[i];
  }
  out->sizes = std::move(sizes);
  *cursor = c;
}

uint64_t HashU32Vector(uint64_t seed, const std::vector<uint32_t>& v) {
  seed = HashCombine(seed, v.size());
  for (uint32_t x : v) seed = HashCombine(seed, x);
  return seed;
}

}  // namespace

uint64_t GrammarFingerprint(const Grammar& g) {
  uint64_t h = HashCombine(HashCombine(0x47544443ull, g.num_words),
                           g.num_splitters);
  h = HashCombine(h, g.rules.size());
  for (const auto& body : g.rules) {
    h = HashCombine(h, body.size());
    if (!body.empty()) {
      h = HashCombine(h, Fnv1a64(body.data(), body.size() * sizeof(uint32_t)));
    }
  }
  return h;
}

uint64_t PlanShape::Fingerprint() const {
  uint64_t h = HashCombine(0x706c616eull, input.ngram_len);
  h = HashCombine(h, input.top_k);
  h = HashCombine(h, static_cast<uint64_t>(scheduling));
  h = HashCombine(h, static_cast<uint64_t>(lock_mode));
  h = HashCombine(h, split_threshold);
  h = HashU32Vector(h, input.query_words);
  h = HashCombine(h, input.query_sets.size());
  for (const auto& set : input.query_sets) h = HashU32Vector(h, set);
  return h;
}

size_t PlanKeyHash::operator()(const PlanKey& k) const {
  uint64_t h = HashCombine(k.grammar_fp, static_cast<uint64_t>(k.task));
  h = HashCombine(h, static_cast<uint64_t>(k.backend));
  h = HashCombine(h, static_cast<uint64_t>(k.strategy_override));
  return static_cast<size_t>(HashCombine(h, k.shape_fp));
}

uint64_t RegionGroupEnd(const RegionGroup& group) {
  if (group.sizes.empty()) return 0;
  return group.offsets.back() + group.sizes.back();
}

bool PlanEquals(const RunPlan& a, const RunPlan& b) {
  return a.key == b.key && a.task == b.task && a.strategy == b.strategy &&
         a.window == b.window && a.filter == b.filter &&
         a.relevant == b.relevant && a.bound == b.bound &&
         a.exp_len == b.exp_len && a.state == b.state && a.aux == b.aux &&
         a.assembly_offset == b.assembly_offset &&
         a.assembly_slots == b.assembly_slots &&
         a.total_slots == b.total_slots && a.expected_keys == b.expected_keys &&
         a.profile == b.profile && a.estimate == b.estimate;
}

uint64_t PlannedTableNodes(uint64_t structural_bound, uint64_t expected_keys) {
  uint64_t nodes = structural_bound;
  if (expected_keys > 0) nodes = std::min(nodes, expected_keys);
  return std::min<uint64_t>(nodes + 64, 1ull << 28);
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

std::shared_ptr<const RunPlan> PlanCache::Get(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

std::shared_ptr<const RunPlan> PlanCache::Peek(const PlanKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  return it == plans_.end() ? nullptr : it->second;
}

void PlanCache::Put(std::shared_ptr<const RunPlan> plan) {
  if (plan == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (plans_.emplace(plan->key, plan).second) {
    order_.push_back(plan->key);
    while (plans_.size() > capacity_ && !order_.empty()) {
      plans_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
    }
  }
}

uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const RunPlan>> Planner::BuildPlan(
    const TaskKernel& kernel, const Grammar& g, const DocumentIndex& index,
    const PlanShape& shape, const PlanKey& key) {
  const DagView& dag = index.dag;
  auto plan = std::make_shared<RunPlan>();
  const TaskInput& input = shape.input;
  plan->key = key;
  plan->task = kernel.task();
  plan->window = kernel.SequenceWindow(input);

  // The strategy decision (the kernel's hint unless overridden).
  const auto strategy_override =
      static_cast<TraversalStrategy>(key.strategy_override);
  plan->strategy = strategy_override != TraversalStrategy::kAuto
                       ? strategy_override
                       : kernel.PreferredStrategy(g, dag, input);

  const uint32_t n = static_cast<uint32_t>(dag.num_rules());
  plan->filter = WordFilter(kernel, input, g.num_words);

  StateDims raw;
  raw.num_rules = n;
  raw.num_files = g.num_files();
  raw.num_words = g.num_words;
  raw.ngram_len = plan->window;
  raw.top_k = input.top_k;
  plan->dims = raw;
  if (plan->filter.selective()) {
    plan->dims.num_words = plan->filter.accepted_count();
  }
  plan->expected_keys = kernel.ExpectedDistinctKeys(raw, input);

  const bool bottom_up = plan->strategy == TraversalStrategy::kBottomUp;
  const StateLayout& layout = kernel.Layout(
      bottom_up ? TraversalStrategy::kBottomUp : TraversalStrategy::kTopDown);
  const uint64_t vocab_clamp = plan->filter.selective()
                                   ? plan->filter.accepted_count()
                                   : g.num_words;

  std::vector<uint64_t> state_sizes;
  std::vector<uint64_t> aux_sizes;
  uint64_t aux_align = 1;

  switch (kernel.shape()) {
    case TraversalShape::kGlobalWeight:
      if (shape.vertical_partition) break;  // strawman carries no state
      if (bottom_up) {
        plan->bound = BoundsTraversal(plan->filter, vocab_clamp);
        state_sizes.assign(n, 0);
        for (uint32_t r = 1; r < n; ++r) {
          state_sizes[r] = layout.SlotsForBound(plan->dims, plan->bound[r]);
        }
      } else {
        state_sizes.assign(n, layout.SlotsForBound(plan->dims, 1));
      }
      break;

    case TraversalShape::kPerFileWeight:
      if (bottom_up) {
        plan->bound = BoundsTraversal(plan->filter, vocab_clamp);
        state_sizes.assign(n, 0);
        for (uint32_t r = 1; r < n; ++r) {
          state_sizes[r] = layout.SlotsForBound(plan->dims, plan->bound[r]);
        }
      } else {
        // Per-rule relevance: one flat probe of each rule's subtree Bloom
        // against every accepted word's mask.
        if (plan->filter.selective()) {
          const std::vector<uint32_t>* accepted = kernel.AcceptedWords(input);
          std::vector<uint64_t> masks;
          if (accepted != nullptr) {
            masks.reserve(accepted->size());
            for (uint32_t w : *accepted) masks.push_back(WordBloomMask(w));
          }
          ChargeFlat("planBloomRelevance", n, std::max<uint64_t>(
                                                  1, masks.size()));
          plan->relevant.assign(n, 0);
          for (uint32_t r = 0; r < n; ++r) {
            for (uint64_t m : masks) {
              if ((index.rule_blooms[r] & m) == m) {
                plan->relevant[r] = 1;
                break;
              }
            }
          }
        } else {
          plan->relevant.assign(n, 1);
        }
        state_sizes.assign(n, 0);
        for (uint32_t r = 1; r < n; ++r) {
          if (plan->relevant[r] != 0) {
            state_sizes[r] =
                layout.SlotsForBound(plan->dims, plan->dims.num_files);
          }
        }
      }
      break;

    case TraversalShape::kSequence: {
      plan->exp_len = ExpansionPass();
      const StateLayout& ht = kernel.Layout(TraversalStrategy::kTopDown);
      state_sizes.assign(
          n, ht.SlotsForBound(plan->dims, plan->window - 1));
      // Per-file rule weights (phase 2a of the pipeline) live in
      // DensePerFileLayout regions planned alongside the head/tail buffers.
      const StateLayout& fw = DensePerFileLayout();
      aux_align = fw.AlignSlots();
      aux_sizes.assign(n, 0);
      for (uint32_t r = 1; r < n; ++r) {
        aux_sizes[r] = fw.SlotsForBound(plan->dims, plan->dims.num_files);
      }
      break;
    }
  }

  uint64_t cursor = 0;
  if (!state_sizes.empty()) {
    ResolveGroup(std::move(state_sizes), layout.AlignSlots(), &cursor,
                 &plan->state);
  }
  if (!aux_sizes.empty()) {
    ResolveGroup(std::move(aux_sizes), aux_align, &cursor, &plan->aux);
  }
  plan->assembly_slots = kernel.AssemblyStateSlots(plan->dims, input);
  plan->assembly_offset = cursor;
  cursor += plan->assembly_slots;
  plan->total_slots = cursor + 1;

  // Backend-neutral work profile, priced below by the owning planner.
  // Host-side and O(compressed size) — the same order as the grammar
  // fingerprint the caller already computed.
  PlanWorkProfile& prof = plan->profile;
  prof.num_rules = n;
  prof.window = plan->window;
  prof.state_slots = plan->total_slots;
  uint64_t body_symbols = 0;
  for (uint32_t r = 0; r < n; ++r) body_symbols += dag.body_size(r);
  prof.upload_bytes = (body_symbols + 2ull * n) * sizeof(uint32_t);
  prof.rounds = 2ull * (dag.max_depth() + 1) + 4;
  if (!plan->relevant.empty()) {
    uint64_t rel = 0;
    uint64_t rel_symbols = 0;
    for (uint32_t r = 0; r < n; ++r) {
      if (plan->relevant[r] != 0) {
        ++rel;
        rel_symbols += dag.body_size(r);
      }
    }
    prof.relevant_rules = rel;
    // Irrelevant rules still pay one mask check each.
    prof.traversal_items = rel_symbols + n;
  } else {
    prof.relevant_rules = n;
    prof.traversal_items = body_symbols + n;
  }
  if (!plan->bound.empty()) {
    uint64_t mass = 0;
    for (uint64_t b : plan->bound) mass += b;
    prof.reduce_items = mass;
  } else {
    uint64_t laid_out = plan->assembly_slots;
    for (uint64_t s : plan->state.sizes) laid_out += s;
    for (uint64_t s : plan->aux.sizes) laid_out += s;
    prof.reduce_items = laid_out;
  }
  if (kernel.shape() == TraversalShape::kSequence) {
    // Expanded token stream (children-before-parents DP over the reversed
    // topological order). The CPU sequence driver walks every token; the GPU
    // pipeline never leaves the compressed domain.
    std::vector<uint64_t> exp(n, 0);
    const std::vector<uint32_t>& topo = dag.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const uint32_t r = *it;
      uint64_t tokens = 0;
      for (const RuleWordEntry& w : dag.words(r)) tokens += w.freq;
      for (const RuleChildEntry& c : dag.children(r)) {
        tokens += static_cast<uint64_t>(c.freq) * exp[c.child];
      }
      exp[r] = tokens;
    }
    prof.sequence_tokens = n > 0 ? exp[0] : 0;
  }
  plan->estimate = PriceEstimate(prof);
  return std::shared_ptr<const RunPlan>(std::move(plan));
}

PlanKey MakePlanKey(PlanBackend backend, uint64_t grammar_fp, Task task,
                    TraversalStrategy strategy_override,
                    TraversalStrategy configured, const PlanShape& shape) {
  PlanKey key;
  key.backend = backend;
  key.grammar_fp = grammar_fp;
  key.task = static_cast<int>(task);
  key.strategy_override = static_cast<int>(
      strategy_override == TraversalStrategy::kAuto ? configured
                                                    : strategy_override);
  key.shape_fp = shape.Fingerprint();
  return key;
}

Result<std::shared_ptr<const RunPlan>> ResolvePlan(
    PlanCache* cache, Planner* planner, const TaskKernel& kernel,
    const Grammar& g, const DocumentIndex& index, const PlanShape& shape,
    const PlanKey& key, bool* cache_hit) {
  std::shared_ptr<const RunPlan> plan = cache->Get(key);
  if (cache_hit != nullptr) *cache_hit = plan != nullptr;
  if (plan != nullptr) return plan;
  auto built = planner->BuildPlan(kernel, g, index, shape, key);
  if (!built.ok()) return built.status();
  cache->Put(*built);
  return *built;
}

}  // namespace gtadoc
