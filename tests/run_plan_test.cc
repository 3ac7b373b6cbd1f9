#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analytics/batch.h"
#include "analytics/document_index.h"
#include "analytics/run_plan.h"
#include "analytics/task_kernel.h"
#include "analytics/uncompressed.h"
#include "common/hash.h"
#include "common/random.h"
#include "container_fixtures.h"
#include "datagen/datagen.h"
#include "format/dag.h"
#include "format/serializer.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "sequitur/tokenizer.h"
#include "tadoc/cpu_engine.h"
#include "tadoc/strategy.h"

namespace gtadoc {
namespace {

GTadocEngine::Options GpuOptions(std::vector<uint32_t> query = {}) {
  GTadocEngine::Options opt;
  opt.gpu = gpu::PascalPlatform().gpu;
  opt.host_workers = 1;  // deterministic
  opt.query_words = std::move(query);
  return opt;
}

CpuTadocOptions CpuOptions(std::vector<uint32_t> query = {}) {
  CpuTadocOptions opt;
  opt.cpu = gpu::PascalPlatform().cpu;
  opt.query_words = std::move(query);
  return opt;
}

struct Prepared {
  TokenizedCorpus tokens;
  Grammar grammar;
};

Prepared PrepareCorpus(uint32_t num_files, uint64_t total_tokens,
                       uint64_t seed) {
  DatasetSpec spec = DatasetA();
  spec.num_files = num_files;
  spec.total_tokens = total_tokens;
  spec.vocabulary = 200;
  spec.seed = seed;
  Prepared p;
  p.tokens = GenerateTokens(spec);
  auto g = CompressTokenStreams(p.tokens.file_tokens,
                                static_cast<uint32_t>(p.tokens.words.size()));
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  p.grammar = std::move(*g);
  return p;
}

// ------------------------------------------------------------- plan cache ---

// The serving contract: a repeat same-shape run hits the cache, performs
// zero planning (plan_seconds == 0, no relevance/bounds traversal charged),
// and produces bit-identical results and traversal charges.
TEST(PlanCacheTest, GpuHitSkipsPlanningAndKeepsResultsIdentical) {
  Prepared p = PrepareCorpus(24, 9000, 41);
  const std::vector<uint32_t> query = {1, 3, 9, 150};

  for (Task task : {Task::kWordCount, Task::kInvertedIndex,
                    Task::kKeywordSearch, Task::kSequenceCount,
                    Task::kTopKWords}) {
    SCOPED_TRACE(TaskName(task));
    auto engine = GTadocEngine::Create(&p.grammar, GpuOptions(query));
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ((*engine)->CachedPlan(task), nullptr);

    auto first = (*engine)->Run(task);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first->timing.plan_cache_hits, 0u);
    ASSERT_NE((*engine)->CachedPlan(task), nullptr);

    auto second = (*engine)->Run(task);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->timing.plan_cache_hits, 1u);
    EXPECT_EQ(second->timing.plan_seconds, 0.0);
    EXPECT_TRUE(second->result.SameAs(first->result));
    // The executors are pure functions of the plan: traversal charges match
    // bit-for-bit (the ops counter is exact; the seconds only differ by the
    // summation order of the phase split), and the hit run's init is never
    // more expensive.
    EXPECT_NEAR(second->timing.traversal_seconds,
                first->timing.traversal_seconds, 1e-15);
    EXPECT_EQ(second->timing.traversal_ops, first->timing.traversal_ops);
    EXPECT_LE(second->timing.init_seconds, first->timing.init_seconds);
  }

  // Tasks whose plans embed a charged pass (sequence expansion lengths,
  // keyword relevance probes, forced bottom-up bounds) pay it on the miss —
  // so the hit visibly removes it.
  auto engine = GTadocEngine::Create(&p.grammar, GpuOptions(query));
  ASSERT_TRUE(engine.ok());
  for (Task task : {Task::kSequenceCount, Task::kKeywordSearch}) {
    auto run = (*engine)->Run(task);
    ASSERT_TRUE(run.ok());
    EXPECT_GT(run->timing.plan_seconds, 0.0) << TaskName(task);
  }
  auto forced = (*engine)->Run(Task::kInvertedIndex,
                               TraversalStrategy::kBottomUp);
  ASSERT_TRUE(forced.ok());
  EXPECT_GT(forced->timing.plan_seconds, 0.0);
}

TEST(PlanCacheTest, CachedPlanIsBitForBitTheFreshlyPlannedPlan) {
  Prepared p = PrepareCorpus(24, 9000, 42);
  const std::vector<uint32_t> query = {2, 5, 11};

  for (Task task : {Task::kWordCount, Task::kInvertedIndex,
                    Task::kKeywordSearch, Task::kSequenceCount,
                    Task::kTopKWords, Task::kTfIdf}) {
    SCOPED_TRACE(TaskName(task));
    auto a = GTadocEngine::Create(&p.grammar, GpuOptions(query));
    auto b = GTadocEngine::Create(&p.grammar, GpuOptions(query));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE((*a)->Run(task).ok());
    ASSERT_TRUE((*b)->Run(task).ok());
    // Two engines with private caches planned independently: same grammar,
    // same options, bit-for-bit the same plan.
    auto plan_a = (*a)->CachedPlan(task);
    auto plan_b = (*b)->CachedPlan(task);
    ASSERT_NE(plan_a, nullptr);
    ASSERT_NE(plan_b, nullptr);
    EXPECT_TRUE(PlanEquals(*plan_a, *plan_b));
    // A repeat run consumes the identical cached object.
    ASSERT_TRUE((*a)->Run(task).ok());
    EXPECT_EQ((*a)->CachedPlan(task).get(), plan_a.get());
  }

  // Shape-relevant options key the cache: a different query is a different
  // plan, not a stale hit.
  auto engine = GTadocEngine::Create(&p.grammar, GpuOptions(query));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Run(Task::kKeywordSearch).ok());
  auto narrow = GTadocEngine::Create(&p.grammar, GpuOptions({2}));
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE((*narrow)->Run(Task::kKeywordSearch).ok());
  ASSERT_NE((*engine)->CachedPlan(Task::kKeywordSearch), nullptr);
  ASSERT_NE((*narrow)->CachedPlan(Task::kKeywordSearch), nullptr);
  EXPECT_FALSE(PlanEquals(*(*engine)->CachedPlan(Task::kKeywordSearch),
                          *(*narrow)->CachedPlan(Task::kKeywordSearch)));
}

// The same document loaded from a version-2 container (with a persisted
// Bloom section) and from its version-1 twin has one grammar
// fingerprint, so both share one plan-cache key. Whichever copy plans first,
// the cached plan must be exactly what the other copy would build fresh.
TEST(PlanCacheTest, ContainerVersionsShareOneKeyAndOnePlan) {
  auto v2 = ParseGrammar(Figure1V2Container());
  auto v1 = ParseGrammar(Figure1V1Container());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  PlanCache shared;
  GTadocEngine::Options opt = GpuOptions({2});  // w3: R0 and R1 hold it
  opt.plan_cache = &shared;
  const Task task = Task::kKeywordSearch;
  const TraversalStrategy top_down = TraversalStrategy::kTopDown;
  for (const Grammar* g : {&*v2, &*v1}) {
    auto engine = GTadocEngine::Create(g, opt);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->PlanOnly(task, top_down).ok());
    auto cached = (*engine)->CachedPlan(task, top_down);
    // A fresh build by an engine-free planner over this copy's own index.
    auto index = DocumentIndex::Build(*g);
    ASSERT_TRUE(index.ok());
    gpu::Device device(opt.gpu, opt.host_workers);
    GpuPlanner planner(&device, (*index)->device_grammar, opt);
    const PlanShape shape = GpuPlanner::Shape(opt);
    auto fresh = planner.BuildPlan(
        **TaskRegistry::Get(task), *g, **index, shape,
        MakePlanKey(kGpuPlanBackend, (*index)->fingerprint, task, top_down,
                    opt.strategy, shape));
    ASSERT_NE(cached, nullptr);
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(PlanEquals(*cached, **fresh))
        << (g == &*v2 ? "v2 copy" : "v1 copy");
  }
  EXPECT_EQ(shared.size(), 1u);
}

TEST(PlanCacheTest, CpuHitSkipsPlanningAndKeepsResultsIdentical) {
  Prepared p = PrepareCorpus(24, 9000, 43);
  const std::vector<uint32_t> query = {1, 7};
  auto engine = CpuTadocEngine::Create(&p.grammar, CpuOptions(query));
  ASSERT_TRUE(engine.ok());

  for (Task task : {Task::kWordCount, Task::kTermVector,
                    Task::kKeywordSearch}) {
    SCOPED_TRACE(TaskName(task));
    auto first = engine->Run(task);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->timing.plan_cache_hits, 0u);
    auto second = engine->Run(task);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->timing.plan_cache_hits, 1u);
    EXPECT_EQ(second->timing.plan_seconds, 0.0);
    EXPECT_TRUE(second->result.SameAs(first->result));
    EXPECT_EQ(second->timing.traversal_ops, first->timing.traversal_ops);
  }
  EXPECT_NE(engine->CachedPlan(Task::kTermVector), nullptr);
  EXPECT_GT(engine->plan_cache()->hits(), 0u);
}

// The assembly lease: the planner reserves the SelectTopK heap slots inside
// the run's pool, so top-k assembly needs no scoped pool and no pool growth.
TEST(PlanCacheTest, TopKPlansReserveTheAssemblyLease) {
  Prepared p = PrepareCorpus(8, 6000, 44);
  GTadocEngine::Options opt = GpuOptions();
  opt.top_k = 5;
  auto engine = GTadocEngine::Create(&p.grammar, opt);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Run(Task::kTopKWords).ok());
  auto plan = (*engine)->CachedPlan(Task::kTopKWords);
  ASSERT_NE(plan, nullptr);
  // One (1 + 2k)-slot heap per file, placed after every traversal region.
  EXPECT_EQ(plan->assembly_slots, 8ull * (1 + 2 * 5));
  EXPECT_GE(plan->total_slots,
            plan->assembly_offset + plan->assembly_slots);
  // Non-selecting kernels reserve nothing.
  ASSERT_TRUE((*engine)->Run(Task::kWordCount).ok());
  EXPECT_EQ((*engine)->CachedPlan(Task::kWordCount)->assembly_slots, 0u);
}

TEST(PlanCacheTest, EvictsPastCapacityFifo) {
  PlanCache cache(2);
  for (int i = 0; i < 3; ++i) {
    auto plan = std::make_shared<RunPlan>();
    plan->key.task = i;
    cache.Put(std::move(plan));
  }
  EXPECT_EQ(cache.size(), 2u);
  PlanKey first;
  first.task = 0;
  EXPECT_EQ(cache.Peek(first), nullptr);  // oldest evicted
  PlanKey last;
  last.task = 2;
  EXPECT_NE(cache.Peek(last), nullptr);
}

// Warm batch serving: a second Run over the same corpus hits the batch's
// shared cache for every document — zero planning, identical results, and a
// strictly cheaper batch than the planning pass.
TEST(PlanCacheTest, WarmBatchRunsPayZeroPlanning) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 32;
  spec.total_tokens = 12000;
  spec.vocabulary = 250;
  spec.seed = 45;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, 8);
  ASSERT_TRUE(part.ok());

  BatchEngine::Options bopt;
  bopt.engine = GpuOptions();
  auto batch = BatchEngine::Create(&*part, bopt);
  ASSERT_TRUE(batch.ok());

  auto cold = (*batch)->Run(Task::kSequenceCount);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->timing.plan_cache_hits, 0u);
  EXPECT_GT(cold->timing.plan_seconds, 0.0);

  auto warm = (*batch)->Run(Task::kSequenceCount);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->timing.plan_cache_hits, warm->documents.size());
  EXPECT_EQ(warm->timing.plan_seconds, 0.0);
  EXPECT_TRUE(warm->merged.SameAs(cold->merged));
  EXPECT_LT(warm->timing.total_seconds(), cold->timing.total_seconds());
}

// One PlanCache may serve CPU and GPU engines at once: keys carry the
// backend, so the GPU never executes a CPU-built plan (whose sequence plans
// carry no expansion lengths) and vice versa.
TEST(PlanCacheTest, SharedCacheKeysPlansPerBackend) {
  Prepared p = PrepareCorpus(8, 6000, 52);
  PlanCache shared;

  CpuTadocOptions copt = CpuOptions();
  copt.plan_cache = &shared;
  auto cpu = CpuTadocEngine::Create(&p.grammar, copt);
  ASSERT_TRUE(cpu.ok());
  auto cpu_run = cpu->Run(Task::kSequenceCount);
  ASSERT_TRUE(cpu_run.ok());

  GTadocEngine::Options gopt = GpuOptions();
  gopt.plan_cache = &shared;
  auto gpu = GTadocEngine::Create(&p.grammar, gopt);
  ASSERT_TRUE(gpu.ok());
  auto gpu_run = (*gpu)->Run(Task::kSequenceCount);
  ASSERT_TRUE(gpu_run.ok());
  // The GPU run planned its own (backend-keyed) entry — not a hit on the
  // CPU's expansion-length-free plan — and the results agree.
  EXPECT_EQ(gpu_run->timing.plan_cache_hits, 0u);
  EXPECT_TRUE(gpu_run->result.SameAs(cpu_run->result));
  EXPECT_EQ(shared.size(), 2u);
  ASSERT_NE((*gpu)->CachedPlan(Task::kSequenceCount), nullptr);
  EXPECT_FALSE((*gpu)->CachedPlan(Task::kSequenceCount)->exp_len.empty());
}

// ------------------------------------------------------------- rule Blooms ---

TEST(RuleBloomTest, IndexBuildsSubtreeSupersetFilters) {
  Prepared p = PrepareCorpus(12, 8000, 46);
  auto index = DocumentIndex::Build(p.grammar);
  ASSERT_TRUE(index.ok());
  const DagView& dag = (*index)->dag;
  const std::vector<uint64_t>& blooms = (*index)->rule_blooms;
  ASSERT_EQ(blooms.size(), dag.num_rules());
  for (uint32_t r = 0; r < dag.num_rules(); ++r) {
    // Every direct word of the rule is present in its filter...
    for (const RuleWordEntry& w : dag.words(r)) {
      const uint64_t mask = WordBloomMask(w.word);
      EXPECT_EQ(blooms[r] & mask, mask) << "rule " << r << " word " << w.word;
    }
    // ...and every child's filter is contained in the parent's (subtree
    // coverage), which is what makes Bloom relevance a safe superset.
    for (const RuleChildEntry& e : dag.children(r)) {
      EXPECT_EQ(blooms[r] & blooms[e.child], blooms[e.child])
          << "rule " << r << " child " << e.child;
    }
  }
}

// The root Bloom a server computes per document without building its index
// is the index's root-rule filter, on any Sequitur output.
TEST(RuleBloomTest, DocumentBloomEqualsIndexRootBloom) {
  Rng rng(2024);
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    DatasetSpec spec = DatasetA();
    spec.num_files = 1 + static_cast<uint32_t>(rng.Uniform(6));
    spec.total_tokens = 200 + rng.Uniform(3000);
    spec.vocabulary = 8 + static_cast<uint32_t>(rng.Uniform(400));
    spec.seed = seed;
    const TokenizedCorpus tokens = GenerateTokens(spec);
    auto g = CompressTokenStreams(tokens.file_tokens,
                                  static_cast<uint32_t>(tokens.words.size()));
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    auto index = DocumentIndex::Build(*g);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(DocumentBloom(*g), (*index)->rule_blooms[0]) << "seed " << seed;
  }
}

TEST(RuleBloomTest, SerializerRoundTripsFiltersAndLoadsOldFormat) {
  Prepared p = PrepareCorpus(8, 6000, 47);
  auto index = DocumentIndex::Build(p.grammar);
  ASSERT_TRUE(index.ok());

  // The writer emits version 1 only; the filters are derived again from
  // the parsed rule bodies, bit for bit.
  const std::string v1 = SerializeGrammar(p.grammar);
  ASSERT_GE(v1.size(), 5u);
  EXPECT_EQ(static_cast<uint8_t>(v1[4]), 1u);  // version byte
  auto parsed = ParseGrammar(v1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rules, p.grammar.rules);
  auto reindexed = DocumentIndex::Build(*parsed);
  ASSERT_TRUE(reindexed.ok());
  EXPECT_EQ((*reindexed)->rule_blooms, (*index)->rule_blooms);

  // A version-2 container of the same grammar (persisted Bloom section)
  // still loads, to the same grammar.
  auto old = ParseGrammar(V2Container(p.grammar, (*index)->rule_blooms));
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(old->rules, p.grammar.rules);
  EXPECT_EQ(old->words, p.grammar.words);

  // Bloom relevance may only over-approximate: every rule whose subtree
  // really holds a query word is kept.
  const std::vector<uint32_t> query = {3, 8, 100000};
  const TraversalStrategy top_down = TraversalStrategy::kTopDown;
  auto engine = GTadocEngine::Create(&*parsed, GpuOptions(query));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Run(Task::kKeywordSearch, top_down).ok());
  auto plan = (*engine)->CachedPlan(Task::kKeywordSearch, top_down);
  ASSERT_NE(plan, nullptr);
  const DagView& dag = (*index)->dag;
  ASSERT_EQ(plan->relevant.size(), dag.num_rules());
  std::vector<uint8_t> exact(dag.num_rules(), 0);
  const std::vector<uint32_t>& topo = dag.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    for (const RuleWordEntry& w : dag.words(*it)) {
      if (std::count(query.begin(), query.end(), w.word) != 0) {
        exact[*it] = 1;
      }
    }
    for (const RuleChildEntry& e : dag.children(*it)) {
      if (exact[e.child] != 0) exact[*it] = 1;
    }
  }
  for (size_t r = 0; r < exact.size(); ++r) {
    if (exact[r] != 0) EXPECT_NE(plan->relevant[r], 0) << r;
  }
}

TEST(RuleBloomTest, V1ContainerWithBloomFlagIsCorruption) {
  Prepared p = PrepareCorpus(4, 2000, 48);
  std::string bytes = SerializeGrammar(p.grammar);
  bytes[5] = static_cast<char>(bytes[5] | 0x02);  // claim Blooms in v1
  // The checksum also breaks, but even with it patched the version gate must
  // hold; either way this must be a clean Corruption, never a crash.
  EXPECT_FALSE(ParseGrammar(bytes).ok());
}

// A hostile-but-well-checksummed header must not drive allocations: a rule
// count (or Bloom section) larger than the input is rejected up front.
TEST(RuleBloomTest, FabricatedRuleCountsAreRejectedBeforeAllocation) {
  Prepared p = PrepareCorpus(4, 2000, 53);
  const std::string good = SerializeGrammar(p.grammar);

  auto rewrite_num_rules = [&](uint64_t fake_rules) {
    // Rebuild the container byte stream with a huge varint64 rule count and
    // a freshly valid checksum, mimicking an attacker-crafted file.
    std::string body(good.data(), good.size() - 8);
    // Header prefix: magic(4) + version(1) + flags(1) + two varint32s.
    size_t pos = 6;
    for (int i = 0; i < 2; ++i) {  // skip num_words, num_splitters
      while (static_cast<uint8_t>(body[pos]) & 0x80) ++pos;
      ++pos;
    }
    size_t rules_end = pos;
    while (static_cast<uint8_t>(body[rules_end]) & 0x80) ++rules_end;
    ++rules_end;
    std::string varint;
    uint64_t v = fake_rules;
    while (v >= 0x80) {
      varint.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    varint.push_back(static_cast<char>(v));
    body = body.substr(0, pos) + varint + body.substr(rules_end);
    const uint64_t checksum = Fnv1a64(body.data(), body.size());
    std::string tail(8, '\0');
    for (int i = 0; i < 8; ++i) {
      tail[i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
    }
    return body + tail;
  };

  auto huge = ParseGrammar(rewrite_num_rules(1ull << 31));
  EXPECT_FALSE(huge.ok());
  EXPECT_TRUE(huge.status().IsCorruption()) << huge.status().ToString();
}

// ------------------------------------------------------------- multi-query ---

// One multi-query run must be bit-identical to N single-query runs, on every
// engine: GPU, CPU, GPU-uncompressed, sequential reference, and batch.
TEST(MultiQueryTest, MultiQueryEqualsSingleQueriesOnEveryEngine) {
  Prepared p = PrepareCorpus(12, 8000, 49);
  const std::vector<std::vector<uint32_t>> sets = {
      {1, 3}, {5}, {7, 9, 11, 13}, {100000}};

  // Single-query references (truth from the kernel's uncompressed loop).
  std::vector<KeywordSearchResult> truth;
  for (const auto& set : sets) {
    UncompressedAnalytics single(p.tokens.file_tokens, 3, set);
    truth.push_back(
        single.RunSequential(Task::kKeywordSearch).keyword_search);
  }

  // Sequential reference in multi-query mode.
  UncompressedAnalytics multi_ref(p.tokens.file_tokens, 3, {}, 10, sets);
  const AnalyticsResult seq = multi_ref.RunSequential(Task::kKeywordSearch);
  ASSERT_EQ(seq.keyword_multi.size(), sets.size());
  EXPECT_EQ(seq.keyword_multi, truth);

  // GPU engine.
  GTadocEngine::Options gopt = GpuOptions();
  gopt.query_sets = sets;
  auto gpu = GTadocEngine::Create(&p.grammar, gopt);
  ASSERT_TRUE(gpu.ok());
  for (TraversalStrategy strategy :
       {TraversalStrategy::kAuto, TraversalStrategy::kTopDown,
        TraversalStrategy::kBottomUp}) {
    auto run = (*gpu)->Run(Task::kKeywordSearch, strategy);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->result.keyword_multi, truth) << StrategyName(strategy);
  }

  // Single-query GPU runs agree entry-for-entry with the multi slots.
  for (size_t q = 0; q < sets.size(); ++q) {
    auto single = GTadocEngine::Create(&p.grammar, GpuOptions(sets[q]));
    ASSERT_TRUE(single.ok());
    auto run = (*single)->Run(Task::kKeywordSearch);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->result.keyword_search, truth[q]) << q;
  }

  // CPU engine.
  CpuTadocOptions copt = CpuOptions();
  copt.query_sets = sets;
  auto cpu = CpuTadocEngine::Create(&p.grammar, copt);
  ASSERT_TRUE(cpu.ok());
  auto cpu_run = cpu->Run(Task::kKeywordSearch);
  ASSERT_TRUE(cpu_run.ok());
  EXPECT_EQ(cpu_run->result.keyword_multi, truth);

  // GPU-uncompressed baseline.
  gpu::Device device(gpu::PascalPlatform().gpu, 1);
  auto unc = multi_ref.RunOnDevice(Task::kKeywordSearch, &device);
  ASSERT_TRUE(unc.ok()) << unc.status().ToString();
  EXPECT_EQ(unc->result.keyword_multi, truth);
}

TEST(MultiQueryTest, BatchMergesPerQueryResultsLikeSingleQueries) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 12;
  spec.total_tokens = 8000;
  spec.vocabulary = 250;
  spec.seed = 50;
  Corpus corpus = GenerateCorpus(spec);
  auto part = PartitionAndCompress(corpus, 4);
  ASSERT_TRUE(part.ok());
  const std::vector<std::vector<uint32_t>> sets = {{2, 5}, {11}};

  BatchEngine::Options multi_opt;
  multi_opt.engine = GpuOptions();
  multi_opt.engine.query_sets = sets;
  auto multi = BatchEngine::Create(&*part, multi_opt);
  ASSERT_TRUE(multi.ok());
  auto multi_run = (*multi)->Run(Task::kKeywordSearch);
  ASSERT_TRUE(multi_run.ok()) << multi_run.status().ToString();
  ASSERT_EQ(multi_run->merged.keyword_multi.size(), sets.size());

  for (size_t q = 0; q < sets.size(); ++q) {
    BatchEngine::Options single_opt;
    single_opt.engine = GpuOptions(sets[q]);
    auto single = BatchEngine::Create(&*part, single_opt);
    ASSERT_TRUE(single.ok());
    auto single_run = (*single)->Run(Task::kKeywordSearch);
    ASSERT_TRUE(single_run.ok());
    EXPECT_EQ(multi_run->merged.keyword_multi[q],
              single_run->merged.keyword_search)
        << q;
  }
}

// ------------------------------------------------------------ phraseSearch ---

TEST(PhraseSearchTest, HandComputedTinyCorpus) {
  // file0: a b a b a   file1: b a b   file2: a a  (ids a=0 b=1)
  const std::vector<std::vector<uint32_t>> files = {
      {0, 1, 0, 1, 0}, {1, 0, 1}, {0, 0}};
  auto grammar = CompressTokenStreams(files, 2);
  ASSERT_TRUE(grammar.ok());

  struct Case {
    std::vector<uint32_t> phrase;
    PhraseSearchResult expected;
  };
  const std::vector<Case> cases = {
      // "a b": twice in file0 (positions 0, 2), once in file1.
      {{0, 1}, {{0, 2}, {1, 1}}},
      // "a b a": overlapping occurrences both count (windows 0 and 2).
      {{0, 1, 0}, {{0, 2}}},
      // "a a": only file2.
      {{0, 0}, {{2, 1}}},
      // "b b": nowhere.
      {{1, 1}, {}},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(testing::PrintToString(c.phrase));
    UncompressedAnalytics uncompressed(files, 3, c.phrase);
    const AnalyticsResult truth =
        uncompressed.RunSequential(Task::kPhraseSearch);
    EXPECT_EQ(truth.phrase_search, c.expected);

    auto gpu = GTadocEngine::Create(&*grammar, GpuOptions(c.phrase));
    ASSERT_TRUE(gpu.ok());
    auto gpu_run = (*gpu)->Run(Task::kPhraseSearch);
    ASSERT_TRUE(gpu_run.ok()) << gpu_run.status().ToString();
    EXPECT_EQ(gpu_run->result.phrase_search, c.expected);

    auto cpu = CpuTadocEngine::Create(&*grammar, CpuOptions(c.phrase));
    ASSERT_TRUE(cpu.ok());
    auto cpu_run = cpu->Run(Task::kPhraseSearch);
    ASSERT_TRUE(cpu_run.ok());
    EXPECT_EQ(cpu_run->result.phrase_search, c.expected);

    gpu::Device device(gpu::PascalPlatform().gpu, 1);
    auto unc = uncompressed.RunOnDevice(Task::kPhraseSearch, &device);
    ASSERT_TRUE(unc.ok());
    EXPECT_EQ(unc->result.phrase_search, c.expected);
  }

  // Multi-phrase: one traversal serves equal-length phrases; a set of a
  // different length than the window comes back empty.
  GTadocEngine::Options mopt = GpuOptions();
  mopt.query_sets = {{0, 1}, {0, 0}, {1, 1, 1}};
  auto multi = GTadocEngine::Create(&*grammar, mopt);
  ASSERT_TRUE(multi.ok());
  auto multi_run = (*multi)->Run(Task::kPhraseSearch);
  ASSERT_TRUE(multi_run.ok()) << multi_run.status().ToString();
  ASSERT_EQ(multi_run->result.keyword_multi.size(), 3u);
  EXPECT_EQ(multi_run->result.keyword_multi[0],
            (KeywordSearchResult{{0, 2}, {1, 1}}));
  EXPECT_EQ(multi_run->result.keyword_multi[1],
            (KeywordSearchResult{{2, 1}}));
  EXPECT_TRUE(multi_run->result.keyword_multi[2].empty());
}

TEST(PhraseSearchTest, AgreesAcrossEnginesOnRandomCorpus) {
  Prepared p = PrepareCorpus(8, 6000, 51);
  // A phrase guaranteed present: three consecutive tokens of file 0.
  ASSERT_GE(p.tokens.file_tokens[0].size(), 10u);
  const std::vector<uint32_t> phrase(p.tokens.file_tokens[0].begin() + 4,
                                     p.tokens.file_tokens[0].begin() + 7);

  UncompressedAnalytics uncompressed(p.tokens.file_tokens, 3, phrase);
  const AnalyticsResult truth =
      uncompressed.RunSequential(Task::kPhraseSearch);
  ASSERT_FALSE(truth.phrase_search.empty());

  auto gpu = GTadocEngine::Create(&p.grammar, GpuOptions(phrase));
  ASSERT_TRUE(gpu.ok());
  auto gpu_run = (*gpu)->Run(Task::kPhraseSearch);
  ASSERT_TRUE(gpu_run.ok()) << gpu_run.status().ToString();
  EXPECT_TRUE(gpu_run->result.SameAs(truth))
      << gpu_run->result.Digest() << " vs " << truth.Digest();

  auto cpu = CpuTadocEngine::Create(&p.grammar, CpuOptions(phrase));
  ASSERT_TRUE(cpu.ok());
  auto cpu_run = cpu->Run(Task::kPhraseSearch);
  ASSERT_TRUE(cpu_run.ok());
  EXPECT_TRUE(cpu_run->result.SameAs(truth));

  // The batch path merges per-document phrase hits identically.
  auto part = CorpusFromDocuments([&] {
    std::vector<Grammar> docs;
    for (size_t f = 0; f < p.tokens.file_tokens.size(); f += 2) {
      std::vector<std::vector<uint32_t>> pair_files(
          p.tokens.file_tokens.begin() + f,
          p.tokens.file_tokens.begin() +
              std::min(f + 2, p.tokens.file_tokens.size()));
      auto g = CompressTokenStreams(
          pair_files, static_cast<uint32_t>(p.tokens.words.size()));
      EXPECT_TRUE(g.ok());
      docs.push_back(std::move(*g));
    }
    return docs;
  }());
  ASSERT_TRUE(part.ok());
  BatchEngine::Options bopt;
  bopt.engine = GpuOptions(phrase);
  auto batch = BatchEngine::Create(&*part, bopt);
  ASSERT_TRUE(batch.ok());
  auto batch_run = (*batch)->Run(Task::kPhraseSearch);
  ASSERT_TRUE(batch_run.ok()) << batch_run.status().ToString();
  EXPECT_TRUE(batch_run->merged.SameAs(truth))
      << batch_run->merged.Digest() << " vs " << truth.Digest();
}

}  // namespace
}  // namespace gtadoc
