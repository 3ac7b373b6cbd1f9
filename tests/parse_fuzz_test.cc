// Seeded mutation fuzzing of ParseGrammar: mutated containers, each with a
// freshly sealed checksum so the edits reach the body parser, must either
// parse or fail with a Status — never crash, throw or over-allocate. Every
// accepted grammar also goes through DocumentIndex::Build, the next consumer
// of untrusted containers, which is also fuzzed directly on mutated
// hand-built grammars (edits the container format cannot express, such as
// dictionary-free id spaces, reach it this way). Deterministic and a few
// seconds at most, so the sanitizer builds run it with the rest of the
// suite.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "analytics/document_index.h"
#include "common/random.h"
#include "container_fixtures.h"
#include "datagen/datagen.h"
#include "format/serializer.h"
#include "sequitur/compressor.h"

namespace gtadoc {
namespace {

/// The unmutated inputs: version-1 containers with and without a
/// dictionary (Figure 1 and a small generated corpus) and the version-2
/// fixture.
std::vector<std::string> SeedContainers() {
  std::vector<std::string> seeds = {Figure1V1Container(),
                                    SerializeGrammar(Figure1Grammar(), false),
                                    Figure1V2Container()};
  DatasetSpec spec = DatasetA();
  spec.num_files = 3;
  spec.total_tokens = 120;
  spec.vocabulary = 24;
  spec.seed = 5;
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto g = CompressTokens(tokens);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  seeds.push_back(SerializeGrammar(*g, true));
  seeds.push_back(SerializeGrammar(*g, false));
  return seeds;
}

/// A varint32 with 1-5 bytes, biased toward huge values: counts and
/// lengths are where a parser trusts its input.
std::string RandomVarint(Rng* rng) {
  static const uint32_t kInteresting[] = {0,          1,          0x7f,
                                          0x80,       0xffff,     0x7fffffff,
                                          0xfffffff0, 0xffffffff};
  uint32_t v = rng->Bernoulli(0.5)
                   ? kInteresting[rng->Uniform(std::size(kInteresting))]
                   : static_cast<uint32_t>(rng->NextU64());
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

/// Applies one random edit to the body (everything before the checksum).
void Mutate(std::string* body, Rng* rng) {
  const size_t n = body->size();
  const size_t pos = n == 0 ? 0 : rng->Uniform(n);
  switch (rng->Uniform(6)) {
    case 0:  // flip one bit
      if (n > 0) (*body)[pos] ^= static_cast<char>(1u << rng->Uniform(8));
      break;
    case 1:  // overwrite one byte
      if (n > 0) (*body)[pos] = static_cast<char>(rng->Uniform(256));
      break;
    case 2:  // replace a byte run with a varint (a new count or length)
      body->replace(pos, rng->Uniform(3), RandomVarint(rng));
      break;
    case 3:  // insert random bytes
      body->insert(pos, std::string(1 + rng->Uniform(4),
                                    static_cast<char>(rng->Uniform(256))));
      break;
    case 4:  // delete a run
      body->erase(pos, 1 + rng->Uniform(8));
      break;
    default:  // truncate
      body->resize(pos);
      break;
  }
}

TEST(ParseGrammarFuzzTest, SeededMutationsNeverCrash) {
  const std::vector<std::string> seeds = SeedContainers();
  Rng rng(0x6774646cull);
  constexpr int kIterations = 50000;
  int accepted = 0;
  int indexed = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string& seed = seeds[rng.Uniform(seeds.size())];
    std::string body = seed.substr(0, seed.size() - 8);
    const uint64_t edits = 1 + rng.Uniform(3);
    for (uint64_t e = 0; e < edits; ++e) Mutate(&body, &rng);
    const std::string container = Reseal(body + std::string(8, '\0'));

    auto parsed = ParseGrammar(container);
    if (!parsed.ok()) {
      ASSERT_TRUE(parsed.status().IsCorruption())
          << "iteration " << i << ": " << parsed.status().ToString();
      continue;
    }
    ++accepted;
    // An accepted grammar round-trips through the writer unchanged.
    auto again = ParseGrammar(SerializeGrammar(*parsed));
    ASSERT_TRUE(again.ok()) << "iteration " << i;
    ASSERT_EQ(again->rules, parsed->rules) << "iteration " << i;
    ASSERT_EQ(again->words, parsed->words) << "iteration " << i;

    auto index = DocumentIndex::Build(*parsed);
    if (!index.ok()) continue;
    ++indexed;
    ASSERT_EQ(DocumentBloom(*parsed), (*index)->rule_blooms[0])
        << "iteration " << i;
  }
  // The mutations must keep reaching past the header: some inputs parse
  // and some of those also validate as DAGs.
  EXPECT_GT(accepted, kIterations / 100);
  EXPECT_GT(indexed, 0);
}

/// The unmutated hand-built grammars: Figure 1 and a small generated one.
std::vector<Grammar> SeedGrammars() {
  std::vector<Grammar> seeds = {Figure1Grammar()};
  DatasetSpec spec = DatasetA();
  spec.num_files = 4;
  spec.total_tokens = 300;
  spec.vocabulary = 30;
  spec.seed = 9;
  auto g = CompressTokens(GenerateTokens(spec));
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  seeds.push_back(std::move(*g));
  return seeds;
}

/// A symbol id near the edges of `g`'s id space (last word, first splitter,
/// first and last rule, one past the end) or anywhere in 32 bits.
uint32_t RandomSymbol(const Grammar& g, Rng* rng) {
  const uint32_t terminals = g.num_terminals();
  const uint32_t end = terminals + static_cast<uint32_t>(g.rules.size());
  const uint32_t edges[] = {0,         g.num_words - 1, g.num_words,
                            terminals, terminals + 1,   end - 1,
                            end,       end + 1};
  switch (rng->Uniform(3)) {
    case 0:
      return edges[rng->Uniform(std::size(edges))];
    case 1:
      return static_cast<uint32_t>(rng->Uniform(end + 2));
    default:
      return static_cast<uint32_t>(rng->NextU64());
  }
}

/// Applies one random edit straight to a grammar's fields.
void MutateGrammar(Grammar* g, Rng* rng) {
  std::vector<uint32_t>& body = g->rules[rng->Uniform(g->rules.size())];
  const size_t pos = body.empty() ? 0 : rng->Uniform(body.size());
  switch (rng->Uniform(7)) {
    case 0:  // rewrite one symbol
      if (!body.empty()) body[pos] = RandomSymbol(*g, rng);
      break;
    case 1:  // insert one symbol
      body.insert(body.begin() + pos, RandomSymbol(*g, rng));
      break;
    case 2:  // delete one symbol
      if (!body.empty()) body.erase(body.begin() + pos);
      break;
    case 3:  // append a rule over existing symbols, or drop the last rule
      if (rng->Bernoulli(0.5) || g->rules.size() == 1) {
        g->rules.push_back({RandomSymbol(*g, rng), RandomSymbol(*g, rng)});
      } else {
        g->rules.pop_back();
      }
      break;
    case 4:  // shift the word/splitter boundary
      if (rng->Bernoulli(0.5)) {
        ++g->num_words;
      } else if (g->num_words > 0) {
        --g->num_words;
      }
      break;
    case 5:  // more or fewer files
      if (rng->Bernoulli(0.5)) {
        ++g->num_splitters;
      } else if (g->num_splitters > 0) {
        --g->num_splitters;
      }
      break;
    default:  // swap two rule bodies
      std::swap(body, g->rules[rng->Uniform(g->rules.size())]);
      break;
  }
}

TEST(DocumentIndexFuzzTest, MutatedGrammarsBuildOrFailCleanly) {
  const std::vector<Grammar> seeds = SeedGrammars();
  Rng rng(0x64696478ull);
  constexpr int kIterations = 20000;
  int indexed = 0;
  for (int i = 0; i < kIterations; ++i) {
    Grammar g = seeds[rng.Uniform(seeds.size())];
    const uint64_t edits = 1 + rng.Uniform(3);
    for (uint64_t e = 0; e < edits; ++e) MutateGrammar(&g, &rng);

    const size_t bytes = DeviceGrammar::BytesFor(g);  // never crashes
    auto index = DocumentIndex::Build(g);
    if (!index.ok()) {
      ASSERT_TRUE(index.status().IsCorruption())
          << "iteration " << i << ": " << index.status().ToString();
      continue;
    }
    ++indexed;
    const DeviceGrammar& dg = (*index)->device_grammar;
    // The root scan's output equals a serial recount of the splitters at
    // or before each root position.
    std::vector<uint32_t> recount;
    uint32_t file = 0;
    for (uint32_t sym : g.rules[0]) {
      if (sym >= g.num_words && sym < g.num_terminals()) ++file;
      recount.push_back(file);
    }
    ASSERT_EQ(dg.root_file_of_pos, recount) << "iteration " << i;
    ASSERT_EQ(dg.num_rules, g.rules.size()) << "iteration " << i;
    ASSERT_EQ(bytes, dg.DeviceBytes()) << "iteration " << i;
    ASSERT_EQ(DocumentBloom(g), (*index)->rule_blooms[0]) << "iteration " << i;
  }
  // Edits must keep producing both outcomes.
  EXPECT_GT(indexed, kIterations / 100);
  EXPECT_LT(indexed, kIterations);
}

}  // namespace
}  // namespace gtadoc
