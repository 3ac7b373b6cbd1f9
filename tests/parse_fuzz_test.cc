// Seeded mutation fuzzing of ParseGrammar: mutated containers, each with a
// freshly sealed checksum so the edits reach the body parser, must either
// parse or fail with a Status — never crash, throw or over-allocate. Every
// accepted grammar also goes through DocumentIndex::Build, the next consumer
// of untrusted containers. Deterministic and a few seconds at most, so the
// sanitizer builds run it with the rest of the suite.

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

}  // namespace
}  // namespace gtadoc
