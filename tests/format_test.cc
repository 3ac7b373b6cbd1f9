#include <gtest/gtest.h>

#include "analytics/document_index.h"
#include "common/io.h"
#include "container_fixtures.h"
#include "format/dag.h"
#include "format/grammar.h"
#include "format/serializer.h"
#include "sequitur/compressor.h"

namespace gtadoc {
namespace {

TEST(GrammarTest, IdSpaceHelpers) {
  Grammar g = Figure1Grammar();
  EXPECT_EQ(g.num_terminals(), 5u);
  EXPECT_EQ(g.num_files(), 2u);
  EXPECT_TRUE(g.IsWord(0));
  EXPECT_TRUE(g.IsWord(3));
  EXPECT_TRUE(g.IsSplitter(4));
  EXPECT_FALSE(g.IsSplitter(3));
  EXPECT_TRUE(g.IsRule(5));
  EXPECT_EQ(g.RuleIndex(5), 0u);
  EXPECT_EQ(g.RuleId(2), 7u);
  EXPECT_EQ(g.SplitterIndex(4), 0u);
}

TEST(DagViewTest, Figure1Aggregation) {
  Grammar g = Figure1Grammar();
  auto view = DagView::Build(g);
  ASSERT_TRUE(view.ok());
  const DagView& v = *view;
  ASSERT_EQ(v.num_rules(), 3u);

  // Root: children R1 (x2) and R2 (x1); own word w1 (x1).
  ASSERT_EQ(v.children(0).size(), 2u);
  EXPECT_EQ(v.children(0)[0].child, 1u);
  EXPECT_EQ(v.children(0)[0].freq, 2u);
  EXPECT_EQ(v.children(0)[1].child, 2u);
  EXPECT_EQ(v.children(0)[1].freq, 1u);
  ASSERT_EQ(v.words(0).size(), 1u);
  EXPECT_EQ(v.words(0)[0].word, 0u);

  // R1: child R2 (x2), words w3, w4.
  ASSERT_EQ(v.children(1).size(), 1u);
  EXPECT_EQ(v.children(1)[0].freq, 2u);
  EXPECT_EQ(v.words(1).size(), 2u);

  // R2: leaf with words w1, w2.
  EXPECT_TRUE(v.children(2).empty());
  EXPECT_EQ(v.num_out_edges(2), 0u);

  // Parents and in-edges: R2's parents are root and R1; only R1 is non-root.
  EXPECT_EQ(v.parents(2).size(), 2u);
  EXPECT_EQ(v.num_in_edges_nonroot(2), 1u);
  EXPECT_EQ(v.num_in_edges_nonroot(1), 0u);
  EXPECT_EQ(v.root_freq(1), 2u);
  EXPECT_EQ(v.root_freq(2), 1u);

  // Depth: root 0, R1 1, R2 2 (via R1).
  EXPECT_EQ(v.depth(0), 0u);
  EXPECT_EQ(v.depth(1), 1u);
  EXPECT_EQ(v.depth(2), 2u);
  EXPECT_EQ(v.max_depth(), 2u);

  // Topological order puts parents first.
  EXPECT_EQ(v.topo_order().front(), 0u);
  EXPECT_EQ(v.topo_order().back(), 2u);
}

TEST(DagViewTest, RejectsCycle) {
  Grammar g;
  g.num_words = 1;
  // Rule ids start at num_terminals = 1: rule0=1, rule1=2, rule2=3.
  g.rules = {{2, 0}, {3, 0}, {2, 0}};  // r1 -> r2 -> r1 cycle
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

TEST(DagViewTest, RejectsSelfReference) {
  Grammar g;
  g.num_words = 1;
  g.rules = {{1, 0}};  // root references itself (id 1 = rule 0)
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

TEST(DagViewTest, RejectsSplitterInSubRule) {
  Grammar g;
  g.num_words = 1;
  g.num_splitters = 1;
  g.rules = {{2, 2}, {1, 0}};  // rule 1 body contains splitter id 1
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

TEST(DagViewTest, RejectsOutOfRangeRuleId) {
  Grammar g;
  g.num_words = 1;
  g.rules = {{9, 0}};
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

TEST(DagViewTest, RejectsEmptyRootAndEmptyGrammar) {
  Grammar g;
  g.num_words = 1;
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
  g.rules = {{}};
  EXPECT_TRUE(DagView::Build(g).status().IsCorruption());
}

TEST(DagStatsTest, Figure1Stats) {
  auto stats = ComputeDagStats(Figure1Grammar());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_rules, 3u);
  EXPECT_EQ(stats->vocabulary_size, 4u);
  EXPECT_EQ(stats->num_files, 2u);
  EXPECT_EQ(stats->num_edges, 3u);          // root->R1, root->R2, R1->R2
  EXPECT_EQ(stats->total_body_symbols, 11u);
  EXPECT_EQ(stats->expanded_tokens, 15u);   // 12 (fileA) + 3 (fileB)
  EXPECT_EQ(stats->max_depth, 2u);
  EXPECT_NEAR(stats->reuse_factor, 15.0 / 11.0, 1e-9);
}

// -------------------------------------------------------------- Serializer --

TEST(SerializerTest, RoundTripWithDictionary) {
  Grammar g = Figure1Grammar();
  std::string blob = SerializeGrammar(g, /*include_dictionary=*/true);
  auto back = ParseGrammar(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_words, g.num_words);
  EXPECT_EQ(back->num_splitters, g.num_splitters);
  EXPECT_EQ(back->rules, g.rules);
  EXPECT_EQ(back->words, g.words);
}

TEST(SerializerTest, RoundTripWithoutDictionary) {
  Grammar g = Figure1Grammar();
  std::string blob = SerializeGrammar(g, /*include_dictionary=*/false);
  auto back = ParseGrammar(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->words.empty());
  EXPECT_EQ(back->rules, g.rules);
}

TEST(SerializerTest, DetectsBitFlipAnywhere) {
  Grammar g = Figure1Grammar();
  const std::string blob = SerializeGrammar(g);
  // Flip each byte in turn; every corruption must be caught, never crash.
  int caught = 0;
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    auto r = ParseGrammar(bad);
    if (!r.ok()) ++caught;
  }
  EXPECT_EQ(caught, static_cast<int>(blob.size()));
}

TEST(SerializerTest, DetectsTruncationAtEveryLength) {
  Grammar g = Figure1Grammar();
  const std::string blob = SerializeGrammar(g);
  for (size_t len = 0; len < blob.size(); ++len) {
    auto r = ParseGrammar(Slice(blob.data(), len));
    EXPECT_FALSE(r.ok()) << "accepted truncation at " << len;
  }
}

TEST(SerializerTest, RejectsBadMagicAndTrailingBytes) {
  Grammar g = Figure1Grammar();
  std::string blob = SerializeGrammar(g);
  std::string bad = "XXXX" + blob.substr(4);
  EXPECT_FALSE(ParseGrammar(bad).ok());
  // Trailing garbage invalidates the checksum.
  EXPECT_FALSE(ParseGrammar(blob + "zz").ok());
}

TEST(SerializerTest, FileRoundTrip) {
  Grammar g = Figure1Grammar();
  const std::string path = testing::TempDir() + "/fig1.tdc";
  ASSERT_TRUE(WriteGrammarFile(g, path).ok());
  auto back = ReadGrammarFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rules, g.rules);
  std::remove(path.c_str());
}

TEST(SerializerTest, ParsedGrammarPassesDagValidation) {
  // Serialization must preserve enough structure for the validator.
  Grammar g = Figure1Grammar();
  auto back = ParseGrammar(SerializeGrammar(g));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(DagView::Build(*back).ok());
}

// ------------------------------------------- version-2 compatibility ---

TEST(SerializerTest, V2ContainerParsesLikeItsV1Twin) {
  auto v2 = ParseGrammar(Figure1V2Container());
  auto v1 = ParseGrammar(Figure1V1Container());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  const Grammar g = Figure1Grammar();
  for (const Grammar* parsed : {&*v2, &*v1}) {
    EXPECT_EQ(parsed->num_words, g.num_words);
    EXPECT_EQ(parsed->num_splitters, g.num_splitters);
    EXPECT_EQ(parsed->rules, g.rules);
    EXPECT_EQ(parsed->words, g.words);
  }
}

TEST(SerializerTest, V2BloomSectionEqualsDerivedRuleBlooms) {
  const std::string v2 = Figure1V2Container();
  auto parsed = ParseGrammar(v2);
  ASSERT_TRUE(parsed.ok());
  auto index = DocumentIndex::Build(*parsed);
  ASSERT_TRUE(index.ok());
  std::vector<uint64_t> persisted;
  BinaryReader r(Slice(v2.data() + kFigure1V2BloomOffset,
                       kFigure1V2BloomCount * 8));
  for (size_t i = 0; i < kFigure1V2BloomCount; ++i) {
    auto bloom = r.GetU64();
    ASSERT_TRUE(bloom.ok());
    persisted.push_back(*bloom);
  }
  EXPECT_EQ(persisted, (*index)->rule_blooms);
  EXPECT_EQ(DocumentBloom(*parsed), (*index)->rule_blooms[0]);
  // The test-side v2 writer reproduces the fixture from the derived filters.
  EXPECT_EQ(V2Container(*parsed, (*index)->rule_blooms), v2);
}

TEST(SerializerTest, WritesTheV1FixtureBytesExactly) {
  EXPECT_EQ(SerializeGrammar(Figure1Grammar()), Figure1V1Container());
  // Loading a v2 container and writing it back drops the Bloom section.
  auto v2 = ParseGrammar(Figure1V2Container());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(SerializeGrammar(*v2), Figure1V1Container());
}

// A v2 header whose Bloom section cannot fit the input is Corruption even
// with a valid checksum, and never an allocation or a read past the end.
TEST(SerializerTest, RejectsTruncatedBloomSection) {
  const std::string v2 = Figure1V2Container();
  // Keep the header, dictionary and 2 of the 3 filters (16 bytes), then a
  // fresh checksum: the 3-rule section no longer fits.
  const std::string cut =
      Reseal(v2.substr(0, kFigure1V2BloomOffset + 16) + std::string(8, '\0'));
  auto truncated = ParseGrammar(cut);
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsCorruption());
}

// Likewise when a fabricated rule count promises a Bloom section of 2^64+8
// bytes: the size check must not wrap.
TEST(SerializerTest, RejectsFabricatedBloomRuleCount) {
  BinaryWriter w;
  w.PutRaw("GTDC", 4);
  w.PutU8(2);     // version with Blooms
  w.PutU8(0x02);  // rule-Bloom flag, no dictionary
  w.PutVarint32(4);
  w.PutVarint32(0);
  w.PutVarint64((1ull << 61) + 1);
  w.PutU64(0);
  auto fabricated = ParseGrammar(Reseal(w.Release()));
  ASSERT_FALSE(fabricated.ok());
  EXPECT_TRUE(fabricated.status().IsCorruption());
}

// A dictionary count larger than the input must be rejected before the
// dictionary is reserved: every word costs at least one length byte.
TEST(SerializerTest, RejectsDictionaryCountLargerThanInput) {
  BinaryWriter w;
  w.PutRaw("GTDC", 4);
  w.PutU8(1);
  w.PutU8(0x01);  // dictionary flag
  w.PutVarint32(0xFFFFFFF0u);
  w.PutVarint32(0);
  w.PutVarint64(1);
  w.PutU8(0);
  w.PutU64(0);
  const std::string container = Reseal(w.Release());
  ASSERT_EQ(container.size(), 22u);
  auto parsed = ParseGrammar(container);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
}

// Terminal and rule counts whose sum overflows 32-bit symbol ids would make
// the id-range check wrap.
TEST(SerializerTest, RejectsSymbolSpaceBeyond32Bits) {
  BinaryWriter w;
  w.PutRaw("GTDC", 4);
  w.PutU8(1);
  w.PutU8(0);
  w.PutVarint32(0xFFFFFFFFu);
  w.PutVarint32(2);
  w.PutVarint64(1);
  w.PutU8(1);  // root body: one symbol
  w.PutVarint32(0);
  w.PutU64(0);
  auto parsed = ParseGrammar(Reseal(w.Release()));
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
}

}  // namespace
}  // namespace gtadoc
