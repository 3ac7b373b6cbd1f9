#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "format/dag.h"
#include "sequitur/compressor.h"

namespace gtadoc {
namespace {

TEST(DatagenTest, PresetsHavePaperShapes) {
  auto all = AllDatasets();
  ASSERT_EQ(all.size(), 5u);
  // A: many small files; B: exactly 4; C: the largest corpus; D/E: 1 file.
  EXPECT_GT(all[0].num_files, 100u);
  EXPECT_EQ(all[1].num_files, 4u);
  EXPECT_GT(all[2].total_tokens, all[1].total_tokens);
  EXPECT_EQ(all[3].num_files, 1u);
  EXPECT_EQ(all[4].num_files, 1u);
  EXPECT_LT(all[3].total_tokens, all[4].total_tokens);
}

TEST(DatagenTest, DeterministicForSeed) {
  DatasetSpec spec = DatasetD();
  spec.total_tokens = 2000;
  TokenizedCorpus a = GenerateTokens(spec);
  TokenizedCorpus b = GenerateTokens(spec);
  EXPECT_EQ(a.file_tokens, b.file_tokens);
  spec.seed ^= 1;
  TokenizedCorpus c = GenerateTokens(spec);
  EXPECT_NE(a.file_tokens, c.file_tokens);
}

TEST(DatagenTest, ScaleShrinksOutput) {
  DatasetSpec spec = DatasetB();
  TokenizedCorpus full = GenerateTokens(spec, 0.1);
  TokenizedCorpus small = GenerateTokens(spec, 0.02);
  EXPECT_GT(full.total_tokens(), small.total_tokens());
}

TEST(DatagenTest, FileCountAndVocabularyRespected) {
  DatasetSpec spec = DatasetA();
  spec.num_files = 37;
  spec.total_tokens = 5000;
  TokenizedCorpus t = GenerateTokens(spec);
  EXPECT_EQ(t.file_tokens.size(), 37u);
  for (const auto& file : t.file_tokens) {
    EXPECT_FALSE(file.empty());
    for (uint32_t w : file) EXPECT_LT(w, spec.vocabulary);
  }
  EXPECT_LE(t.vocabulary_size(), spec.vocabulary);
}

TEST(DatagenTest, TemplateReuseCompresses) {
  // The generated redundancy must be real: Sequitur should find substantial
  // reuse (this is the property the whole evaluation relies on).
  DatasetSpec spec = DatasetE();
  spec.total_tokens = 20000;
  TokenizedCorpus t = GenerateTokens(spec);
  auto g = CompressTokens(t);
  ASSERT_TRUE(g.ok());
  auto stats = ComputeDagStats(*g);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->reuse_factor, 2.0);
  EXPECT_GT(stats->max_depth, 2u);
  EXPECT_GT(stats->num_rules, 50u);
}

TEST(DatagenTest, CorpusTextMatchesTokens) {
  DatasetSpec spec = DatasetD();
  spec.total_tokens = 500;
  Corpus corpus = GenerateCorpus(spec);
  ASSERT_EQ(corpus.num_files(), 1u);
  EXPECT_FALSE(corpus.file_contents[0].empty());
  // Round trip through the tokenizer preserves the token count.
  TokenizedCorpus direct = GenerateTokens(spec);
  TokenizedCorpus retok = Tokenize(corpus);
  EXPECT_EQ(retok.total_tokens(), direct.total_tokens());
}

TEST(MarkerCorpusTest, MarkersAreDeterministicallyRejectedByBloom) {
  MarkerCorpusSpec spec;
  spec.num_docs = 6;
  spec.relevant = 2;
  spec.num_markers = 3;
  auto built = BuildMarkerCorpus(spec);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->markers.size(), 3u);
  ASSERT_EQ(built->corpus.partitions.size(), 6u);
  // The construction contract: every marker-free document's root Bloom
  // provably rejects every marker; every relevant document passes them.
  for (uint32_t d = 0; d < 6; ++d) {
    const Grammar& g = built->corpus.partitions[d];
    const uint64_t bloom = DocumentBloom(g);
    for (uint32_t m : built->markers) {
      const uint64_t mask = WordBloomMask(m);
      EXPECT_EQ((bloom & mask) == mask, d < 2)
          << "doc " << d << " marker " << m;
    }
  }
}

TEST(MarkerCorpusTest, InvalidSpecIsRejected) {
  MarkerCorpusSpec spec;
  spec.num_docs = 4;
  spec.relevant = 5;  // more relevant docs than docs
  EXPECT_FALSE(BuildMarkerCorpus(spec).ok());
  spec.relevant = 2;
  spec.files_per_doc = 0;
  EXPECT_FALSE(BuildMarkerCorpus(spec).ok());
  spec.files_per_doc = 2;
  spec.num_docs = 0;
  EXPECT_FALSE(BuildMarkerCorpus(spec).ok());
}

}  // namespace
}  // namespace gtadoc
