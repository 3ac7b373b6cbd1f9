#ifndef GTADOC_DATAGEN_DATAGEN_H_
#define GTADOC_DATAGEN_DATAGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "sequitur/compressor.h"
#include "sequitur/tokenizer.h"

namespace gtadoc {

/// \brief Parameters of a synthetic corpus.
///
/// The paper's five datasets (Table II) are not redistributable here, so the
/// generators reproduce each dataset's *character* instead: its file-count
/// profile, vocabulary skew and redundancy structure. Redundancy comes from
/// sentence templates — frequently repeated word sequences are exactly what
/// Sequitur turns into reusable rules, mirroring natural-language phrase
/// repetition.
struct DatasetSpec {
  std::string name;
  std::string description;
  uint32_t num_files = 1;
  uint64_t total_tokens = 100000;  ///< across the whole corpus
  uint32_t vocabulary = 5000;      ///< distinct words to draw from
  double zipf_theta = 0.9;         ///< word-frequency skew
  uint32_t num_templates = 400;    ///< repeated sentence templates
  uint32_t template_len = 8;       ///< words per template
  double template_prob = 0.8;      ///< share of sentences drawn from templates
  uint64_t seed = 1;
};

/// Table II presets, scaled to in-memory experiment sizes. The relative
/// shapes match the paper: A = many small files, B = 4 large documents,
/// C = the largest corpus (driving the cluster baseline), D = one small file,
/// E = one large file.
DatasetSpec DatasetA();
DatasetSpec DatasetB();
DatasetSpec DatasetC();
DatasetSpec DatasetD();
DatasetSpec DatasetE();

/// All five presets in paper order.
std::vector<DatasetSpec> AllDatasets();

/// Generates the token streams directly (word id space [0, vocabulary)).
/// `scale` multiplies total_tokens (tests use small scales).
TokenizedCorpus GenerateTokens(const DatasetSpec& spec, double scale = 1.0);

/// Generates a text corpus ("w<id>" words joined by spaces).
Corpus GenerateCorpus(const DatasetSpec& spec, double scale = 1.0);

/// \brief Parameters of a selective-serving corpus (BuildMarkerCorpus).
struct MarkerCorpusSpec {
  uint32_t num_docs = 8;
  /// Documents [0, relevant) carry the markers; the rest provably reject
  /// them by root Bloom.
  uint32_t relevant = 4;
  uint32_t num_markers = 2;
  uint32_t files_per_doc = 2;
  uint64_t tokens_per_doc = 1200;
  uint64_t seed = 11;
  double scale = 1.0;  ///< multiplies tokens_per_doc (bench smoke runs)
};

/// A corpus built by BuildMarkerCorpus.
struct MarkerCorpus {
  PartitionedCorpus corpus;
  /// The injected marker word ids (size num_markers on success).
  std::vector<uint32_t> markers;
  /// One extra injected word chosen so document `relevant`'s root Bloom
  /// falsely PASSES it (the superset case a server must execute, not
  /// skip); UINT32_MAX when the candidate space held none.
  uint32_t false_positive = UINT32_MAX;
  uint32_t num_words = 0;  ///< dictionary size incl. the candidate space
};

/// Builds the deterministic corpus-skip fixture shared by the server tests
/// and the bench gates: `num_docs` documents (files_per_doc files each)
/// over a small shared vocabulary, plus `num_markers` marker words injected
/// ONLY into documents [0, relevant). Markers are chosen so every
/// marker-free document's root Bloom filter (DocumentBloom) provably rejects
/// them — the skip a consumer measures is deterministic, not seed luck.
/// Fails with Internal when the candidate space cannot supply num_markers
/// such words (raise the space or shrink the vocabulary).
Result<MarkerCorpus> BuildMarkerCorpus(const MarkerCorpusSpec& spec);

}  // namespace gtadoc

#endif  // GTADOC_DATAGEN_DATAGEN_H_
