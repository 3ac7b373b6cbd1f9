#include "datagen/datagen.h"

#include <algorithm>

#include "common/random.h"
#include "sequitur/compressor.h"

namespace gtadoc {

DatasetSpec DatasetA() {
  DatasetSpec s;
  s.name = "A";
  s.description = "NSFRAA-like: a large number of small files";
  s.num_files = 800;
  s.total_tokens = 240000;
  s.vocabulary = 12000;
  s.zipf_theta = 0.85;
  s.num_templates = 600;
  s.template_len = 8;
  s.template_prob = 0.8;
  s.seed = 0xA;
  return s;
}

DatasetSpec DatasetB() {
  DatasetSpec s;
  s.name = "B";
  s.description = "Wikipedia-like: four large web documents";
  s.num_files = 4;
  s.total_tokens = 280000;
  s.vocabulary = 20000;
  s.zipf_theta = 0.9;
  s.num_templates = 500;
  s.template_len = 10;
  s.template_prob = 0.75;
  s.seed = 0xB;
  return s;
}

DatasetSpec DatasetC() {
  DatasetSpec s;
  s.name = "C";
  s.description = "Large Wikipedia-like corpus (cluster baseline)";
  s.num_files = 60;
  s.total_tokens = 600000;
  s.vocabulary = 40000;
  s.zipf_theta = 0.9;
  s.num_templates = 1200;
  s.template_len = 10;
  s.template_prob = 0.8;
  s.seed = 0xC;
  return s;
}

DatasetSpec DatasetD() {
  DatasetSpec s;
  s.name = "D";
  s.description = "Yelp-COVID-like: one small structured file";
  s.num_files = 1;
  s.total_tokens = 120000;
  s.vocabulary = 2500;
  s.zipf_theta = 0.8;
  s.num_templates = 150;
  s.template_len = 6;
  s.template_prob = 0.85;
  s.seed = 0xD;
  return s;
}

DatasetSpec DatasetE() {
  DatasetSpec s;
  s.name = "E";
  s.description = "DBLP-like: one large highly-structured file";
  s.num_files = 1;
  s.total_tokens = 320000;
  s.vocabulary = 25000;
  s.zipf_theta = 0.95;
  s.num_templates = 800;
  s.template_len = 7;
  s.template_prob = 0.85;
  s.seed = 0xE;
  return s;
}

std::vector<DatasetSpec> AllDatasets() {
  return {DatasetA(), DatasetB(), DatasetC(), DatasetD(), DatasetE()};
}

TokenizedCorpus GenerateTokens(const DatasetSpec& spec, double scale) {
  TokenizedCorpus out;
  const uint64_t total =
      std::max<uint64_t>(spec.num_files * (spec.template_len + 2ull),
                         static_cast<uint64_t>(spec.total_tokens * scale));
  Rng rng(spec.seed);
  ZipfSampler word_zipf(spec.vocabulary, spec.zipf_theta, spec.seed ^ 0x5151);
  // Template popularity is itself zipfian: a few phrases dominate, which is
  // what gives the grammar deep shared rules.
  ZipfSampler template_zipf(std::max<uint32_t>(1, spec.num_templates), 0.7,
                            spec.seed ^ 0x7171);

  // Two-level redundancy, mirroring natural text: short *phrases* recur
  // inside longer *sentence templates*, so Sequitur infers nested rules
  // (phrase rules shared across template rules) and the DAG gains depth.
  const uint32_t num_phrases = std::max<uint32_t>(4, spec.num_templates * 2);
  ZipfSampler phrase_zipf(num_phrases, 0.7, spec.seed ^ 0x9191);
  std::vector<std::vector<uint32_t>> phrases(num_phrases);
  for (auto& ph : phrases) {
    ph.resize(2 + rng.Uniform(std::max<uint32_t>(2, spec.template_len / 2)));
    for (auto& w : ph) w = static_cast<uint32_t>(word_zipf.Next());
  }
  std::vector<std::vector<uint32_t>> templates(spec.num_templates);
  for (auto& t : templates) {
    const uint32_t refs = 2 + static_cast<uint32_t>(rng.Uniform(3));
    for (uint32_t i = 0; i < refs; ++i) {
      const auto& ph = phrases[phrase_zipf.Next()];
      t.insert(t.end(), ph.begin(), ph.end());
    }
  }

  out.file_tokens.resize(spec.num_files);
  const uint64_t per_file = total / spec.num_files;
  uint32_t max_word = 0;
  for (uint32_t f = 0; f < spec.num_files; ++f) {
    auto& toks = out.file_tokens[f];
    toks.reserve(per_file + spec.template_len);
    while (toks.size() < per_file) {
      const double dice = rng.NextDouble();
      if (!templates.empty() && dice < spec.template_prob) {
        const auto& t = templates[template_zipf.Next()];
        toks.insert(toks.end(), t.begin(), t.end());
      } else if (dice < spec.template_prob + 0.15) {
        const auto& ph = phrases[phrase_zipf.Next()];
        toks.insert(toks.end(), ph.begin(), ph.end());
      } else {
        const uint32_t burst =
            1 + static_cast<uint32_t>(rng.Uniform(spec.template_len));
        for (uint32_t i = 0; i < burst; ++i) {
          toks.push_back(static_cast<uint32_t>(word_zipf.Next()));
        }
      }
    }
    for (uint32_t w : toks) max_word = std::max(max_word, w);
  }

  // The dictionary covers exactly the ids in use ("w<i>" naming).
  out.words.resize(max_word + 1);
  for (uint32_t i = 0; i <= max_word; ++i) {
    out.words[i] = "w" + std::to_string(i);
  }
  return out;
}

Corpus GenerateCorpus(const DatasetSpec& spec, double scale) {
  TokenizedCorpus tokens = GenerateTokens(spec, scale);
  Corpus out;
  out.file_names.resize(tokens.file_tokens.size());
  out.file_contents.resize(tokens.file_tokens.size());
  for (size_t f = 0; f < tokens.file_tokens.size(); ++f) {
    out.file_names[f] = spec.name + "_file" + std::to_string(f) + ".txt";
    std::string& text = out.file_contents[f];
    for (size_t i = 0; i < tokens.file_tokens[f].size(); ++i) {
      if (i > 0) text += ' ';
      text += tokens.words[tokens.file_tokens[f][i]];
    }
  }
  return out;
}

Result<MarkerCorpus> BuildMarkerCorpus(const MarkerCorpusSpec& mspec) {
  if (mspec.num_docs == 0 || mspec.files_per_doc == 0 ||
      mspec.relevant > mspec.num_docs) {
    return Status::InvalidArgument(
        "marker corpus spec needs num_docs > 0, files_per_doc > 0 and "
        "relevant <= num_docs");
  }
  // Marker ids are drawn from dictionary space beyond the generated
  // vocabulary; 4096 candidates over a 48-word base leaves plenty of Bloom
  // masks no document vocabulary covers.
  constexpr uint32_t kCandidateSpace = 4096;
  DatasetSpec spec = DatasetA();
  spec.num_files = mspec.num_docs * mspec.files_per_doc;
  spec.total_tokens = mspec.num_docs * mspec.tokens_per_doc;
  spec.vocabulary = 48;
  spec.seed = mspec.seed;
  TokenizedCorpus tok = GenerateTokens(spec, mspec.scale);

  MarkerCorpus out;
  out.num_words = spec.vocabulary + kCandidateSpace;

  std::vector<std::vector<std::vector<uint32_t>>> doc_files(mspec.num_docs);
  for (uint32_t f = 0; f < spec.num_files; ++f) {
    doc_files[f / mspec.files_per_doc].push_back(
        std::move(tok.file_tokens[f]));
  }

  // Compress the marker-free documents first: their root Blooms drive the
  // marker selection.
  std::vector<Grammar> docs(mspec.num_docs);
  std::vector<uint64_t> doc_blooms(mspec.num_docs, 0);
  for (uint32_t d = mspec.relevant; d < mspec.num_docs; ++d) {
    auto g = CompressTokenStreams(doc_files[d], out.num_words);
    if (!g.ok()) return g.status();
    docs[d] = std::move(*g);
    doc_blooms[d] = DocumentBloom(docs[d]);
  }
  for (uint32_t c = 0;
       c < kCandidateSpace && out.markers.size() < mspec.num_markers; ++c) {
    const uint32_t id = spec.vocabulary + c;
    const uint64_t mask = WordBloomMask(id);
    bool rejected_everywhere = true;
    bool passes_first_irrelevant = false;
    for (uint32_t d = mspec.relevant; d < mspec.num_docs; ++d) {
      if ((doc_blooms[d] & mask) == mask) {
        rejected_everywhere = false;
        if (d == mspec.relevant) passes_first_irrelevant = true;
      }
    }
    if (rejected_everywhere) {
      out.markers.push_back(id);
    } else if (passes_first_irrelevant && out.false_positive == UINT32_MAX) {
      out.false_positive = id;
    }
  }
  if (out.markers.size() < mspec.num_markers) {
    return Status::Internal("marker candidate space exhausted: found " +
                            std::to_string(out.markers.size()) + " of " +
                            std::to_string(mspec.num_markers));
  }

  // Inject every marker (and the false-positive probe word) into the
  // relevant documents, with varying per-file counts so hit totals are
  // non-trivial; consecutive copies also give phrase queries adjacency.
  for (uint32_t d = 0; d < mspec.relevant; ++d) {
    for (size_t f = 0; f < doc_files[d].size(); ++f) {
      for (size_t m = 0; m < out.markers.size(); ++m) {
        const uint32_t copies = 1 + static_cast<uint32_t>((d + f + m) % 3);
        for (uint32_t i = 0; i < copies; ++i) {
          doc_files[d][f].push_back(out.markers[m]);
        }
      }
      if (out.false_positive != UINT32_MAX) {
        doc_files[d][f].push_back(out.false_positive);
      }
    }
    auto g = CompressTokenStreams(doc_files[d], out.num_words);
    if (!g.ok()) return g.status();
    docs[d] = std::move(*g);
  }
  auto part = CorpusFromDocuments(std::move(docs));
  if (!part.ok()) return part.status();
  out.corpus = std::move(*part);
  return out;
}

}  // namespace gtadoc
