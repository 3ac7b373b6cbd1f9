// Example: phrase (n-gram) analytics on compressed text — the
// sequence-sensitive workloads of Section IV-D. Counts every 3-word phrase
// per document and ranks documents per phrase, comparing the compressed-
// domain run against recomputing on raw text.
//
// Run: ./build/examples/ngram_analysis

#include <algorithm>
#include <cstdio>

#include "analytics/uncompressed.h"
#include "datagen/datagen.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"

using namespace gtadoc;

int main() {
  DatasetSpec spec = DatasetB();
  spec.num_files = 4;
  spec.total_tokens = 30000;
  TokenizedCorpus tokens = GenerateTokens(spec);
  auto grammar = CompressTokens(tokens);
  if (!grammar.ok()) {
    std::fprintf(stderr, "compress: %s\n", grammar.status().ToString().c_str());
    return 1;
  }

  GTadocEngine::Options opt;
  opt.gpu = gpu::TuringPlatform().gpu;
  opt.ngram_len = 3;
  auto engine = GTadocEngine::Create(&*grammar, opt);
  if (!engine.ok()) return 1;

  auto counts = (*engine)->Run(Task::kSequenceCount);
  auto ranked = (*engine)->Run(Task::kRankedInvertedIndex);
  if (!counts.ok() || !ranked.ok()) {
    std::fprintf(stderr, "sequence analytics failed\n");
    return 1;
  }

  // Most frequent phrase overall.
  const RankedInvertedIndexResult& index = ranked->result.ranked_inverted_index;
  size_t best = index.size();
  uint64_t best_count = 0;
  for (size_t g = 0; g < index.size(); ++g) {
    uint64_t total = 0;
    for (const auto& [f, c] : index.postings_at(g)) total += c;
    if (total > best_count) {
      best_count = total;
      best = g;
    }
  }
  std::printf("%zu distinct 3-word phrases across %u documents\n",
              index.size(), grammar->num_files());
  if (best < index.size()) {
    const Span<uint32_t> gram = index.gram(best);
    std::printf("most frequent phrase: \"%s %s %s\" (%llu occurrences)\n",
                tokens.words[gram[0]].c_str(), tokens.words[gram[1]].c_str(),
                tokens.words[gram[2]].c_str(),
                static_cast<unsigned long long>(best_count));
    std::printf("per-document ranking:");
    for (const auto& [f, c] : index.postings_at(best)) {
      std::printf(" doc%u:%llu", f, static_cast<unsigned long long>(c));
    }
    std::printf("\n");
  }

  // Cross-check against raw text (this is what G-TADOC avoids doing).
  UncompressedAnalytics raw(tokens.file_tokens, 3);
  const bool counts_ok =
      counts->result.SameAs(raw.RunSequential(Task::kSequenceCount));
  const bool ranked_ok =
      ranked->result.SameAs(raw.RunSequential(Task::kRankedInvertedIndex));
  std::printf("verification against raw text: %s\n",
              counts_ok && ranked_ok ? "identical" : "MISMATCH");
  std::printf("compressed-domain time: %.3f ms (simulated)\n",
              counts->timing.total_seconds() * 1e3);
  return counts_ok && ranked_ok ? 0 : 1;
}
