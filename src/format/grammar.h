#ifndef GTADOC_FORMAT_GRAMMAR_H_
#define GTADOC_FORMAT_GRAMMAR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gtadoc {

/// \brief Flat TADOC grammar (the compressed representation).
///
/// Symbol id space (Figure 1(b) of the paper, normalized):
///   - word terminals:     ids [0, num_words)
///   - splitter terminals: ids [num_words, num_words + num_splitters)
///   - rules:              ids [num_terminals(),
///                              num_terminals() + rules.size())
///
/// Rule 0 (symbol id num_terminals()) is the root and holds the whole corpus
/// with one unique splitter terminal between consecutive files; n files use
/// n-1 splitters, so splitter k separates file k from file k+1.
struct Grammar {
  uint32_t num_words = 0;
  uint32_t num_splitters = 0;
  /// Rule bodies; each element is a symbol id per the scheme above.
  std::vector<std::vector<uint32_t>> rules;
  /// Dictionary: id -> word text, size num_words. May be empty when analytics
  /// only need ids (the engines never look at strings).
  std::vector<std::string> words;

  uint32_t num_terminals() const { return num_words + num_splitters; }
  uint32_t num_files() const { return num_splitters + 1; }

  bool IsWord(uint32_t id) const { return id < num_words; }
  bool IsSplitter(uint32_t id) const {
    return id >= num_words && id < num_terminals();
  }
  bool IsTerminal(uint32_t id) const { return id < num_terminals(); }
  bool IsRule(uint32_t id) const { return id >= num_terminals(); }

  uint32_t RuleIndex(uint32_t id) const { return id - num_terminals(); }
  uint32_t RuleId(uint32_t rule_index) const {
    return num_terminals() + rule_index;
  }
  /// Index of the file that splitter `id` terminates.
  uint32_t SplitterIndex(uint32_t id) const { return id - num_words; }

  const std::vector<uint32_t>& root() const { return rules[0]; }
};

/// The two k=2 Bloom bits of word id `word` (SplitMix64-derived, stable
/// across platforms). Shared by every filter builder and probe: word w may
/// appear in a filter's vocabulary only if
/// (filter & WordBloomMask(w)) == WordBloomMask(w).
inline uint64_t WordBloomMask(uint32_t word) {
  uint64_t x = word + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return (1ull << (x & 63)) | (1ull << ((x >> 6) & 63));
}

/// The whole document's vocabulary filter: WordBloomMask ORed over every
/// word symbol of every rule body. For a valid grammar (every rule reachable
/// from the root) it equals the root rule's subtree filter,
/// DocumentIndex::rule_blooms[0], without building the index.
inline uint64_t DocumentBloom(const Grammar& g) {
  uint64_t bloom = 0;
  for (const auto& body : g.rules) {
    for (uint32_t sym : body) {
      if (g.IsWord(sym)) bloom |= WordBloomMask(sym);
    }
  }
  return bloom;
}

}  // namespace gtadoc

#endif  // GTADOC_FORMAT_GRAMMAR_H_
