#ifndef GTADOC_TESTS_CONTAINER_FIXTURES_H_
#define GTADOC_TESTS_CONTAINER_FIXTURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/io.h"
#include "format/grammar.h"

namespace gtadoc {

/// The paper's Figure 1 grammar: words w1..w4 (ids 0..3), one splitter (4),
/// rules R0=5: [R1 R1 spt1 R2 w1], R1=6: [R2 w3 R2 w4], R2=7: [w1 w2].
inline Grammar Figure1Grammar() {
  Grammar g;
  g.num_words = 4;
  g.num_splitters = 1;
  g.words = {"w1", "w2", "w3", "w4"};
  g.rules = {{6, 6, 4, 7, 0}, {7, 2, 7, 3}, {0, 1}};
  return g;
}

/// Figure1Grammar() as a version-2 container with its dictionary: the
/// layout that persists one 8-byte subtree Bloom filter per rule between the
/// dictionary and the rule bodies (flags bit 1). SerializeGrammar never
/// writes it; ParseGrammar must keep loading it.
inline std::string Figure1V2Container() {
  static const uint8_t kBytes[] = {
      0x47, 0x54, 0x44, 0x43, 0x02, 0x03, 0x04, 0x01, 0x03, 0x02, 0x77, 0x31,
      0x02, 0x77, 0x32, 0x02, 0x77, 0x33, 0x02, 0x77, 0x34, 0x02, 0x40, 0x00,
      0x08, 0x00, 0xa0, 0x48, 0x80, 0x02, 0x40, 0x00, 0x08, 0x00, 0xa0, 0x48,
      0x80, 0x02, 0x00, 0x00, 0x00, 0x00, 0x80, 0x48, 0x00, 0x05, 0x06, 0x06,
      0x04, 0x07, 0x00, 0x04, 0x07, 0x02, 0x07, 0x03, 0x02, 0x00, 0x01, 0x5c,
      0x37, 0xb6, 0xcd, 0x98, 0x4f, 0x49, 0x7d};
  return std::string(reinterpret_cast<const char*>(kBytes), sizeof(kBytes));
}

/// Byte offset and rule count of Figure1V2Container()'s Bloom section: three
/// little-endian u64 filters, rules 0..2, right after the dictionary.
constexpr size_t kFigure1V2BloomOffset = 21;
constexpr size_t kFigure1V2BloomCount = 3;

/// The same grammar as a version-1 container (no Bloom section) — the
/// exact bytes SerializeGrammar has always written for it.
inline std::string Figure1V1Container() {
  static const uint8_t kBytes[] = {
      0x47, 0x54, 0x44, 0x43, 0x01, 0x01, 0x04, 0x01, 0x03, 0x02, 0x77, 0x31,
      0x02, 0x77, 0x32, 0x02, 0x77, 0x33, 0x02, 0x77, 0x34, 0x05, 0x06, 0x06,
      0x04, 0x07, 0x00, 0x04, 0x07, 0x02, 0x07, 0x03, 0x02, 0x00, 0x01, 0xad,
      0x63, 0x93, 0xe0, 0x17, 0x89, 0x38, 0x54};
  return std::string(reinterpret_cast<const char*>(kBytes), sizeof(kBytes));
}

/// Replaces the trailing FNV-1a checksum of `container` (>= 8 bytes) with
/// the checksum of its new body, so edited bytes reach the body parser
/// instead of failing the checksum gate.
inline std::string Reseal(std::string container) {
  const size_t body = container.size() - 8;
  const uint64_t checksum = Fnv1a64(container.data(), body);
  for (int i = 0; i < 8; ++i) {
    container[body + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  return container;
}

/// Writes `g` in the version-2 layout, with `rule_blooms` (one u64 per
/// rule) as its Bloom section — how containers carrying persisted filters
/// were written. V2Container(Figure1Grammar(), its rule Blooms) is
/// Figure1V2Container().
inline std::string V2Container(const Grammar& g,
                               const std::vector<uint64_t>& rule_blooms) {
  BinaryWriter w;
  w.PutRaw("GTDC", 4);
  w.PutU8(2);
  const bool dict = g.words.size() == g.num_words;
  w.PutU8((dict ? 0x01 : 0) | 0x02);
  w.PutVarint32(g.num_words);
  w.PutVarint32(g.num_splitters);
  w.PutVarint64(g.rules.size());
  if (dict) {
    for (const std::string& word : g.words) w.PutLengthPrefixed(word);
  }
  for (uint64_t bloom : rule_blooms) w.PutU64(bloom);
  for (const auto& body : g.rules) {
    w.PutVarint32(static_cast<uint32_t>(body.size()));
    for (uint32_t sym : body) w.PutVarint32(sym);
  }
  w.PutU64(0);  // checksum placeholder
  return Reseal(w.Release());
}

}  // namespace gtadoc

#endif  // GTADOC_TESTS_CONTAINER_FIXTURES_H_
