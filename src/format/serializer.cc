#include "format/serializer.h"

#include <cstring>

#include "common/hash.h"
#include "common/io.h"

namespace gtadoc {

namespace {
constexpr char kMagic[4] = {'G', 'T', 'D', 'C'};
/// v1: header + dictionary + rules, the only version written. v2 containers
/// also carry a per-rule subtree Bloom section (kFlagRuleBlooms) between the
/// dictionary and the rules; the filters are a pure function of the rule
/// bodies (DocumentIndex::Build derives them), so the reader bounds-checks
/// that section and skips it.
constexpr uint8_t kVersion = 1;
constexpr uint8_t kVersionBlooms = 2;
constexpr uint8_t kFlagDictionary = 0x01;
constexpr uint8_t kFlagRuleBlooms = 0x02;
}  // namespace

std::string SerializeGrammar(const Grammar& g, bool include_dictionary) {
  BinaryWriter w;
  w.PutRaw(kMagic, sizeof(kMagic));
  const bool dict = include_dictionary && g.words.size() == g.num_words;
  w.PutU8(kVersion);
  w.PutU8(dict ? kFlagDictionary : 0);
  w.PutVarint32(g.num_words);
  w.PutVarint32(g.num_splitters);
  w.PutVarint64(g.rules.size());
  if (dict) {
    for (const std::string& word : g.words) w.PutLengthPrefixed(word);
  }
  for (const auto& body : g.rules) {
    w.PutVarint32(static_cast<uint32_t>(body.size()));
    for (uint32_t sym : body) w.PutVarint32(sym);
  }
  const uint64_t checksum = Fnv1a64(w.buffer().data(), w.buffer().size());
  w.PutU64(checksum);
  return w.Release();
}

Result<Grammar> ParseGrammar(Slice data) {
  if (data.size() < sizeof(kMagic) + 2 + 8) {
    return Status::Corruption("container too small");
  }
  // Verify checksum over everything but the trailing 8 bytes.
  const size_t body_len = data.size() - 8;
  BinaryReader tail(Slice(data.data() + body_len, 8));
  auto stored = tail.GetU64();
  if (!stored.ok()) return stored.status();
  if (Fnv1a64(data.data(), body_len) != *stored) {
    return Status::Corruption("checksum mismatch");
  }

  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic");
  }
  BinaryReader r(
      Slice(data.data() + sizeof(kMagic), body_len - sizeof(kMagic)));
  uint8_t version = 0;
  uint8_t flags = 0;
  GTADOC_ASSIGN_OR_RETURN(version, r.GetU8());
  GTADOC_ASSIGN_OR_RETURN(flags, r.GetU8());
  if (version != kVersion && version != kVersionBlooms) {
    return Status::Corruption("unsupported version " +
                              std::to_string(version));
  }
  const bool has_blooms = (flags & kFlagRuleBlooms) != 0;
  if (version == kVersion && has_blooms) {
    return Status::Corruption("v1 container cannot carry rule Blooms");
  }

  Grammar g;
  uint64_t num_rules = 0;
  GTADOC_ASSIGN_OR_RETURN(g.num_words, r.GetVarint32());
  GTADOC_ASSIGN_OR_RETURN(g.num_splitters, r.GetVarint32());
  GTADOC_ASSIGN_OR_RETURN(num_rules, r.GetVarint64());
  if (num_rules == 0) return Status::Corruption("grammar has no rules");
  // Symbol ids are 32-bit: terminals plus rules must fit, or the id-range
  // checks below would wrap.
  const uint64_t max_symbol =
      static_cast<uint64_t>(g.num_words) + g.num_splitters + num_rules;
  if (max_symbol > (1ull << 32)) {
    return Status::Corruption("symbol space exceeds 32-bit ids");
  }
  // Every rule costs at least one body-length byte and every dictionary
  // word one length byte, so a fabricated count larger than the remaining
  // input is rejected before any allocation sized from it (a crafted header
  // must not force a multi-GiB reserve).
  if (num_rules > r.remaining()) {
    return Status::Corruption("rule count exceeds input size");
  }

  if ((flags & kFlagDictionary) != 0) {
    if (g.num_words > r.remaining()) {
      return Status::Corruption("dictionary word count exceeds input size");
    }
    g.words.reserve(g.num_words);
    for (uint32_t i = 0; i < g.num_words; ++i) {
      auto word = r.GetLengthPrefixed();
      if (!word.ok()) return word.status();
      g.words.push_back(word->ToString());
    }
  }

  if (has_blooms) {
    // Divide instead of multiplying: a fabricated 2^61-rule count must not
    // wrap the size check.
    if (num_rules > r.remaining() / 8) {
      return Status::Corruption("rule Bloom section truncated");
    }
    for (uint64_t i = 0; i < num_rules; ++i) {
      auto bloom = r.GetU64();
      if (!bloom.ok()) return bloom.status();
    }
  }

  g.rules.resize(num_rules);
  for (uint64_t i = 0; i < num_rules; ++i) {
    uint32_t len;
    GTADOC_ASSIGN_OR_RETURN(len, r.GetVarint32());
    if (len > body_len) return Status::Corruption("rule body length too large");
    g.rules[i].reserve(len);
    for (uint32_t j = 0; j < len; ++j) {
      uint32_t sym;
      GTADOC_ASSIGN_OR_RETURN(sym, r.GetVarint32());
      if (sym >= max_symbol) {
        return Status::Corruption("symbol id out of range");
      }
      g.rules[i].push_back(sym);
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after rules");
  return g;
}

Status WriteGrammarFile(const Grammar& g, const std::string& path,
                        bool include_dictionary) {
  return WriteStringToFile(path, SerializeGrammar(g, include_dictionary));
}

Result<Grammar> ReadGrammarFile(const std::string& path) {
  std::string data;
  GTADOC_RETURN_IF_ERROR(ReadFileToString(path, &data));
  return ParseGrammar(data);
}

}  // namespace gtadoc
