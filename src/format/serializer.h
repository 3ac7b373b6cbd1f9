#ifndef GTADOC_FORMAT_SERIALIZER_H_
#define GTADOC_FORMAT_SERIALIZER_H_

#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "format/grammar.h"

namespace gtadoc {

/// \brief Binary TADOC container: header, optional dictionary,
/// varint-encoded rule bodies, trailing FNV-1a checksum.
///
/// Layout:
///   magic  "GTDC"            (4 bytes)
///   version u8               (1)
///   flags   u8               (bit 0: dictionary)
///   num_words     varint32
///   num_splitters varint32
///   num_rules     varint64
///   [dictionary: num_words length-prefixed strings]
///   per rule: varint32 body length, then that many varint32 symbol ids
///   checksum u64 (FNV-1a of all preceding bytes)
///
/// Version 2 containers (flags bit 1) also hold num_rules u64 per-rule
/// Bloom filters between the dictionary and the rule bodies. ParseGrammar
/// still reads them and skips that section: the engines derive the same
/// filters from the rule bodies (DocumentIndex::rule_blooms).
///
/// ParseGrammar verifies the magic, version, checksum and every id range, and
/// returns Corruption on any mismatch — it never crashes on malformed input.
std::string SerializeGrammar(const Grammar& g, bool include_dictionary = true);

Result<Grammar> ParseGrammar(Slice data);

/// Convenience wrappers for on-disk .tdc files.
Status WriteGrammarFile(const Grammar& g, const std::string& path,
                        bool include_dictionary = true);
Result<Grammar> ReadGrammarFile(const std::string& path);

}  // namespace gtadoc

#endif  // GTADOC_FORMAT_SERIALIZER_H_
