#ifndef GTADOC_SEQUITUR_COMPRESSOR_H_
#define GTADOC_SEQUITUR_COMPRESSOR_H_

#include "common/result.h"
#include "format/grammar.h"
#include "sequitur/tokenizer.h"

namespace gtadoc {

/// \brief End-to-end TADOC compression: corpus -> dictionary conversion ->
/// Sequitur -> flat grammar.
///
/// A unique splitter terminal is inserted between consecutive files so that
/// no rule spans a file boundary (Section II-A of the paper). An empty corpus
/// or a corpus with zero tokens is InvalidArgument.
Result<Grammar> CompressCorpus(const Corpus& corpus);

/// Compresses an already-tokenized corpus (skips string handling; used by
/// benchmarks that sweep synthetic token streams).
Result<Grammar> CompressTokens(const TokenizedCorpus& tokens);

/// Compresses raw word-id streams against an external dictionary of
/// `num_words` words. The resulting grammar carries no word strings. Used by
/// the partitioned/distributed baseline, where every partition shares one
/// global dictionary so results merge by id.
Result<Grammar> CompressTokenStreams(
    const std::vector<std::vector<uint32_t>>& file_tokens, uint32_t num_words);

/// \brief A corpus split into independently-compressed partitions (documents)
/// sharing one dictionary — the unit of [4]'s coarse-grained parallelism ("it
/// only divides the original file into several sub-files, processes different
/// files separately, and then follows a merge process"), and the input of
/// every corpus-level engine.
///
/// Partition p owns global files [file_base[p], file_base[p] + nfiles_p).
struct PartitionedCorpus {
  std::vector<Grammar> partitions;
  std::vector<uint32_t> file_base;
  uint32_t total_files = 0;
};

/// Splits an already-tokenized corpus's files into `num_partitions`
/// contiguous groups balanced by token count and compresses each
/// independently against its one dictionary (CompressTokenStreams), so
/// partition results share the word ids of a grammar compressed from the
/// same tokens.
Result<PartitionedCorpus> PartitionTokens(const TokenizedCorpus& tokens,
                                          uint32_t num_partitions);

/// Tokenize, then PartitionTokens.
Result<PartitionedCorpus> PartitionAndCompress(const Corpus& corpus,
                                               uint32_t num_partitions);

/// Wraps already-compressed documents as a partitioned corpus (file_base =
/// running file totals). The documents must share one word-id space
/// (CompressTokenStreams against a common dictionary), so GPU and CPU runs
/// over the corpus merge like for like.
Result<PartitionedCorpus> CorpusFromDocuments(std::vector<Grammar> documents);

/// \brief Reconstructs the word-id stream of every file from the grammar.
///
/// This is full decompression — the thing TADOC avoids during analytics — and
/// exists for round-trip verification and for the uncompressed baselines.
Result<std::vector<std::vector<uint32_t>>> ExpandFiles(const Grammar& g);

/// Reconstructs text files (words joined with single spaces).
Result<Corpus> DecompressCorpus(const Grammar& g);

}  // namespace gtadoc

#endif  // GTADOC_SEQUITUR_COMPRESSOR_H_
