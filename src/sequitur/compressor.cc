#include "sequitur/compressor.h"

#include <vector>

#include "sequitur/sequitur.h"

namespace gtadoc {

Result<Grammar> CompressTokenStreams(
    const std::vector<std::vector<uint32_t>>& file_tokens, uint32_t num_words) {
  if (file_tokens.empty()) {
    return Status::InvalidArgument("corpus has no files");
  }
  size_t total = 0;
  for (const auto& f : file_tokens) total += f.size();
  if (total == 0) return Status::InvalidArgument("corpus has no tokens");

  const uint32_t num_files = static_cast<uint32_t>(file_tokens.size());
  const uint32_t num_splitters = num_files - 1;

  SequiturEncoder enc;
  for (uint32_t f = 0; f < num_files; ++f) {
    if (f > 0) {
      // Unique splitter id for the boundary between file f-1 and file f.
      enc.Append(num_words + (f - 1));
    }
    for (uint32_t tok : file_tokens[f]) enc.Append(tok);
  }
  return enc.Flatten(num_words, num_splitters);
}

Result<Grammar> CompressTokens(const TokenizedCorpus& tokens) {
  auto g = CompressTokenStreams(tokens.file_tokens,
                                static_cast<uint32_t>(tokens.words.size()));
  if (!g.ok()) return g.status();
  g->words = tokens.words;
  return g;
}

Result<Grammar> CompressCorpus(const Corpus& corpus) {
  return CompressTokens(Tokenize(corpus));
}

Result<PartitionedCorpus> CorpusFromDocuments(std::vector<Grammar> documents) {
  if (documents.empty()) return Status::InvalidArgument("no documents");
  PartitionedCorpus out;
  uint32_t base = 0;
  for (Grammar& g : documents) {
    out.file_base.push_back(base);
    base += g.num_files();
    out.partitions.push_back(std::move(g));
  }
  out.total_files = base;
  return out;
}

Result<PartitionedCorpus> PartitionTokens(const TokenizedCorpus& tokens,
                                          uint32_t num_partitions) {
  if (num_partitions == 0) return Status::InvalidArgument("0 partitions");
  if (tokens.file_tokens.size() < num_partitions) {
    return Status::InvalidArgument("fewer files than partitions");
  }

  // Contiguous split balanced by token count: partition p ends once the
  // running token total crosses p's share, while leaving at least one file
  // for every remaining partition.
  const size_t total = tokens.total_tokens();
  PartitionedCorpus out;
  out.total_files = static_cast<uint32_t>(tokens.file_tokens.size());
  size_t file = 0;
  size_t consumed = 0;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    const size_t target = total * (p + 1) / num_partitions;
    const size_t remaining_parts = num_partitions - p;
    out.file_base.push_back(static_cast<uint32_t>(file));
    std::vector<std::vector<uint32_t>> part_files;
    const bool last = p + 1 == num_partitions;
    while (file < tokens.file_tokens.size() &&
           (part_files.empty() || consumed < target || last) &&
           tokens.file_tokens.size() - file >= remaining_parts) {
      consumed += tokens.file_tokens[file].size();
      part_files.push_back(tokens.file_tokens[file]);
      ++file;
    }
    auto g = CompressTokenStreams(part_files,
                                  static_cast<uint32_t>(tokens.words.size()));
    if (!g.ok()) return g.status();
    out.partitions.push_back(std::move(*g));
  }
  return out;
}

Result<PartitionedCorpus> PartitionAndCompress(const Corpus& corpus,
                                               uint32_t num_partitions) {
  return PartitionTokens(Tokenize(corpus), num_partitions);
}

Result<std::vector<std::vector<uint32_t>>> ExpandFiles(const Grammar& g) {
  if (g.rules.empty()) return Status::InvalidArgument("grammar has no rules");

  // Iteratively expand each rule into its terminal stream, children first.
  // Rules reference only other rules; cycles would be a corruption (a valid
  // grammar is a DAG), detected via an in-progress mark.
  enum class State : uint8_t { kUnvisited, kInProgress, kDone };
  std::vector<State> state(g.rules.size(), State::kUnvisited);
  std::vector<std::vector<uint32_t>> expansion(g.rules.size());

  // Explicit post-order DFS over rule indices.
  std::vector<std::pair<uint32_t, size_t>> stack;  // (rule index, position)
  stack.emplace_back(0, 0);
  state[0] = State::kInProgress;
  while (!stack.empty()) {
    auto& [ri, pos] = stack.back();
    const std::vector<uint32_t>& body = g.rules[ri];
    bool descended = false;
    while (pos < body.size()) {
      const uint32_t sym = body[pos];
      ++pos;
      if (!g.IsRule(sym)) continue;
      const uint32_t child = g.RuleIndex(sym);
      if (child >= g.rules.size()) {
        return Status::Corruption("rule id out of range");
      }
      if (state[child] == State::kInProgress) {
        return Status::Corruption("grammar contains a cycle");
      }
      if (state[child] == State::kUnvisited) {
        state[child] = State::kInProgress;
        stack.emplace_back(child, 0);
        descended = true;
        break;
      }
    }
    if (descended) continue;
    // All children expanded; produce this rule's expansion.
    std::vector<uint32_t>& out = expansion[ri];
    for (uint32_t sym : body) {
      if (g.IsRule(sym)) {
        const std::vector<uint32_t>& child = expansion[g.RuleIndex(sym)];
        out.insert(out.end(), child.begin(), child.end());
      } else {
        out.push_back(sym);
      }
    }
    state[ri] = State::kDone;
    stack.pop_back();
  }

  // Split the root expansion on splitter terminals.
  std::vector<std::vector<uint32_t>> files(g.num_files());
  uint32_t cur = 0;
  for (uint32_t sym : expansion[0]) {
    if (g.IsSplitter(sym)) {
      const uint32_t idx = g.SplitterIndex(sym);
      if (idx + 1 >= g.num_files()) {
        return Status::Corruption("splitter index out of range");
      }
      cur = idx + 1;
    } else {
      if (sym >= g.num_words) return Status::Corruption("bad terminal id");
      files[cur].push_back(sym);
    }
  }
  return files;
}

Result<Corpus> DecompressCorpus(const Grammar& g) {
  auto files = ExpandFiles(g);
  if (!files.ok()) return files.status();
  if (g.words.size() != g.num_words) {
    return Status::InvalidArgument("grammar is missing its dictionary");
  }
  Corpus out;
  out.file_contents.resize(files->size());
  out.file_names.resize(files->size());
  for (size_t f = 0; f < files->size(); ++f) {
    std::string& text = out.file_contents[f];
    for (size_t i = 0; i < (*files)[f].size(); ++i) {
      if (i > 0) text += ' ';
      text += g.words[(*files)[f][i]];
    }
    out.file_names[f] = "file" + std::to_string(f);
  }
  return out;
}

}  // namespace gtadoc
