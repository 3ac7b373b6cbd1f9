// Example: a command-line tool around the TADOC container format —
// compress text files into a .tdc grammar, inspect its statistics, run an
// analytics task on it, or decompress it back to text.
//
// Usage:
//   tdc_tool compress <out.tdc> <input.txt>...
//   tdc_tool stats <file.tdc>
//   tdc_tool run <file.tdc> <task>        (task: wordCount | sort | ...)
//   tdc_tool decompress <file.tdc>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/io.h"
#include "format/dag.h"
#include "format/serializer.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"

using namespace gtadoc;

namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int Compress(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: tdc_tool compress <out.tdc> <input>...\n");
    return 2;
  }
  Corpus corpus;
  for (int i = 3; i < argc; ++i) {
    std::string content;
    Status st = ReadFileToString(argv[i], &content);
    if (!st.ok()) return Fail(st);
    corpus.file_names.push_back(argv[i]);
    corpus.file_contents.push_back(std::move(content));
  }
  auto g = CompressCorpus(corpus);
  if (!g.ok()) return Fail(g.status());
  Status st = WriteGrammarFile(*g, argv[2]);
  if (!st.ok()) return Fail(st);
  auto stats = ComputeDagStats(*g);
  std::printf("%zu files (%zu bytes) -> %s: %llu rules, reuse %.2fx\n",
              corpus.num_files(), corpus.TotalBytes(), argv[2],
              static_cast<unsigned long long>(stats->num_rules),
              stats->reuse_factor);
  return 0;
}

int Stats(const char* path) {
  auto g = ReadGrammarFile(path);
  if (!g.ok()) return Fail(g.status());
  auto stats = ComputeDagStats(*g);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("files:        %llu\n",
              static_cast<unsigned long long>(stats->num_files));
  std::printf("vocabulary:   %llu\n",
              static_cast<unsigned long long>(stats->vocabulary_size));
  std::printf("rules:        %llu\n",
              static_cast<unsigned long long>(stats->num_rules));
  std::printf("symbols:      %llu\n",
              static_cast<unsigned long long>(stats->total_body_symbols));
  std::printf("expanded:     %llu tokens\n",
              static_cast<unsigned long long>(stats->expanded_tokens));
  std::printf("reuse:        %.2fx\n", stats->reuse_factor);
  std::printf("DAG depth:    %u\n", stats->max_depth);
  return 0;
}

int RunTask(const char* path, const char* task_name) {
  auto g = ReadGrammarFile(path);
  if (!g.ok()) return Fail(g.status());
  Task task = Task::kWordCount;
  bool found = false;
  // Resolve over the full registry, so every registered kernel — the paper
  // six, keywordSearch, topKWords, tfIdf, out-of-tree ones — is runnable.
  for (Task t : TaskRegistry::RegisteredTasks()) {
    if (std::strcmp(TaskName(t), task_name) == 0) {
      task = t;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown task '%s'\n", task_name);
    return 2;
  }
  GTadocEngine::Options opt;
  opt.gpu = gpu::VoltaPlatform().gpu;
  auto engine = GTadocEngine::Create(&*g, opt);
  if (!engine.ok()) return Fail(engine.status());
  auto run = (*engine)->Run(task);
  if (!run.ok()) return Fail(run.status());
  std::printf("%s done in %.3f ms (simulated GPU): %s\n", task_name,
              run->timing.total_seconds() * 1e3, run->result.Digest().c_str());
  // Show a small sample for the human-readable tasks.
  if (task == Task::kSort && g->words.size() == g->num_words) {
    for (size_t i = 0; i < run->result.sort.size() && i < 10; ++i) {
      std::printf("  %-16s %llu\n",
                  g->words[run->result.sort[i].first].c_str(),
                  static_cast<unsigned long long>(run->result.sort[i].second));
    }
  }
  return 0;
}

int Decompress(const char* path) {
  auto g = ReadGrammarFile(path);
  if (!g.ok()) return Fail(g.status());
  auto corpus = DecompressCorpus(*g);
  if (!corpus.ok()) return Fail(corpus.status());
  for (size_t f = 0; f < corpus->num_files(); ++f) {
    const std::string out = "decompressed_" + std::to_string(f) + ".txt";
    Status st = WriteStringToFile(out, corpus->file_contents[f]);
    if (!st.ok()) return Fail(st);
    std::printf("wrote %s (%zu bytes)\n", out.c_str(),
                corpus->file_contents[f].size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: tdc_tool compress|stats|run|decompress ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "compress") return Compress(argc, argv);
  if (cmd == "stats") return Stats(argv[2]);
  if (cmd == "run") {
    if (argc < 4) {
      std::fprintf(stderr, "usage: tdc_tool run <file.tdc> <task>\n");
      return 2;
    }
    return RunTask(argv[2], argv[3]);
  }
  if (cmd == "decompress") return Decompress(argv[2]);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
