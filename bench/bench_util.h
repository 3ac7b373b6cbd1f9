#ifndef GTADOC_BENCH_BENCH_UTIL_H_
#define GTADOC_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analytics/uncompressed.h"
#include "datagen/datagen.h"
#include "format/dag.h"
#include "format/serializer.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "tadoc/cpu_engine.h"

namespace gtadoc {
namespace bench {

/// One fully-prepared dataset: tokens, grammar, stats.
struct PreparedDataset {
  DatasetSpec spec;
  TokenizedCorpus tokens;
  Grammar grammar;
  DagStats stats;
};

/// Generates and compresses one preset (scale lets smoke runs shrink).
inline PreparedDataset Prepare(const DatasetSpec& spec, double scale = 1.0) {
  PreparedDataset d;
  d.spec = spec;
  d.tokens = GenerateTokens(spec, scale);
  auto g = CompressTokens(d.tokens);
  if (!g.ok()) {
    std::fprintf(stderr, "compress(%s): %s\n", spec.name.c_str(),
                 g.status().ToString().c_str());
    std::abort();
  }
  d.grammar = std::move(*g);
  d.stats = *ComputeDagStats(d.grammar);
  return d;
}

/// Environment knob: GTADOC_BENCH_SCALE shrinks every dataset (CI smoke).
/// Unset means 1.0; anything but a finite positive number exits with 2.
inline double BenchScale() {
  const char* env = std::getenv("GTADOC_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(v) || v <= 0) {
    std::fprintf(stderr,
                 "GTADOC_BENCH_SCALE='%s' is not a positive number\n", env);
    std::exit(2);
  }
  return v;
}

/// Geometric mean helper for "average speedup" rows (paper convention).
inline double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double log_sum = 0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

inline void PrintRule(char c = '-', int width = 96) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace bench
}  // namespace gtadoc

#endif  // GTADOC_BENCH_BENCH_UTIL_H_
