// Section VI-E "Comparison with GPU-accelerated uncompressed analytics": the
// paper implements the six tasks directly on uncompressed data on the GPU
// and reports that G-TADOC still wins by about 2x on average — the benefit of
// computing in the compressed domain (shared rules processed once).

#include "bench_util.h"

using namespace gtadoc;

int main() {
  // The paper's VI-E comparison runs at full dataset sizes, where per-op
  // work (not kernel dispatch) dominates. 3x the default token counts only
  // moves toward that regime: at GTADOC_BENCH_SCALE=1 the geomean reads
  // about 0.58x, and it reaches the paper's ~2x only at
  // GTADOC_BENCH_SCALE=16 (2.20x; see the scale sweep in docs/BENCHMARKS.md).
  const double scale = 3.0 * bench::BenchScale();
  const gpu::Platform platform = gpu::VoltaPlatform();
  std::printf(
      "SECTION VI-E: G-TADOC VS GPU-ACCELERATED UNCOMPRESSED ANALYTICS (%s)\n",
      platform.gpu.name.c_str());
  bench::PrintRule('=');
  std::printf("%-8s", "Dataset");
  for (Task task : AllTasks()) std::printf(" %12s", TaskName(task));
  std::printf("\n");
  bench::PrintRule();

  std::vector<double> all;
  for (const DatasetSpec& spec : AllDatasets()) {
    bench::PreparedDataset d = bench::Prepare(spec, scale);
    GTadocEngine::Options gopt;
    gopt.gpu = platform.gpu;
    auto engine = GTadocEngine::Create(&d.grammar, gopt);
    if (!engine.ok()) return 1;
    UncompressedAnalytics uncompressed(d.tokens.file_tokens);
    gpu::Device device(platform.gpu, 0);

    std::printf("%-8s", spec.name.c_str());
    for (Task task : AllTasks()) {
      auto gr = (*engine)->Run(task);
      auto ur = uncompressed.RunOnDevice(task, &device);
      if (!gr.ok() || !ur.ok()) {
        std::fprintf(stderr, "%s/%s failed\n", spec.name.c_str(),
                     TaskName(task));
        return 1;
      }
      if (!gr->result.SameAs(ur->result)) {
        std::fprintf(stderr, "MISMATCH %s/%s\n", spec.name.c_str(),
                     TaskName(task));
        return 1;
      }
      const double speedup =
          ur->timing.total_seconds() / gr->timing.total_seconds();
      std::printf(" %11.2fx", speedup);
      all.push_back(speedup);
    }
    std::printf("\n");
  }
  bench::PrintRule('=');
  std::printf("Geomean G-TADOC speedup over GPU-uncompressed: %.2fx\n",
              bench::GeoMean(all));
  std::printf(
      "Paper reports ~2x: the compressed-domain engine touches each shared "
      "rule once instead of every expanded token.\n");
  return 0;
}
