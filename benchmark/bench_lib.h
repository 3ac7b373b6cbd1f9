#ifndef GTADOC_BENCHMARK_BENCH_LIB_H_
#define GTADOC_BENCHMARK_BENCH_LIB_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analytics/server.h"

namespace gtadoc {
namespace bench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. At N = 200, p = 95 is the 190th smallest sample,
/// which leaves exactly 10 samples above it. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// A closed host or simulated interval, in seconds.
struct Interval {
  double begin = 0;
  double end = 0;
};

/// Self time of `parent`: its duration minus the union of its children's
/// intervals (each clipped to the parent, overlaps counted once).
double SelfTime(const Interval& parent, std::vector<Interval> children);

/// The simulated time a served run entered the queue: its start minus the
/// time it waited.
double SimSubmitSeconds(const CorpusServer::ServedRun& run);
/// Simulated latency of a served run: completion minus simulated submit.
double SimLatencySeconds(const CorpusServer::ServedRun& run);

/// A steady host clock, in seconds since construction, that stops while
/// paused. The benchmark pauses it around its own verification work so that no
/// host timing includes it.
class HostClock {
 public:
  HostClock() : origin_(std::chrono::steady_clock::now()) {}
  double Now() const;
  void Pause();
  void Resume();

 private:
  double Raw() const;

  std::chrono::steady_clock::time_point origin_;
  double paused_total_ = 0;
  double paused_at_ = -1;
};

/// One trace span. pid 1 is the host, pid 2 the simulated timeline, pid 3
/// the simulated devices. `parent` is the index of the enclosing span in the
/// trace (-1 for a root); self time is computed from it.
struct Span {
  std::string name;
  int pid = 1;
  int64_t tid = 0;
  Interval interval;
  int64_t parent = -1;
  int64_t ticket = -1;  ///< the request this span belongs to, if any
};

/// Per-name aggregate of a trace: summed duration and self time.
struct SpanSummary {
  uint64_t count = 0;
  double total_seconds = 0;
  double self_seconds = 0;
};

/// In-memory span recorder, written out as Chrome trace-event JSON at exit.
/// Disabled recorders drop every span.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records a span; returns its index (for children's `parent`), or -1
  /// when disabled.
  int64_t Add(Span span);
  /// Closes span `index` (from Add) at `end`; no-op for -1.
  void SetEnd(int64_t index, double end);
  const std::vector<Span>& spans() const { return spans_; }
  /// Host seconds spent inside Add (the recorder's own cost).
  double record_seconds() const { return record_seconds_; }

  /// Self-time summary by span name.
  std::map<std::string, SpanSummary> Summarize() const;
  /// Chrome trace-event JSON. Spans of the simulated processes are spread
  /// over rows so that no two spans of one row overlap.
  std::string ToJson() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  double record_seconds_ = 0;
};

}  // namespace bench
}  // namespace gtadoc

#endif  // GTADOC_BENCHMARK_BENCH_LIB_H_
