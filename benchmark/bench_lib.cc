#include "bench_lib.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

namespace gtadoc {
namespace bench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // p * n first, so that a whole-numbered rank is computed exactly.
  const double rank =
      std::ceil(p * static_cast<double>(samples.size()) / 100.0);
  return samples[rank < 1 ? 0 : static_cast<size_t>(rank) - 1];
}

double SelfTime(const Interval& parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0;
  double reach = parent.begin;  // end of the union swept so far
  for (const Interval& c : children) {
    if (c.end <= reach) continue;
    covered += c.end - std::max(c.begin, reach);
    reach = c.end;
  }
  return (parent.end - parent.begin) - covered;
}

double SimSubmitSeconds(const CorpusServer::ServedRun& run) {
  return run.start_seconds - run.queue_wait_seconds;
}

double SimLatencySeconds(const CorpusServer::ServedRun& run) {
  return run.completion_seconds - SimSubmitSeconds(run);
}

double HostClock::Raw() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

double HostClock::Now() const {
  const double raw = paused_at_ >= 0 ? paused_at_ : Raw();
  return raw - paused_total_;
}

void HostClock::Pause() {
  if (paused_at_ < 0) paused_at_ = Raw();
}

void HostClock::Resume() {
  if (paused_at_ < 0) return;
  paused_total_ += Raw() - paused_at_;
  paused_at_ = -1;
}

int64_t Trace::Add(Span span) {
  if (!enabled_) return -1;
  const auto t0 = std::chrono::steady_clock::now();
  spans_.push_back(std::move(span));
  record_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Trace::SetEnd(int64_t index, double end) {
  if (index >= 0) spans_[index].interval.end = end;
}

std::map<std::string, SpanSummary> Trace::Summarize() const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back(s.interval);
  }
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanSummary& sum = out[spans_[i].name];
    ++sum.count;
    sum.total_seconds += spans_[i].interval.end - spans_[i].interval.begin;
    sum.self_seconds += SelfTime(spans_[i].interval, children[i]);
  }
  return out;
}

std::string Trace::ToJson() const {
  // Host spans nest by construction. Simulated spans overlap freely (runs
  // are co-resident), so each (pid, tid) group is spread over rows: a span
  // takes the lowest row whose previous span has ended.
  std::vector<size_t> order(spans_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return spans_[a].interval.begin < spans_[b].interval.begin;
  });
  std::vector<int64_t> row_tid(spans_.size());
  std::map<std::pair<int, int64_t>, std::vector<double>> row_ends;
  for (size_t i : order) {
    const Span& s = spans_[i];
    if (s.pid == 1) {
      row_tid[i] = s.tid;
      continue;
    }
    std::vector<double>& ends = row_ends[{s.pid, s.tid}];
    size_t row = 0;
    while (row < ends.size() && ends[row] > s.interval.begin) ++row;
    if (row == ends.size()) ends.push_back(0);
    ends[row] = s.interval.end;
    row_tid[i] = s.tid * 1000 + static_cast<int64_t>(row);
  }

  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const char* kProcesses[] = {"host", "simulated", "simulated devices"};
  for (int pid = 1; pid <= 3; ++pid) {
    json += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
            std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
            kProcesses[pid - 1] + "\"}}";
    json += pid < 3 || !spans_.empty() ? ",\n" : "\n";
  }
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%" PRId64
                  ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"ticket\":%" PRId64
                  "}}%s\n",
                  s.name.c_str(), s.pid, row_tid[i], s.interval.begin * 1e6,
                  (s.interval.end - s.interval.begin) * 1e6, s.ticket,
                  i + 1 < spans_.size() ? "," : "");
    json += buf;
  }
  json += "]}\n";
  return json;
}

}  // namespace bench
}  // namespace gtadoc
