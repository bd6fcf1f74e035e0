#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// The benchmark's own arithmetic: percentile selection, open-loop
// due-time latency, span self time and reconciliation, metric-name
// validity. Kept apart from the load generator so measure_test.cc can pin
// every rule down without a server.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------- percentiles

// A percentile p of n samples is reported only when at least
// kMinTailSamples samples lie strictly beyond it; otherwise the tail it
// names is a guess.
inline constexpr size_t kMinTailSamples = 10;

// 1-based nearest rank of the p-th percentile of n samples. The epsilon
// keeps p * n / 100 from rounding up past an exact integer (99.9% of
// 10000 is rank 9990, not 9991).
inline size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::max(1.0, rank));
}

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  const size_t r = NearestRank(n, p);
  return n - std::min(r, n);
}

inline bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinTailSamples;
}

// The highest of the standard tail percentiles (50, 90, 99, 99.9, 99.99)
// that n samples support; 0 when even the median has fewer than
// kMinTailSamples samples beyond it.
inline double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (PercentileSupported(n, p)) best = p;
  }
  return best;
}

// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t r = NearestRank(sorted.size(), p);
  return sorted[std::min(r, sorted.size()) - 1];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ------------------------------------------------------ open-loop timing

// Fixed-rate arrival schedule: request i of a stream is due at
// start + offset + i * interval. Requests are timed from when they were
// DUE, not from when the generator got round to sending them, so a stall
// anywhere (server, network, or the generator itself) is charged to every
// request queued behind it instead of silently lowering the offered load.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s, double phase = 0.0)
      : start_ns_(start_ns),
        interval_ns_(1e9 / rate_per_s),
        offset_ns_(phase * 1e9 / rate_per_s) {}

  int64_t DueNs(uint64_t i) const {
    return start_ns_ +
           static_cast<int64_t>(offset_ns_ + static_cast<double>(i) *
                                                  interval_ns_);
  }
  // Requests due strictly before `end_ns`.
  uint64_t CountBefore(int64_t end_ns) const {
    if (end_ns <= start_ns_ + static_cast<int64_t>(offset_ns_)) return 0;
    const double span = static_cast<double>(end_ns - start_ns_) - offset_ns_;
    uint64_t n = static_cast<uint64_t>(std::ceil(span / interval_ns_));
    while (n > 0 && DueNs(n - 1) >= end_ns) --n;
    while (DueNs(n) < end_ns) ++n;
    return n;
  }

 private:
  int64_t start_ns_;
  double interval_ns_;
  double offset_ns_;
};

// Latency of one request in µs, from its due time to its completion.
inline double DueLatencyMicros(int64_t due_ns, int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) / 1e3;
}

// How late the generator sent a request, in µs (0 when on time).
inline double LatenessMicros(int64_t due_ns, int64_t sent_ns) {
  return sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) / 1e3
                          : 0.0;
}

// ---------------------------------------------------------------- spans

// One timed call into a layer. Spans of one request share request_id;
// parent is the index of the enclosing span in the same trace, or -1.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request_id = 0;
};

// Self time of every span, in ns: its duration minus the part of its
// interval that its children cover (overlapping children counted once,
// children clipped to the parent's interval).
inline std::vector<int64_t> SpanSelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (const auto& [a, b] : kids) {
      const int64_t s = std::max(a, cursor);
      const int64_t e = std::min(b, hi);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

// Summed self time per span name, in ns.
inline std::map<std::string, int64_t> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SpanSelfTimes(spans);
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

// Share of `reference` that the attributed layer times account for,
// clamped to [0, 1]; the rest is reported as unattributed.
inline double AttributedShare(double attributed, double reference) {
  if (!(reference > 0.0)) return 0.0;
  return std::clamp(attributed / reference, 0.0, 1.0);
}

// Collects spans in memory; a disabled tracer records nothing and costs
// one branch per call, so the same code runs traced and untraced.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Opens a span and returns its index (-1 when disabled).
  int32_t Begin(std::string_view name, int32_t parent, uint64_t request_id,
                int64_t now_ns) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::string(name), now_ns, now_ns, parent,
                          request_id});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index, int64_t now_ns) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = now_ns;
  }
  // Records a finished span directly (a client-observed round trip whose
  // ends were timed by the event loop).
  void Add(std::string_view name, int64_t start_ns, int64_t end_ns,
           int32_t parent, uint64_t request_id) {
    if (!enabled_) return;
    spans_.push_back(Span{std::string(name), start_ns, end_ns, parent,
                          request_id});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- metrics

// A metric name starts with a letter or digit and is at most 64 of
// [A-Za-z0-9_.-].
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
