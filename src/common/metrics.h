#ifndef MBP_COMMON_METRICS_H_
#define MBP_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mbp {

// Lightweight operational metrics for the serving paths: monotone counters
// and a fixed-bucket latency histogram, both updated with relaxed atomics
// so the hot path pays one uncontended RMW per event and never a lock.
//
// Readers take a point-in-time copy through the Snapshot()/snapshot-struct
// API. Because updates are relaxed and unsynchronized with each other, a
// snapshot taken while writers are active is a *consistent-enough* view
// for monitoring (each field is individually atomic; cross-field skew is
// bounded by the events in flight), and a snapshot taken at quiescence is
// exact. That is the intended contract for STATS-verb responses and
// shutdown reports — not for correctness decisions.

// Running maximum (high-water mark), e.g. the deepest write queue a
// server connection ever reached. Relaxed CAS loop: lossless under
// concurrency (the final value is the true max of all observations).
class MaxGauge {
 public:
  void Observe(uint64_t v) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Signed up/down gauge for resource accounting — catalog-resident
// snapshot bytes, live listings. Relaxed add: concurrent deltas commute,
// so the settled value is exact; a mid-flight read is monitoring-grade
// like every other metric here.
class Gauge {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Monotone event counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Fixed log2 bucketing over microseconds: bucket 0 holds [0, 1) µs and
// bucket i >= 1 holds [2^(i-1), 2^i) µs; the last bucket absorbs
// everything above ~36 minutes. 32 buckets make the whole histogram two
// cache lines, cheap enough to share between every connection of a
// server shard. The bucketing is just log2 of a non-negative value, so
// the same type doubles as a size histogram (e.g. write-queue depth in
// bytes: bucket i = [2^(i-1), 2^i) bytes); the *Micros names read as
// "units" there.
inline constexpr size_t kLatencyBuckets = 32;

// Returns the inclusive lower bound (µs) of bucket `i`.
double LatencyBucketLowerMicros(size_t i);

struct LatencyHistogramSnapshot {
  uint64_t count = 0;
  double sum_micros = 0.0;
  std::array<uint64_t, kLatencyBuckets> buckets{};

  double mean_micros() const {
    return count == 0 ? 0.0 : sum_micros / static_cast<double>(count);
  }

  // Quantile estimate in µs for q in [0, 1]: finds the bucket holding the
  // ceil(q * count)-th sample and interpolates linearly inside it. Exact
  // to within one bucket width (a factor-of-2 band); 0 when empty.
  double QuantileMicros(double q) const;
};

class LatencyHistogram {
 public:
  // Records one sample. Negative samples clamp to 0.
  void Record(double micros);

  LatencyHistogramSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> count_{0};
  // Sum kept in integer nanoseconds so it can be a relaxed fetch_add.
  std::atomic<uint64_t> sum_nanos_{0};
  std::array<std::atomic<uint64_t>, kLatencyBuckets> buckets_{};
};

// Per-transport observability for the net backends (served via
// the STATS verb; see net/transport.h). One block is shared by every
// shard transport of a server, same as the other server metrics.
struct TransportCounters {
  // Kernel crossings the transports themselves make (epoll_wait / recv /
  // sendmsg / accept4 / epoll_ctl on the epoll backend, futex wait/wake
  // on the shm backend). Dividing the delta by requests served is the
  // syscalls-per-request figure bench_net records.
  Counter transport_syscalls;
  // FUTEX_WAKE calls issued because a shm-ring peer declared itself
  // asleep (the doorbell protocol's slow path; the spin path is free).
  Counter shm_doorbell_wakes;
};

}  // namespace mbp

#endif  // MBP_COMMON_METRICS_H_
