#include "src/measure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(19, 50));
}

TEST(PercentileRule, HighestSupported) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 500);
  EXPECT_EQ(Percentile(v, 99), 990);
  EXPECT_EQ(Percentile(v, 100), 1000);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(OpenLoop, ScheduleIsFixedRate) {
  const OpenLoopSchedule s(1000, 1000.0);  // 1 ms apart
  EXPECT_EQ(s.DueNs(0), 1000);
  EXPECT_EQ(s.DueNs(3), 1000 + 3000000);
  EXPECT_EQ(s.CountBefore(1000), 0u);
  EXPECT_EQ(s.CountBefore(1001), 1u);
  EXPECT_EQ(s.CountBefore(1000 + 10000000), 10u);
  // A half-interval phase offset interleaves two connections.
  const OpenLoopSchedule t(1000, 1000.0, 0.5);
  EXPECT_EQ(t.DueNs(0), 1000 + 500000);
}

// Simulates a FIFO server behind the open-loop schedule: each request is
// sent when due unless the generator is stalled, and served in arrival
// order in `service_ns`, except while the server itself is stalled.
struct Simulated {
  std::vector<double> from_due_us;
  std::vector<double> from_send_us;
};
Simulated Simulate(int64_t gen_stall_begin, int64_t gen_stall_end,
                   int64_t srv_stall_begin, int64_t srv_stall_end) {
  const OpenLoopSchedule s(0, 1000.0);  // 1 ms apart, 30 requests
  const int64_t service_ns = 50000;
  Simulated out;
  int64_t server_free = 0;
  for (uint64_t i = 0; i < 30; ++i) {
    const int64_t due = s.DueNs(i);
    int64_t sent = due;
    if (due >= gen_stall_begin && due < gen_stall_end) sent = gen_stall_end;
    int64_t start = std::max(sent, server_free);
    if (start >= srv_stall_begin && start < srv_stall_end) {
      start = srv_stall_end;
    }
    const int64_t done = start + service_ns;
    server_free = done;
    out.from_due_us.push_back(DueLatencyMicros(due, done));
    out.from_send_us.push_back(DueLatencyMicros(sent, done));
  }
  return out;
}

TEST(OpenLoop, ServerStallRaisesLatencyOfQueuedRequests) {
  const Simulated calm = Simulate(0, 0, 0, 0);
  const Simulated stalled = Simulate(0, 0, 10000000, 20000000);
  for (size_t i = 0; i < 30; ++i) EXPECT_EQ(calm.from_due_us[i], 50.0);
  // Requests due during the 10 ms stall wait for its end: the one due at
  // 10 ms waits the full 10 ms, the one due at 19 ms about 1 ms.
  EXPECT_DOUBLE_EQ(stalled.from_due_us[10], 10000.0 + 50.0);
  EXPECT_GT(stalled.from_due_us[19], 1000.0);
  EXPECT_EQ(stalled.from_due_us[25], 50.0);
}

TEST(OpenLoop, GeneratorStallIsChargedFromDueTime) {
  // The generator itself freezes for 10 ms: timing from the send would
  // hide the stall entirely (coordinated omission); timing from the due
  // time charges it to every request that fell due meanwhile.
  const Simulated stalled = Simulate(10000000, 20000000, 0, 0);
  EXPECT_EQ(stalled.from_send_us[10], 50.0);
  EXPECT_GE(stalled.from_due_us[10], 10000.0);
  EXPECT_GE(stalled.from_due_us[19], 1000.0);
  std::vector<double> sorted = stalled.from_due_us;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(Percentile(sorted, 90), 1000.0);
  EXPECT_EQ(LatenessMicros(10000000, 20000000), 10000.0);
  EXPECT_EQ(LatenessMicros(20000000, 10000000), 0.0);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},    // overlaps a: the union is counted once
      {"c", 70, 80, 0, 1},
      {"a", 12, 18, 1, 1},    // grandchild: only reduces a's self time
      {"d", 90, 120, 0, 1},   // overhangs the parent: clipped
  };
  const std::vector<int64_t> self = SpanSelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 30);
  const auto by_name = SelfTimeByName(spans);
  EXPECT_EQ(by_name.at("a"), 20);
  EXPECT_EQ(by_name.at("root"), 40);
}

TEST(Spans, SelfTimesOfANestedTreeSumToTheRoot) {
  // Children inside their parents and not overlapping each other: the
  // self times partition the root's duration exactly.
  const std::vector<Span> spans = {
      {"request", 0, 1000, -1, 3},   {"resolve", 100, 200, 0, 3},
      {"kernel", 200, 700, 0, 3},    {"simd", 250, 650, 2, 3},
      {"encode", 700, 900, 0, 3},
  };
  int64_t sum = 0;
  for (int64_t t : SpanSelfTimes(spans)) sum += t;
  EXPECT_EQ(sum, 1000);
  EXPECT_EQ(SelfTimeByName(spans).at("request"), 200);
  EXPECT_EQ(SelfTimeByName(spans).at("kernel"), 100);
}

TEST(Spans, TracerOffRecordsNothing) {
  Tracer off(false);
  EXPECT_EQ(off.Begin("x", -1, 1, 5), -1);
  off.End(-1, 9);
  off.Add("y", 1, 2, -1, 1);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  const int32_t root = on.Begin("x", -1, 7, 5);
  on.End(root, 9);
  ASSERT_EQ(on.spans().size(), 1u);
  EXPECT_EQ(on.spans()[0].end_ns - on.spans()[0].start_ns, 4);
  EXPECT_EQ(on.spans()[0].request_id, 7u);
}

TEST(Spans, ReconciliationShare) {
  EXPECT_DOUBLE_EQ(AttributedShare(9.0, 10.0), 0.9);
  EXPECT_DOUBLE_EQ(AttributedShare(12.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(AttributedShare(-1.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(AttributedShare(1.0, 0.0), 0.0);
}

TEST(MetricNames, Validity) {
  for (const char* good :
       {"op_p50_us", "net.server_us_p99", "gen.lateness_us_p99", "a-b",
        "9lives", "setup_s"}) {
    EXPECT_TRUE(ValidMetricName(good)) << good;
  }
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "p99%",
                          "caf\xc3\xa9"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

}  // namespace
}  // namespace perfbench
