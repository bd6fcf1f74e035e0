// Throughput/latency harness for the price-query serving engine
// (DESIGN.md §5b): measures point-query regimes against the research
// path `PiecewiseLinearPricing::PriceAtInverseNcp` and the batch path's
// thread scaling, then emits a machine-readable JSON document.
//
// Regimes (all single-thread unless noted):
//   direct_cold     research-path eval over a stream of distinct xs
//   direct_hot      research-path eval over the small repeating working set
//   snapshot_cold   compiled PricingSnapshot::PriceAt, same distinct stream
//   engine_cold     PriceQueryEngine::Price, fresh cache (every query a miss)
//   engine_hot      PriceQueryEngine::Price, warmed cache (every query a hit)
//   batch @ T       PriceQueryEngine::PriceBatch at 1/2/4/hw threads
//
// Every serving-path price is checked bit-identical to the research path
// before anything is timed; the process exits non-zero on a mismatch.
// Flags:
//   --knots=N      knots in the compiled curve (default 65536)
//   --queries=N    queries per timed pass (default 200000)
//   --distinct=N   working-set size for the hot regimes (default 512)
//   --reps=N       timed passes per regime, best kept (default 3)
//   --out=FILE     write the JSON there instead of stdout

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/pricing_function.h"
#include "random/rng.h"
#include "serving/catalog_registry.h"
#include "serving/price_query_engine.h"
#include "serving/pricing_snapshot.h"

namespace mbp {
namespace {

struct RegimeResult {
  std::string name;
  double millis = 0.0;      // best-of-reps for one pass of `queries` queries
  double ns_per_query = 0.0;
  double qps = 0.0;
  double checksum = 0.0;    // defeats dead-code elimination; cross-checked
};

struct BatchResult {
  size_t threads = 1;
  double millis = 0.0;
  double qps = 0.0;
  double speedup = 1.0;  // vs the 1-thread batch run
  bool identical_to_serial = true;
};

double MillisSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

std::vector<size_t> ThreadCounts() {
  std::vector<size_t> counts{1, 2, 4,
                             ParallelConfig{/*num_threads=*/0}
                                 .ResolvedThreads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// A dense concave menu: price = sqrt(x), monotone with decreasing
// price/x ratio, so it passes the arbitrage-freeness certificate at any
// knot count.
core::PiecewiseLinearPricing MakeDenseCurve(size_t knots) {
  std::vector<core::PricePoint> points;
  points.reserve(knots);
  for (size_t i = 1; i <= knots; ++i) {
    const double x = static_cast<double>(i);
    points.push_back({x, std::sqrt(x)});
  }
  return core::PiecewiseLinearPricing::Create(points).value();
}

// Times `body` (one full pass over the query stream) `reps` times and
// keeps the fastest pass. `setup` runs before each pass OUTSIDE the timed
// window (e.g. resetting a cache for the cold regime). `body` returns its
// price checksum.
template <typename Setup, typename Body>
RegimeResult TimeRegime(const std::string& name, size_t queries, int reps,
                        const Setup& setup, const Body& body) {
  RegimeResult result;
  result.name = name;
  result.millis = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    setup();
    const auto start = std::chrono::steady_clock::now();
    const double checksum = body();
    const double millis = MillisSince(start);
    if (rep == 0 || millis < result.millis) result.millis = millis;
    result.checksum = checksum;
  }
  result.ns_per_query =
      result.millis * 1e6 / static_cast<double>(queries);
  result.qps = static_cast<double>(queries) / (result.millis * 1e-3);
  std::printf("  %-14s %9.2f ms   %8.1f ns/query   %11.0f qps\n",
              result.name.c_str(), result.millis, result.ns_per_query,
              result.qps);
  return result;
}

void EmitJson(FILE* out, size_t knots, size_t queries, size_t distinct,
              const std::vector<RegimeResult>& regimes,
              double speedup_cold, double speedup_hot, size_t mismatches,
              const std::vector<BatchResult>& batches) {
  bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "bench_serving");
  json.Field("knots", knots);
  json.Field("queries_per_pass", queries);
  json.Field("hot_working_set", distinct);
  json.Field("hardware_concurrency",
             static_cast<size_t>(std::thread::hardware_concurrency()));
  json.Field("pool_workers", ThreadPool::Shared().num_workers());
  json.Key("point_regimes");
  json.BeginArray();
  for (const RegimeResult& r : regimes) {
    json.BeginObject();
    json.Field("name", r.name);
    json.Field("ms", r.millis);
    json.Field("ns_per_query", r.ns_per_query);
    json.Field("qps", r.qps);
    json.EndObject();
  }
  json.EndArray();
  json.Field("speedup_cold_vs_direct", speedup_cold);
  json.Field("speedup_hot_vs_direct", speedup_hot);
  json.Field("bit_identical_to_research_path", mismatches == 0);
  json.Key("batch");
  json.BeginArray();
  for (const BatchResult& b : batches) {
    json.BeginObject();
    json.Field("threads", b.threads);
    json.Field("ms", b.millis);
    json.Field("qps", b.qps);
    json.Field("speedup", b.speedup);
    json.Field("identical_to_serial", b.identical_to_serial);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Finish();
}

}  // namespace
}  // namespace mbp

int main(int argc, char** argv) {
  using namespace mbp;  // NOLINT
  const size_t knots = static_cast<size_t>(
      bench::FlagValue(argc, argv, "knots", 65536));
  const size_t queries = static_cast<size_t>(
      bench::FlagValue(argc, argv, "queries", 200000));
  const size_t distinct = static_cast<size_t>(
      bench::FlagValue(argc, argv, "distinct", 512));
  const int reps =
      static_cast<int>(bench::FlagValue(argc, argv, "reps", 3));
  const std::string out_path = bench::FlagString(argc, argv, "out", "");

  bench::PrintHeader("Price-query serving engine");
  std::printf("knots=%zu  queries/pass=%zu  hot working set=%zu  reps=%d\n",
              knots, queries, distinct, reps);
  bench::PrintRule();

  const core::PiecewiseLinearPricing curve = MakeDenseCurve(knots);
  const auto snapshot = serving::PricingSnapshot::Compile(curve).value();
  serving::CatalogRegistry registry;
  const serving::CatalogRegistry::CurveSlot* slot =
      registry.Publish("menu", curve).value();

  // Query streams: `queries` distinct xs for the cold regimes (spread over
  // the full domain plus the constant tail), and the same count drawn from
  // a `distinct`-sized working set for the hot regimes.
  const double x_hi = curve.points().back().x * 1.05;
  random::Rng rng(42);
  std::vector<double> cold_xs(queries);
  for (double& x : cold_xs) x = rng.NextDouble(0.0, x_hi);
  std::vector<double> working_set(distinct);
  for (double& x : working_set) x = rng.NextDouble(0.0, x_hi);
  std::vector<double> hot_xs(queries);
  for (size_t i = 0; i < queries; ++i) {
    hot_xs[i] = working_set[rng.NextBounded(distinct)];
  }

  // Bit-identity gate: every serving path must reproduce the research
  // path exactly, on every query, before anything is timed.
  serving::PriceQueryEngine check_engine(&registry);
  size_t mismatches = 0;
  for (const double x : cold_xs) {
    const double want = curve.PriceAtInverseNcp(x);
    if (snapshot->PriceAt(x) != want) ++mismatches;
    if (check_engine.Price(slot, x).value() != want) ++mismatches;
    if (check_engine.Price(slot, x).value() != want) ++mismatches;  // cached
  }
  std::printf("bit-identity gate: %zu mismatches over %zu queries "
              "(snapshot + engine cold + engine hot)\n",
              mismatches, cold_xs.size());
  bench::PrintRule();

  std::vector<RegimeResult> regimes;

  const auto no_setup = [] {};
  regimes.push_back(TimeRegime(
      "direct_cold", queries, reps, no_setup, [&] {
        double sum = 0.0;
        for (const double x : cold_xs) sum += curve.PriceAtInverseNcp(x);
        return sum;
      }));
  regimes.push_back(TimeRegime(
      "direct_hot", queries, reps, no_setup, [&] {
        double sum = 0.0;
        for (const double x : hot_xs) sum += curve.PriceAtInverseNcp(x);
        return sum;
      }));
  regimes.push_back(TimeRegime(
      "snapshot_cold", queries, reps, no_setup, [&] {
        double sum = 0.0;
        for (const double x : cold_xs) sum += snapshot->PriceAt(x);
        return sum;
      }));

  // Cache dropped before each pass (outside the timer) so every timed
  // query misses and pays the memo fill — the real first-touch cost.
  serving::PriceQueryEngine cold_engine(&registry);
  regimes.push_back(TimeRegime(
      "engine_cold", queries, reps, [&] { cold_engine.ClearCache(); }, [&] {
        double sum = 0.0;
        for (const double x : cold_xs) {
          sum += cold_engine.Price(slot, x).value();
        }
        return sum;
      }));

  // One engine warmed on the working set; every timed query is a hit.
  serving::PriceQueryEngine hot_engine(&registry);
  for (const double x : working_set) (void)hot_engine.Price(slot, x);
  regimes.push_back(TimeRegime(
      "engine_hot", queries, reps, no_setup, [&] {
        double sum = 0.0;
        for (const double x : hot_xs) sum += hot_engine.Price(slot, x).value();
        return sum;
      }));
  const auto stats = hot_engine.cache_stats();
  std::printf("hot engine cache: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));

  // Checksum cross-checks (same stream => identical sums, bitwise).
  if (regimes[0].checksum != regimes[2].checksum ||
      regimes[0].checksum != regimes[3].checksum ||
      regimes[1].checksum != regimes[4].checksum) {
    ++mismatches;
    std::printf("CHECKSUM MISMATCH across regimes (bug)\n");
  }

  const double speedup_cold =
      regimes[3].millis > 0.0 ? regimes[0].millis / regimes[3].millis : 0.0;
  const double speedup_hot =
      regimes[4].millis > 0.0 ? regimes[1].millis / regimes[4].millis : 0.0;
  bench::PrintRule();
  std::printf("speedup vs direct:  cold-cache %.2fx   hot-cache %.2fx\n",
              speedup_cold, speedup_hot);
  bench::PrintRule();

  // Batch scaling: one PriceBatch call over the cold stream per pass.
  serving::PriceQueryEngineOptions batch_options;
  batch_options.min_parallel_batch = 1;  // always dispatch to the pool
  serving::PriceQueryEngine batch_engine(&registry, batch_options);
  std::vector<BatchResult> batches;
  std::vector<double> serial_out(queries);
  std::vector<double> out(queries);
  double serial_millis = 0.0;
  for (const size_t threads : ThreadCounts()) {
    ParallelConfig parallel;
    parallel.num_threads = threads;
    BatchResult b;
    b.threads = threads;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const Status status = batch_engine.PriceBatch(
          slot, cold_xs.data(), out.data(), queries, parallel);
      const double millis = MillisSince(start);
      if (!status.ok()) {
        std::fprintf(stderr, "PriceBatch failed: %s\n",
                     status.message().c_str());
        return 1;
      }
      if (rep == 0 || millis < b.millis) b.millis = millis;
    }
    if (threads == 1) {
      serial_out = out;
      serial_millis = b.millis;
    }
    b.qps = static_cast<double>(queries) / (b.millis * 1e-3);
    b.speedup = b.millis > 0.0 ? serial_millis / b.millis : 1.0;
    b.identical_to_serial = out == serial_out;
    if (!b.identical_to_serial) ++mismatches;
    batches.push_back(b);
    std::printf("  batch threads=%2zu  %9.2f ms  %11.0f qps  speedup=%.2fx  %s\n",
                threads, b.millis, b.qps, b.speedup,
                b.identical_to_serial ? "bit-identical" : "MISMATCH");
  }
  bench::PrintRule();

  if (out_path.empty()) {
    EmitJson(stdout, knots, queries, distinct, regimes, speedup_cold,
             speedup_hot, mismatches, batches);
  } else {
    FILE* out_file = std::fopen(out_path.c_str(), "w");
    if (out_file == nullptr) {
      std::fprintf(stderr, "cannot open --out=%s\n", out_path.c_str());
      return 1;
    }
    EmitJson(out_file, knots, queries, distinct, regimes, speedup_cold,
             speedup_hot, mismatches, batches);
    std::fclose(out_file);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return mismatches == 0 ? 0 : 2;
}
