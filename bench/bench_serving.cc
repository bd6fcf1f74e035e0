// Throughput/latency harness for price serving (DESIGN.md §5b): measures
// the compiled PricingSnapshot's point and batch paths against the
// research path `PiecewiseLinearPricing::PriceAtInverseNcp`, then emits a
// machine-readable JSON document.
//
// Regimes (single thread, one pass over a stream of distinct xs):
//   direct          research-path eval
//   snapshot_point  PricingSnapshot::PriceAt per query
//   snapshot_batch  one PricingSnapshot::PriceAtBatch call per pass — the
//                   call the net server makes per PRICE_AT micro-batch
//
// Every snapshot price is checked bit-identical to the research path
// before anything is timed; the process exits non-zero on a mismatch.
// Flags:
//   --knots=N      knots in the compiled curve (default 65536)
//   --queries=N    queries per timed pass (default 200000)
//   --reps=N       timed passes per regime, best kept (default 3)
//   --out=FILE     write the JSON there instead of stdout

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/pricing_function.h"
#include "random/rng.h"
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

double MillisSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
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
// keeps the fastest pass. `body` returns its price checksum.
template <typename Body>
RegimeResult TimeRegime(const std::string& name, size_t queries, int reps,
                        const Body& body) {
  RegimeResult result;
  result.name = name;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const double checksum = body();
    const double millis = MillisSince(start);
    if (rep == 0 || millis < result.millis) result.millis = millis;
    result.checksum = checksum;
  }
  result.ns_per_query =
      result.millis * 1e6 / static_cast<double>(queries);
  result.qps = static_cast<double>(queries) / (result.millis * 1e-3);
  std::printf("  %-15s %9.2f ms   %8.1f ns/query   %11.0f qps\n",
              result.name.c_str(), result.millis, result.ns_per_query,
              result.qps);
  return result;
}

void EmitJson(FILE* out, size_t knots, size_t queries,
              const std::vector<RegimeResult>& regimes, size_t mismatches) {
  bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "bench_serving");
  json.Field("knots", knots);
  json.Field("queries_per_pass", queries);
  json.Key("regimes");
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
  json.Field("bit_identical_to_research_path", mismatches == 0);
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
  const int reps =
      static_cast<int>(bench::FlagValue(argc, argv, "reps", 3));
  const std::string out_path = bench::FlagString(argc, argv, "out", "");

  bench::PrintHeader("Price serving: compiled snapshot vs research path");
  std::printf("knots=%zu  queries/pass=%zu  reps=%d\n", knots, queries,
              reps);
  bench::PrintRule();

  const core::PiecewiseLinearPricing curve = MakeDenseCurve(knots);
  const auto snapshot = serving::PricingSnapshot::Compile(curve).value();

  // `queries` distinct xs spread over the full domain plus the constant
  // tail.
  const double x_hi = curve.points().back().x * 1.05;
  random::Rng rng(42);
  std::vector<double> xs(queries);
  for (double& x : xs) x = rng.NextDouble(0.0, x_hi);

  // Bit-identity gate: both snapshot paths must reproduce the research
  // path exactly, on every query, before anything is timed.
  std::vector<double> batch_out(queries);
  snapshot->PriceAtBatch(xs.data(), batch_out.data(), queries);
  size_t mismatches = 0;
  for (size_t i = 0; i < queries; ++i) {
    const double want = curve.PriceAtInverseNcp(xs[i]);
    if (snapshot->PriceAt(xs[i]) != want) ++mismatches;
    if (batch_out[i] != want) ++mismatches;
  }
  std::printf("bit-identity gate: %zu mismatches over %zu queries "
              "(snapshot point + batch)\n",
              mismatches, queries);
  bench::PrintRule();

  std::vector<RegimeResult> regimes;
  regimes.push_back(TimeRegime("direct", queries, reps, [&] {
    double sum = 0.0;
    for (const double x : xs) sum += curve.PriceAtInverseNcp(x);
    return sum;
  }));
  regimes.push_back(TimeRegime("snapshot_point", queries, reps, [&] {
    double sum = 0.0;
    for (const double x : xs) sum += snapshot->PriceAt(x);
    return sum;
  }));
  regimes.push_back(TimeRegime("snapshot_batch", queries, reps, [&] {
    snapshot->PriceAtBatch(xs.data(), batch_out.data(), queries);
    double sum = 0.0;
    for (const double price : batch_out) sum += price;
    return sum;
  }));

  // Checksum cross-check (same stream => identical sums, bitwise).
  for (const RegimeResult& r : regimes) {
    if (r.checksum != regimes[0].checksum) {
      ++mismatches;
      std::printf("CHECKSUM MISMATCH in %s (bug)\n", r.name.c_str());
    }
  }
  bench::PrintRule();

  if (out_path.empty()) {
    EmitJson(stdout, knots, queries, regimes, mismatches);
  } else {
    FILE* out_file = std::fopen(out_path.c_str(), "w");
    if (out_file == nullptr) {
      std::fprintf(stderr, "cannot open --out=%s\n", out_path.c_str());
      return 1;
    }
    EmitJson(out_file, knots, queries, regimes, mismatches);
    std::fclose(out_file);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return mismatches == 0 ? 0 : 2;
}
