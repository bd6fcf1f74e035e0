// Load generator for the networked price-serving front end (DESIGN.md
// §5d/§5g): starts an in-process PriceServer on an ephemeral loopback
// port (or targets an external fleet via --endpoints), hammers it from N
// blocking client connections, and reports throughput plus
// client-observed latency quantiles.
//
// Regimes (single-curve mode, --curves<=1, the PR-4 shape):
//   pingpong    one PRICE_AT per round trip (batch size 1) — the latency
//               floor of the socket + protocol + snapshot path
//   batched     one PRICE_AT frame carrying --batch xs per round trip —
//               amortizes framing and lets the server micro-batch
// Multi-curve mode (--curves N > 1) serves a synthetic catalog of N
// curves (varied knot counts) and runs:
//   batched     --batch xs per round trip against the hottest curve —
//               the in-run single-curve reference point
//   zipf        --batch xs per round trip, curve drawn per round trip
//               from a zipf(s) popularity distribution over the catalog
//               (ranks scattered across the id space by a seeded shuffle)
// With --buy-pct=P (0 < P <= 100) a third regime runs:
//   purchase_mix  each round trip is a BUY (fresh unique transaction id,
//               random δ) with probability P%, else a batched PRICE_AT;
//               curve selection follows the zipf draw (or the single
//               curve). The in-process server gets a FulfillmentEngine;
//               an --endpoints fleet must have been started selling
//               (mbp_catalog_shard --fulfill=1, the default). Client-
//               observed BUY latency is reported separately from the
//               PRICE_AT path.
//
// Before anything is timed, every remote price is checked bit-identical
// to the research path `PiecewiseLinearPricing::PriceAtInverseNcp`; the
// process exits non-zero on a mismatch.
// Flags:
//   --knots=N        knots in the served curve, single-curve mode (65536)
//   --curves=N       catalog size; >1 switches to multi-curve mode (1)
//   --zipf=S         zipf exponent for the multi-curve regime (1.1)
//   --min-knots=N    per-curve knot range in multi-curve mode (8..128)
//   --max-knots=N
//   --catalog-seed=N synthetic catalog seed (7)
//   --connections=N  concurrent client connections (default 8)
//   --requests=N     round trips per connection per regime (default 2000)
//   --batch=N        xs per frame in the batched/zipf regimes (default 64)
//   --buy-pct=P      adds the purchase_mix regime: P% of round trips are
//                    BUYs (default 0 = off)
//   --wal-dir=DIR    back the in-process sale ledger with a write-ahead
//                    log in DIR, so purchase_mix measures the
//                    charge-durable-then-deliver BUY path (default: off,
//                    in-memory ledger; in-process server mode only)
//   --wal-fsync=P    WAL durability policy with --wal-dir: none | batch
//                    (group commit, default) | every
//   --shards=N       server event-loop shards (default 2)
//   --endpoints=CSV  drive an external fleet ("127.0.0.1:p0,...") through
//                    consistent-hash routing instead of an in-process
//                    server; the fleet must have been started with the
//                    same --curves/--catalog-seed/knot range
//   --labels=CSV     stable ring labels for --endpoints (the FLEET line
//                    prints them); default = host:port labels
//   --transport=T    server transport regime (DESIGN.md §5h):
//                      epoll  readiness event loop (default)
//                      shm    shared-memory ring; clients connect via
//                             shm:// instead of TCP
//                    in-process server mode only
//   --warmup=N       per-connection round trips run before timing starts;
//                    excluded from wall clock and latency histograms (100)
//   --pin=0|1        pin each generator thread to a CPU — steadier
//                    quantiles on shared machines (0)
//   --out=FILE       write the JSON there instead of stdout
//
// In-process runs also report syscalls-per-request per regime, from the
// server's transport_syscalls STATS delta across the regime — the number
// the shm backend exists to drive down.

#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/wal.h"
#include "linalg/kernels.h"
#include "core/pricing_function.h"
#include "net/client.h"
#include "net/cluster.h"
#include "net/server.h"
#include "random/distributions.h"
#include "random/rng.h"
#include "serving/fulfillment.h"
#include "serving/synthetic_catalog.h"

namespace mbp {
namespace {

struct RegimeResult {
  std::string name;
  size_t round_trips = 0;
  size_t queries = 0;
  double wall_ms = 0.0;
  double qps = 0.0;  // individual prices served per second
  // Server-side kernel crossings per request over the regime's window;
  // negative when no in-process server was available to ask.
  double syscalls_per_request = -1.0;
  LatencyHistogramSnapshot latency;  // per-round-trip, client-observed
  // purchase_mix only: completed sales, client-paid revenue, and the
  // client-observed BUY round-trip latency (the `latency` histogram above
  // then covers only the PRICE_AT round trips).
  size_t buys = 0;
  double revenue = 0.0;
  LatencyHistogramSnapshot buy_latency;
};

double MillisSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

core::PiecewiseLinearPricing MakeDenseCurve(size_t knots) {
  std::vector<core::PricePoint> points;
  points.reserve(knots);
  for (size_t i = 1; i <= knots; ++i) {
    const double x = static_cast<double>(i);
    points.push_back({x, std::sqrt(x)});
  }
  return core::PiecewiseLinearPricing::Create(points).value();
}

// One batched query round trip; the per-thread client behind it is
// whatever `MakeClientFn` built (direct PriceClient or cluster router).
using BatchFn = std::function<StatusOr<std::vector<double>>(
    const std::string& id, const std::vector<double>& xs)>;
// One BUY round trip: transaction ids are generated inside the client
// (NextTransactionId — process-unique, never reused within a run).
using BuyFn = std::function<StatusOr<net::BuyPayload>(const std::string& id,
                                                      double delta)>;
struct ClientFns {
  BatchFn batch;  // null => the connection failed
  BuyFn buy;      // null when the purchase_mix regime is off
};
using MakeClientFn = std::function<ClientFns(size_t conn)>;

// Which curve each round trip queries.
struct Workload {
  std::vector<std::string> ids;  // curve index -> wire id
  std::vector<double> x_hi;      // curve index -> query range upper bound
  const random::ZipfIndex* zipf = nullptr;  // null => fixed_index always
  std::vector<size_t> perm;                 // zipf rank -> curve index
  size_t fixed_index = 0;
};

// Runs one regime: `connections` threads, each with its own client, each
// performing `warmup` untimed then `requests` timed round trips of
// `batch` xs. Warmup runs before the start barrier, so neither the
// shared latency histogram nor the wall clock sees cold caches, fresh
// TCP windows, or branch-predictor training. Per-round-trip latency of
// the timed window lands in one shared histogram. `stats_fn`, when
// given, samples the server's STATS around the timed window to derive
// syscalls-per-request.
RegimeResult RunRegime(const std::string& name, size_t connections,
                       size_t requests, size_t warmup, bool pin,
                       size_t batch, size_t buy_pct,
                       const Workload& workload,
                       const MakeClientFn& make_client,
                       const std::function<net::StatsPayload()>& stats_fn,
                       std::atomic<size_t>* failures) {
  RegimeResult result;
  result.name = name;
  result.round_trips = connections * requests;
  result.queries = result.round_trips * batch;
  LatencyHistogram latency;
  LatencyHistogram buy_latency;
  std::atomic<size_t> buys{0};
  std::mutex revenue_mutex;
  double revenue = 0.0;

  std::vector<std::thread> threads;
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      if (pin) {
        cpu_set_t set;
        CPU_ZERO(&set);
        const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
        CPU_SET(c % cpus, &set);
        (void)sched_setaffinity(0, sizeof(set), &set);
      }
      ClientFns fns = make_client(c);
      if (!fns.batch) {
        failures->fetch_add(requests);
        ready.fetch_add(1);
        return;
      }
      random::Rng rng(1234 + c);
      std::vector<double> xs(batch);
      size_t local_buys = 0;
      double local_revenue = 0.0;
      const auto round_trip = [&](bool timed) {
        const size_t index = workload.zipf != nullptr
                                 ? workload.perm[workload.zipf->Sample(rng)]
                                 : workload.fixed_index;
        const double hi = workload.x_hi[index];
        if (buy_pct > 0 && fns.buy != nullptr &&
            rng.NextBounded(100) < buy_pct) {
          // A purchase at a random affordable accuracy: δ = 1/x with x
          // uniform over the curve's domain. The client generates a
          // fresh process-unique transaction id per call, so every BUY
          // is a distinct sale (retries inside the client dedupe).
          const double delta = 1.0 / rng.NextDouble(1.0, hi);
          const auto start = std::chrono::steady_clock::now();
          const auto sale = fns.buy(workload.ids[index], delta);
          if (timed) {
            buy_latency.Record(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count());
          }
          if (!sale.ok()) {
            failures->fetch_add(1);
          } else if (timed) {
            ++local_buys;
            local_revenue += sale->record.price;
          }
          return;
        }
        for (double& x : xs) x = rng.NextDouble(0.0, hi);
        const auto start = std::chrono::steady_clock::now();
        const auto prices = fns.batch(workload.ids[index], xs);
        if (timed) {
          latency.Record(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start)
                  .count());
        }
        if (!prices.ok() || prices->size() != batch) failures->fetch_add(1);
      };
      for (size_t r = 0; r < warmup; ++r) round_trip(false);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t r = 0; r < requests; ++r) round_trip(true);
      if (local_buys > 0) {
        buys.fetch_add(local_buys);
        std::lock_guard<std::mutex> lock(revenue_mutex);
        revenue += local_revenue;
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < connections) {
    std::this_thread::yield();
  }
  net::StatsPayload before;
  if (stats_fn) before = stats_fn();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  result.wall_ms = MillisSince(start);
  if (stats_fn) {
    const net::StatsPayload after = stats_fn();
    const uint64_t reqs = after.requests_ok - before.requests_ok;
    if (reqs > 0) {
      result.syscalls_per_request =
          static_cast<double>(after.transport_syscalls -
                              before.transport_syscalls) /
          static_cast<double>(reqs);
    }
  }
  result.buys = buys.load();
  result.revenue = revenue;
  // A BUY round trip delivers one model, not `batch` prices.
  result.queries =
      (result.round_trips - result.buys) * batch + result.buys;
  result.qps =
      static_cast<double>(result.queries) / (result.wall_ms * 1e-3);
  result.latency = latency.Snapshot();
  result.buy_latency = buy_latency.Snapshot();
  std::printf(
      "  %-12s %8zu rt  %9.2f ms  %11.0f qps   p50 %7.1f us   p99 %7.1f us"
      "   %5.2f sys/req\n",
      result.name.c_str(), result.round_trips, result.wall_ms, result.qps,
      result.latency.QuantileMicros(0.5),
      result.latency.QuantileMicros(0.99), result.syscalls_per_request);
  if (result.buys > 0) {
    std::printf(
        "  %-12s %8zu buys  revenue %12.2f        buy p50 %7.1f us   "
        "buy p99 %7.1f us\n",
        "", result.buys, result.revenue,
        result.buy_latency.QuantileMicros(0.5),
        result.buy_latency.QuantileMicros(0.99));
  }
  return result;
}

void EmitHistogramFields(bench::JsonWriter* json,
                         const LatencyHistogramSnapshot& snap) {
  json->Field("count", snap.count);
  json->Field("mean_us", snap.mean_micros());
  json->Field("p50_us", snap.QuantileMicros(0.5));
  json->Field("p90_us", snap.QuantileMicros(0.9));
  json->Field("p99_us", snap.QuantileMicros(0.99));
}

void MergeHistogram(const LatencyHistogramSnapshot& from,
                    LatencyHistogramSnapshot* into) {
  into->count += from.count;
  into->sum_micros += from.sum_micros;
  for (size_t i = 0; i < from.buckets.size(); ++i) {
    into->buckets[i] += from.buckets[i];
  }
}

// Sums one server's STATS into the fleet aggregate (counters add;
// histograms merge bucket-wise; catalog gauges add — fleet-wide resident
// footprint).
void MergeStats(const net::StatsPayload& from, net::StatsPayload* into) {
  into->connections_accepted += from.connections_accepted;
  into->connections_active += from.connections_active;
  into->requests_ok += from.requests_ok;
  into->requests_error += from.requests_error;
  into->protocol_errors += from.protocol_errors;
  into->queries += from.queries;
  into->batches += from.batches;
  into->connections_refused += from.connections_refused;
  into->requests_shed += from.requests_shed;
  into->deadline_drops += from.deadline_drops;
  into->connections_killed += from.connections_killed;
  into->faults_injected += from.faults_injected;
  into->write_queue_peak_bytes =
      std::max(into->write_queue_peak_bytes, from.write_queue_peak_bytes);
  into->catalog_listings += from.catalog_listings;
  into->catalog_bytes += from.catalog_bytes;
  into->transport_syscalls += from.transport_syscalls;
  into->shm_doorbell_wakes += from.shm_doorbell_wakes;
  for (size_t v = 0; v < net::kNumVerbSlots; ++v) {
    into->requests_by_verb[v] += from.requests_by_verb[v];
  }
  into->buys_ok += from.buys_ok;
  into->model_cache_entries += from.model_cache_entries;
  into->model_cache_bytes += from.model_cache_bytes;
  into->model_cache_hits += from.model_cache_hits;
  into->model_cache_misses += from.model_cache_misses;
  into->model_cache_evictions += from.model_cache_evictions;
  into->transactions_recorded += from.transactions_recorded;
  into->revenue += from.revenue;
  into->wal_appends += from.wal_appends;
  into->wal_fsyncs += from.wal_fsyncs;
  into->wal_bytes += from.wal_bytes;
  into->recovery_records += from.recovery_records;
  into->recovery_torn_tail += from.recovery_torn_tail;
  into->recovery_ms += from.recovery_ms;
  MergeHistogram(from.fulfillment_latency, &into->fulfillment_latency);
  MergeHistogram(from.latency, &into->latency);
  MergeHistogram(from.write_queue_bytes, &into->write_queue_bytes);
}

struct BenchConfig {
  size_t knots, curves, connections, requests, batch, shards;
  size_t min_knots, max_knots;
  size_t warmup;
  size_t buy_pct;
  bool pin;
  std::string transport;
  double zipf_s;
  uint64_t catalog_seed;
  size_t num_endpoints;
  // Empty when the sale ledger is in-memory; otherwise the --wal-fsync
  // policy name and the log directory, so recorded baselines state their
  // durability regime AND the device behind it (an fdatasync is ~100x
  // cheaper on tmpfs than on a journaling filesystem).
  std::string wal_fsync;
  std::string wal_dir;
};

void EmitJson(FILE* out, const BenchConfig& config, bool bit_identical,
              const std::vector<RegimeResult>& regimes,
              const net::StatsPayload& server_stats) {
  bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "bench_net");
  json.Field("knots", config.knots);
  json.Field("curves", config.curves);
  json.Field("zipf_s", config.zipf_s);
  json.Field("min_knots", config.min_knots);
  json.Field("max_knots", config.max_knots);
  json.Field("catalog_seed", config.catalog_seed);
  json.Field("endpoints", config.num_endpoints);
  json.Field("connections", config.connections);
  json.Field("requests_per_connection", config.requests);
  json.Field("warmup_per_connection", config.warmup);
  json.Field("pinned", config.pin);
  json.Field("transport", config.transport);
  json.Field("batch", config.batch);
  json.Field("buy_pct", config.buy_pct);
  json.Field("wal_fsync",
             config.wal_fsync.empty() ? std::string("off") : config.wal_fsync);
  if (!config.wal_dir.empty()) json.Field("wal_dir", config.wal_dir);
  json.Field("shards", config.shards);
  json.Field("hardware_concurrency",
             static_cast<size_t>(std::thread::hardware_concurrency()));
  // Dispatch level the batched PriceAtBatch kernels actually ran at —
  // recorded baselines are only comparable within the same level.
  json.Field("simd_level", SimdLevelName(linalg::kernels::ActiveLevel()));
  json.Field("bit_identical_to_research_path", bit_identical);
  // Distinguishes zero-overhead builds in recorded baselines: QPS/p99
  // comparisons across MBP_FAULT_INJECTION settings are apples-to-apples
  // only within the same value.
  json.Field("fault_injection_compiled", fault::kBuildEnabled);
  // Catalog residency (fleet-wide sum in --endpoints mode).
  json.Field("catalog_listings", server_stats.catalog_listings);
  json.Field("catalog_bytes", server_stats.catalog_bytes);
  json.Key("regimes");
  json.BeginArray();
  for (const RegimeResult& r : regimes) {
    json.BeginObject();
    json.Field("name", r.name);
    json.Field("round_trips", r.round_trips);
    json.Field("queries", r.queries);
    json.Field("wall_ms", r.wall_ms);
    json.Field("qps", r.qps);
    json.Field("syscalls_per_request", r.syscalls_per_request);
    EmitHistogramFields(&json, r.latency);
    if (r.buys > 0) {
      json.Field("buys", r.buys);
      json.Field("revenue", r.revenue);
      json.Field("buy_p50_us", r.buy_latency.QuantileMicros(0.5));
      json.Field("buy_p99_us", r.buy_latency.QuantileMicros(0.99));
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("server");
  json.BeginObject();
  json.Field("connections_accepted", server_stats.connections_accepted);
  json.Field("requests_ok", server_stats.requests_ok);
  json.Field("requests_error", server_stats.requests_error);
  json.Field("protocol_errors", server_stats.protocol_errors);
  json.Field("queries", server_stats.queries);
  json.Field("batches", server_stats.batches);
  json.Field("requests_shed", server_stats.requests_shed);
  json.Field("deadline_drops", server_stats.deadline_drops);
  json.Field("connections_killed", server_stats.connections_killed);
  json.Field("connections_refused", server_stats.connections_refused);
  json.Field("faults_injected", server_stats.faults_injected);
  json.Field("transport_syscalls", server_stats.transport_syscalls);
  json.Field("shm_doorbell_wakes", server_stats.shm_doorbell_wakes);
  json.Field("write_queue_peak_bytes", server_stats.write_queue_peak_bytes);
  json.Field("catalog_listings", server_stats.catalog_listings);
  json.Field("catalog_bytes", server_stats.catalog_bytes);
  static const char* const kVerbNames[] = {
      "",      "price_at", "budget_to_x", "snapshot_info",
      "stats", "quote",    "buy",         "replay"};
  json.Key("requests_by_verb");
  json.BeginObject();
  for (size_t v = 1; v < net::kNumVerbSlots; ++v) {
    json.Field(kVerbNames[v], server_stats.requests_by_verb[v]);
  }
  json.EndObject();
  json.Field("buys_ok", server_stats.buys_ok);
  json.Field("revenue", server_stats.revenue);
  json.Field("transactions_recorded", server_stats.transactions_recorded);
  json.Field("model_cache_hits", server_stats.model_cache_hits);
  json.Field("model_cache_misses", server_stats.model_cache_misses);
  json.Field("model_cache_evictions", server_stats.model_cache_evictions);
  json.Field("model_cache_bytes", server_stats.model_cache_bytes);
  json.Field("fulfillment_p50_us",
             server_stats.fulfillment_latency.QuantileMicros(0.5));
  json.Field("fulfillment_p99_us",
             server_stats.fulfillment_latency.QuantileMicros(0.99));
  json.Field("wal_appends", server_stats.wal_appends);
  json.Field("wal_fsyncs", server_stats.wal_fsyncs);
  json.Field("wal_bytes", server_stats.wal_bytes);
  json.Field("recovery_records", server_stats.recovery_records);
  json.Field("recovery_torn_tail", server_stats.recovery_torn_tail);
  json.Field("recovery_ms", server_stats.recovery_ms);
  EmitHistogramFields(&json, server_stats.latency);
  json.EndObject();
  json.EndObject();
  json.Finish();
}

}  // namespace
}  // namespace mbp

int main(int argc, char** argv) {
  using namespace mbp;  // NOLINT
  BenchConfig config;
  config.knots = static_cast<size_t>(
      bench::FlagValue(argc, argv, "knots", 65536));
  config.curves = static_cast<size_t>(
      bench::FlagValue(argc, argv, "curves", 1));
  config.zipf_s = bench::FlagValue(argc, argv, "zipf", 1.1);
  config.min_knots = static_cast<size_t>(
      bench::FlagValue(argc, argv, "min-knots", 8));
  config.max_knots = static_cast<size_t>(
      bench::FlagValue(argc, argv, "max-knots", 128));
  config.catalog_seed = static_cast<uint64_t>(
      bench::FlagValue(argc, argv, "catalog-seed", 7));
  config.connections = static_cast<size_t>(
      bench::FlagValue(argc, argv, "connections", 8));
  config.requests = static_cast<size_t>(
      bench::FlagValue(argc, argv, "requests", 2000));
  config.batch = static_cast<size_t>(
      bench::FlagValue(argc, argv, "batch", 64));
  config.buy_pct = static_cast<size_t>(
      bench::FlagValue(argc, argv, "buy-pct", 0));
  if (config.buy_pct > 100) {
    std::fprintf(stderr, "--buy-pct must be in [0, 100]\n");
    return 1;
  }
  config.shards = static_cast<size_t>(
      bench::FlagValue(argc, argv, "shards", 2));
  config.warmup = static_cast<size_t>(
      bench::FlagValue(argc, argv, "warmup", 100));
  config.pin = bench::FlagValue(argc, argv, "pin", 0) != 0;
  config.transport = bench::FlagString(argc, argv, "transport", "epoll");
  const std::string out_path = bench::FlagString(argc, argv, "out", "");
  const std::string endpoints_csv =
      bench::FlagString(argc, argv, "endpoints", "");
  const std::string labels_csv = bench::FlagString(argc, argv, "labels", "");

  net::TransportKind transport_kind;
  if (!net::ParseTransportKind(config.transport, &transport_kind)) {
    std::fprintf(stderr, "--transport=%s: expected epoll or shm\n",
                 config.transport.c_str());
    return 1;
  }
  if (!endpoints_csv.empty() && config.transport != "epoll") {
    std::fprintf(stderr,
                 "--transport selects the in-process server's backend; an "
                 "--endpoints fleet chooses its own\n");
    return 1;
  }

  const bool multi_curve = config.curves > 1;

  bench::PrintHeader("Networked price serving (" + config.transport +
                     " front end)");
  if (multi_curve) {
    std::printf("curves=%zu  zipf=%.2f  knots=[%zu,%zu]  connections=%zu  "
                "requests/conn=%zu  batch=%zu  shards=%zu\n",
                config.curves, config.zipf_s, config.min_knots,
                config.max_knots, config.connections, config.requests,
                config.batch, config.shards);
  } else {
    std::printf("knots=%zu  connections=%zu  requests/conn=%zu  batch=%zu  "
                "shards=%zu\n",
                config.knots, config.connections, config.requests,
                config.batch, config.shards);
  }
  bench::PrintRule();

  // --- Catalog + (optional) in-process server ---------------------------
  serving::SyntheticCatalogSpec spec;
  spec.num_curves = config.curves;
  spec.min_knots = config.min_knots;
  spec.max_knots = config.max_knots;
  spec.seed = config.catalog_seed;

  serving::CatalogRegistry registry;
  Workload workload;
  if (multi_curve) {
    const auto publish_start = std::chrono::steady_clock::now();
    const Status published =
        serving::PublishSyntheticCatalog(spec, &registry);
    if (!published.ok()) {
      std::fprintf(stderr, "catalog publish failed: %s\n",
                   published.ToString().c_str());
      return 1;
    }
    std::printf("catalog: %zu curves, %.1f MB resident, compiled in %.0f ms\n",
                registry.resident_listings(),
                static_cast<double>(registry.resident_bytes()) / 1048576.0,
                MillisSince(publish_start));
    workload.ids.reserve(config.curves);
    workload.x_hi.reserve(config.curves);
    for (size_t i = 0; i < config.curves; ++i) {
      workload.ids.push_back(serving::SyntheticCurveId(i));
      workload.x_hi.push_back(serving::SyntheticCurveXMax(spec, i) * 1.05);
    }
  } else {
    const core::PiecewiseLinearPricing curve = MakeDenseCurve(config.knots);
    if (!registry.Publish("menu", curve).ok()) {
      std::fprintf(stderr, "publish failed\n");
      return 1;
    }
    workload.ids.push_back("menu");
    workload.x_hi.push_back(curve.points().back().x * 1.05);
  }

  // The purchase_mix regime sells through the in-process server; the
  // fulfillment engine is cheap to stand up (models train lazily on the
  // first BUY).
  // --wal-dir + --wal-fsync make the sale ledger durable, so the regime
  // measures the charge-durable-then-deliver BUY path — the fsync-policy
  // p99 cost the durability section of BENCH_net.json records.
  std::unique_ptr<serving::FulfillmentEngine> fulfillment;
  if (config.buy_pct > 0 && endpoints_csv.empty()) {
    fulfillment = std::make_unique<serving::FulfillmentEngine>(&registry);
    const std::string wal_dir =
        bench::FlagString(argc, argv, "wal-dir", "");
    if (!wal_dir.empty()) {
      wal::WalOptions wal_options;
      const std::string fsync_name =
          bench::FlagString(argc, argv, "wal-fsync", "batch");
      if (!wal::ParseFsyncPolicy(fsync_name, &wal_options.fsync_policy)) {
        std::fprintf(stderr,
                     "--wal-fsync must be none|batch|every (got %s)\n",
                     fsync_name.c_str());
        return 1;
      }
      const Status opened =
          fulfillment->OpenDurableLedger(wal_dir, wal_options);
      if (!opened.ok()) {
        std::fprintf(stderr, "sale ledger open failed: %s\n",
                     opened.ToString().c_str());
        return 1;
      }
      config.wal_fsync = fsync_name;
      config.wal_dir = wal_dir;
    }
  }
  std::unique_ptr<net::PriceServer> server;
  std::vector<net::Endpoint> endpoints;
  net::ClusterClientOptions cluster_options;
  uint16_t port = 0;
  std::string shm_uri;  // non-empty => clients connect over the shm ring
  if (endpoints_csv.empty()) {
    net::ServerOptions options;
    options.num_shards = config.shards;
    options.fulfillment = fulfillment.get();
    if (!multi_curve) options.default_curve_id = "menu";
    if (transport_kind == net::TransportKind::kShm) {
      // The shm transport is not a TCP backend: the segment serves
      // shm:// clients next to the (idle here) epoll listener.
      const std::string shm_path = "/tmp/mbp_bench_net_" +
                                   std::to_string(getpid()) + ".shm";
      options.shm_path = shm_path;
      options.shm_slots = config.connections + 8;  // + gate/stats clients
      options.shm_shards = config.shards;
      shm_uri = "shm://" + shm_path;
    }
    auto started = net::PriceServer::Start(&registry, options);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(*started);
    port = server->port();
    if (shm_uri.empty()) {
      std::printf("server on 127.0.0.1:%u (%s)\n", port,
                  config.transport.c_str());
    } else {
      std::printf("server on %s\n", shm_uri.c_str());
    }
    config.num_endpoints = 0;
  } else {
    auto parsed = net::ParseEndpoints(endpoints_csv);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--endpoints: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    endpoints = std::move(*parsed);
    config.num_endpoints = endpoints.size();
    if (!labels_csv.empty()) {
      size_t pos = 0;
      while (pos <= labels_csv.size()) {
        const size_t comma = std::min(labels_csv.find(',', pos),
                                      labels_csv.size());
        cluster_options.node_labels.push_back(
            labels_csv.substr(pos, comma - pos));
        if (comma == labels_csv.size()) break;
        pos = comma + 1;
      }
    }
    std::printf("fleet: %zu endpoints via consistent-hash routing\n",
                endpoints.size());
  }

  // Per-thread client factory: direct connection in single-server mode,
  // consistent-hash router against the fleet in --endpoints mode.
  const size_t buy_pct = config.buy_pct;
  MakeClientFn make_client = [&](size_t) -> ClientFns {
    ClientFns fns;
    if (endpoints.empty()) {
      auto client = shm_uri.empty()
                        ? net::PriceClient::Connect("127.0.0.1", port)
                        : net::PriceClient::Connect(shm_uri, 0);
      if (!client.ok()) return fns;
      auto shared = std::shared_ptr<net::PriceClient>(std::move(*client));
      fns.batch = [shared](const std::string& id,
                           const std::vector<double>& xs) {
        return shared->PriceBatch(id, xs);
      };
      if (buy_pct > 0) {
        fns.buy = [shared](const std::string& id, double delta) {
          return shared->Buy(id, delta);
        };
      }
      return fns;
    }
    auto cluster = net::ClusterPriceClient::Create(endpoints, cluster_options);
    if (!cluster.ok()) return fns;
    auto shared =
        std::shared_ptr<net::ClusterPriceClient>(std::move(*cluster));
    fns.batch = [shared](const std::string& id,
                         const std::vector<double>& xs) {
      return shared->PriceBatch(id, xs);
    };
    if (buy_pct > 0) {
      fns.buy = [shared](const std::string& id, double delta) {
        return shared->Buy(id, delta);
      };
    }
    return fns;
  };

  // --- Bit-identity gate -------------------------------------------------
  // Remote answers must reproduce the research path exactly before
  // anything is timed. Multi-curve mode spreads the 4096 gate queries
  // over up to 256 distinct curves (hottest-first stride sample).
  size_t mismatches = 0;
  {
    const BatchFn query = make_client(0).batch;
    if (!query) {
      std::fprintf(stderr, "gate client connect failed\n");
      return 1;
    }
    random::Rng rng(42);
    const size_t gate_curves =
        multi_curve ? std::min<size_t>(config.curves, 256) : 1;
    const size_t per_curve = 4096 / gate_curves;
    const size_t stride = std::max<size_t>(config.curves / gate_curves, 1);
    for (size_t g = 0; g < gate_curves; ++g) {
      const size_t index = (g * stride) % workload.ids.size();
      const core::PiecewiseLinearPricing oracle =
          multi_curve ? serving::MakeSyntheticCurve(spec, index)
                      : MakeDenseCurve(config.knots);
      std::vector<double> xs(per_curve);
      for (double& x : xs) x = rng.NextDouble(0.0, workload.x_hi[index]);
      const auto remote = query(workload.ids[index], xs);
      if (!remote.ok()) {
        std::fprintf(stderr, "gate batch failed: %s\n",
                     remote.status().ToString().c_str());
        return 1;
      }
      for (size_t i = 0; i < xs.size(); ++i) {
        if ((*remote)[i] != oracle.PriceAtInverseNcp(xs[i])) ++mismatches;
      }
    }
    std::printf(
        "bit-identity gate: %zu mismatches over %zu remote queries on "
        "%zu curves\n",
        mismatches, gate_curves * per_curve, gate_curves);
  }
  bench::PrintRule();

  // --- Regimes -----------------------------------------------------------
  std::atomic<size_t> failures{0};
  std::vector<RegimeResult> regimes;
  std::function<net::StatsPayload()> stats_fn;
  if (server != nullptr) {
    stats_fn = [&server] { return server->stats(); };
  }
  if (multi_curve) {
    // Scatter zipf ranks across the id space with a seeded shuffle so
    // "hot" curves are not physically adjacent (adjacency would flatter
    // any locality the data structures accidentally have).
    const random::ZipfIndex zipf(config.curves, config.zipf_s);
    workload.perm.resize(config.curves);
    for (size_t i = 0; i < config.curves; ++i) workload.perm[i] = i;
    random::Rng shuffle_rng(config.catalog_seed * 7919 + 1);
    for (size_t i = config.curves - 1; i > 0; --i) {
      const size_t j = static_cast<size_t>(
          shuffle_rng.NextBounded(static_cast<uint64_t>(i + 1)));
      std::swap(workload.perm[i], workload.perm[j]);
    }
    workload.fixed_index = workload.perm[0];  // the hottest curve
    Workload fixed = workload;
    fixed.zipf = nullptr;
    regimes.push_back(RunRegime("batched", config.connections,
                                config.requests, config.warmup, config.pin,
                                config.batch, 0, fixed, make_client,
                                stats_fn, &failures));
    workload.zipf = &zipf;
    regimes.push_back(RunRegime("zipf", config.connections, config.requests,
                                config.warmup, config.pin, config.batch, 0,
                                workload, make_client, stats_fn, &failures));
    if (config.buy_pct > 0) {
      regimes.push_back(RunRegime(
          "purchase_mix", config.connections, config.requests, config.warmup,
          config.pin, config.batch, config.buy_pct, workload, make_client,
          stats_fn, &failures));
    }
  } else {
    regimes.push_back(RunRegime("pingpong", config.connections,
                                config.requests, config.warmup, config.pin,
                                1, 0, workload, make_client, stats_fn,
                                &failures));
    regimes.push_back(RunRegime("batched", config.connections,
                                config.requests, config.warmup, config.pin,
                                config.batch, 0, workload, make_client,
                                stats_fn, &failures));
    if (config.buy_pct > 0) {
      regimes.push_back(RunRegime(
          "purchase_mix", config.connections, config.requests, config.warmup,
          config.pin, config.batch, config.buy_pct, workload, make_client,
          stats_fn, &failures));
    }
  }
  bench::PrintRule();

  // --- Server stats ------------------------------------------------------
  net::StatsPayload server_stats;
  if (server != nullptr) {
    server_stats = server->stats();
  } else {
    for (const net::Endpoint& ep : endpoints) {
      auto client = net::PriceClient::Connect(ep.host, ep.port);
      if (!client.ok()) continue;
      const auto stats = (*client)->Stats();
      if (stats.ok()) MergeStats(*stats, &server_stats);
    }
  }
  std::printf("server: %llu requests ok, %llu queries, %llu batch "
              "dispatches, %llu errors; catalog %llu listings / %.1f MB\n",
              static_cast<unsigned long long>(server_stats.requests_ok),
              static_cast<unsigned long long>(server_stats.queries),
              static_cast<unsigned long long>(server_stats.batches),
              static_cast<unsigned long long>(server_stats.requests_error),
              static_cast<unsigned long long>(server_stats.catalog_listings),
              static_cast<double>(server_stats.catalog_bytes) / 1048576.0);
  {
    static const char* const kVerbNames[] = {
        "",      "PRICE_AT", "BUDGET_TO_X", "SNAPSHOT_INFO",
        "STATS", "QUOTE",    "BUY",         "REPLAY"};
    std::printf("server requests by verb:");
    for (size_t v = 1; v < net::kNumVerbSlots; ++v) {
      if (server_stats.requests_by_verb[v] == 0) continue;
      std::printf(" %s=%llu", kVerbNames[v],
                  static_cast<unsigned long long>(
                      server_stats.requests_by_verb[v]));
    }
    std::printf("\n");
  }
  if (server_stats.buys_ok > 0) {
    std::printf(
        "fulfillment: %llu sales, revenue %.2f; model cache %llu/%llu "
        "hit/miss, %llu evictions; sale p50 %.1f us, p99 %.1f us\n",
        static_cast<unsigned long long>(server_stats.buys_ok),
        server_stats.revenue,
        static_cast<unsigned long long>(server_stats.model_cache_hits),
        static_cast<unsigned long long>(server_stats.model_cache_misses),
        static_cast<unsigned long long>(server_stats.model_cache_evictions),
        server_stats.fulfillment_latency.QuantileMicros(0.5),
        server_stats.fulfillment_latency.QuantileMicros(0.99));
  }
  if (failures.load() != 0) {
    std::fprintf(stderr, "%zu client round trips failed\n", failures.load());
  }
  if (server != nullptr) server->Shutdown();
  if (!shm_uri.empty()) {
    (void)unlink(shm_uri.c_str() + strlen("shm://"));
  }

  const bool bit_identical = mismatches == 0 && failures.load() == 0;
  if (out_path.empty()) {
    EmitJson(stdout, config, bit_identical, regimes, server_stats);
  } else {
    FILE* out_file = std::fopen(out_path.c_str(), "w");
    if (out_file == nullptr) {
      std::fprintf(stderr, "cannot open --out=%s\n", out_path.c_str());
      return 1;
    }
    EmitJson(out_file, config, bit_identical, regimes, server_stats);
    std::fclose(out_file);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return bit_identical ? 0 : 2;
}
