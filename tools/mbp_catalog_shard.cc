// One catalog shard process of a consistent-hash price-serving fleet
// (DESIGN.md §5g): compiles a deterministic synthetic catalog (its ring
// share, or the whole catalog when unpartitioned), serves it over the
// binary TCP protocol, prints a READY line for the launcher, and drains
// gracefully on stdin EOF / SIGTERM / SIGINT.
//
// Flags:
//   --port=N         bind port (default 0 = ephemeral; see READY line)
//   --loops=N        server event-loop shards (default 1)
//   --curves=N       synthetic catalog size (default 1024)
//   --seed=N         catalog seed (default 7) — every process of a fleet
//                    must agree so curves are bit-identical across shards
//   --min-knots=N    per-curve knot count range (default 8..128)
//   --max-knots=N
//   --ring-size=N    partitioned mode: this process is node
//   --ring-index=I   "shard-<I>" of an N-node ring and publishes only the
//                    curves it owns under --replicas (default: ring-size 0
//                    = unpartitioned, publish everything)
//   --replicas=R     ring ownership multiplicity (default 2)
//   --vnodes=N       ring vnodes per node (default 64; must match clients)
//   --max-listings=N CatalogRegistry residency cap (default 0 = unbounded)
//   --default-curve=ID  curve served for empty request ids
//   --fault-seed=N   arm the chaos fault storm on this process's injector
//   --fault-scale=F  storm probability multiplier (default 1.0)
//   --transport=T    shard-loop transport; epoll is the only value
//                    (default), any other is refused. shm is not a
//                    shard-loop transport: it serves next to TCP (--shm)
//   --shm=PATH       also publish a shared-memory segment at PATH next
//                    to the TCP listener; same-host clients connect with
//                    "shm://PATH" (port ignored), remote ones keep TCP
//   --shm-slots=N    shm connection slots (default 32)
//   --fulfill=0|1    serve the QUOTE/BUY/REPLAY fulfillment verbs
//                    (default 1). Every shard of a fleet must agree on
//                    the fulfillment seeds below, or a BUY retried
//                    against a replica delivers different bytes.
//   --epoch-seed=N   fulfillment epoch seed (noise derivation;
//                    default 0x5EED0001)
//   --dataset-seed=N fulfillment training-set seed (default 0xD474)
//   --model-dim=N    sold model dimensionality (default 16)
//   --model-cache-bytes=N  trained-model LRU budget (default 64 MiB)
//   --wal-dir=PATH   crash-safe durability (DESIGN.md §5j): journal
//                    catalog publishes under PATH/catalog and the sale
//                    ledger under PATH/ledger. On restart the catalog
//                    and ledger rebuild from the logs — acked sales
//                    survive kill -9, retried BUYs re-deliver recorded
//                    sales charged once
//   --wal-fsync=P    fsync policy: none | batch (default) | every
//   --crash-point=N  arm the named crash fault point (e.g.
//                    wal.crash.post_fsync): the process _exit(137)s when
//                    it fires — the chaos harness's kill-9-at-a-named-
//                    boundary hook. Armed AFTER startup so recovery and
//                    catalog journaling never self-crash
//   --crash-after=K  let the crash point's first K hits pass (default 0)
//
// Output: exactly one line "READY port=<p> curves=<n> bytes=<b>\n" on
// stdout once serving (plus " shm=<path>" when --shm is set, plus
// " wal=<dir> recovered=<records> torn=<n> recovery_ms=<n>" when
// --wal-dir is set); the process then blocks until stdin closes or a
// signal arrives, shuts down gracefully — flushing the WAL and writing
// clean checkpoints, reported on a "DRAIN ..." line — and exits 0.

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault_injection.h"
#include "common/wal.h"
#include "net/cluster.h"
#include "net/server.h"
#include "serving/catalog_journal.h"
#include "serving/fulfillment.h"
#include "serving/price_query_engine.h"
#include "serving/synthetic_catalog.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

// The seeded fault storm of tests/net/chaos_test.cc, scaled: transient
// EINTR/EAGAIN, short reads/writes, delays, resets, accept-side refusals.
void ArmFaultStorm(uint64_t seed, double scale) {
  mbp::fault::FaultInjector& inj = mbp::fault::FaultInjector::Global();
  inj.Seed(seed);
  mbp::fault::PointSchedule transient;
  transient.probability = 0.05 * scale;
  inj.Arm("net.recv.eintr", transient);
  inj.Arm("net.recv.eagain", transient);
  inj.Arm("net.send.eintr", transient);
  inj.Arm("net.send.eagain", transient);
  inj.Arm("net.accept.eintr", transient);
  inj.Arm("net.epoll.eintr", transient);
  mbp::fault::PointSchedule shortio;
  shortio.probability = 0.2 * scale;
  inj.Arm("net.recv.short", shortio);
  inj.Arm("net.send.short", shortio);
  mbp::fault::PointSchedule delay;
  delay.probability = 0.001 * scale;
  delay.delay_micros = 500;
  inj.Arm("net.recv.delay", delay);
  inj.Arm("net.send.delay", delay);
  mbp::fault::PointSchedule reset;
  reset.probability = 0.0005 * scale;
  inj.Arm("net.recv.reset", reset);
  inj.Arm("net.send.reset", reset);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbp;  // NOLINT
  const auto flag = [&](const char* name, double fallback) {
    return bench::FlagValue(argc, argv, name, fallback);
  };
  const uint16_t port = static_cast<uint16_t>(flag("port", 0));
  const size_t loops = static_cast<size_t>(flag("loops", 1));
  const size_t ring_size = static_cast<size_t>(flag("ring-size", 0));
  const size_t ring_index = static_cast<size_t>(flag("ring-index", 0));
  const size_t replicas = static_cast<size_t>(flag("replicas", 2));
  const size_t vnodes = static_cast<size_t>(flag("vnodes", 64));
  const uint64_t fault_seed = static_cast<uint64_t>(flag("fault-seed", 0));
  const double fault_scale = flag("fault-scale", 1.0);
  const std::string transport_name =
      bench::FlagString(argc, argv, "transport", "epoll");
  if (transport_name != "epoll") {
    std::fprintf(stderr,
                 "--transport must be epoll (got %s); shm serves next to "
                 "the TCP listener via --shm=PATH\n",
                 transport_name.c_str());
    return 1;
  }

  serving::SyntheticCatalogSpec spec;
  spec.num_curves = static_cast<size_t>(flag("curves", 1024));
  spec.seed = static_cast<uint64_t>(flag("seed", 7));
  spec.min_knots = static_cast<size_t>(flag("min-knots", 8));
  spec.max_knots = static_cast<size_t>(flag("max-knots", 128));

  serving::CatalogRegistryOptions registry_options;
  registry_options.max_resident_listings =
      static_cast<size_t>(flag("max-listings", 0));
  serving::CatalogRegistry registry(registry_options);

  if (fault_seed != 0) ArmFaultStorm(fault_seed, fault_scale);

  // Partitioned mode: own exactly the ring's share. The ring is built
  // from stable "shard-<i>" labels, NOT addresses — the same ring every
  // fleet client builds, so ownership and routing agree even though every
  // process binds an ephemeral port.
  std::function<bool(size_t)> owns;
  if (ring_size > 0) {
    if (ring_index >= ring_size) {
      std::fprintf(stderr, "--ring-index must be < --ring-size\n");
      return 1;
    }
    std::vector<std::string> labels;
    for (size_t i = 0; i < ring_size; ++i) {
      labels.push_back("shard-" + std::to_string(i));
    }
    owns = [ring = net::HashRing(labels, vnodes), ring_index,
            replicas](size_t index) {
      return ring.Owns(serving::SyntheticCurveId(index), ring_index,
                       replicas);
    };
  }

  // Durability (DESIGN.md §5j): with --wal-dir the catalog publishes go
  // through a journal and the sale ledger through a WAL, both rooted
  // under the directory. The journal opens FIRST — sale records resolve
  // their curve ids against the recovered catalog.
  const std::string wal_dir = bench::FlagString(argc, argv, "wal-dir", "");
  wal::WalOptions wal_options;
  const std::string fsync_name =
      bench::FlagString(argc, argv, "wal-fsync", "batch");
  if (!wal::ParseFsyncPolicy(fsync_name, &wal_options.fsync_policy)) {
    std::fprintf(stderr, "--wal-fsync must be none|batch|every (got %s)\n",
                 fsync_name.c_str());
    return 1;
  }

  std::unique_ptr<serving::CatalogJournal> journal;
  Status published = Status::OK();
  if (!wal_dir.empty()) {
    // The journal and ledger each mkdir their own leaf; the shared root
    // is ours to create.
    if (mkdir(wal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "mkdir %s: %s\n", wal_dir.c_str(),
                   std::strerror(errno));
      return 1;
    }
    auto opened = serving::CatalogJournal::Open(wal_dir + "/catalog",
                                                wal_options, &registry);
    if (!opened.ok()) {
      std::fprintf(stderr, "catalog journal open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    journal = std::move(opened).value();
    if (journal->listings() == 0) {
      // Fresh journal: compile the synthetic share and journal every
      // publish. A restart rebuilds the catalog from the journal instead
      // of re-deriving it from whatever flags the new process was given.
      for (size_t i = 0; i < spec.num_curves && published.ok(); ++i) {
        if (owns != nullptr && !owns(i)) continue;
        published = journal
                        ->Publish(serving::SyntheticCurveId(i),
                                  serving::MakeSyntheticCurve(spec, i))
                        .status();
      }
    }
  } else {
    published = serving::PublishSyntheticCatalog(spec, &registry, owns);
  }
  if (!published.ok()) {
    std::fprintf(stderr, "catalog publish failed: %s\n",
                 published.ToString().c_str());
    return 1;
  }

  serving::PriceQueryEngine engine(&registry);

  // Fulfillment: on by default so any shard can sell. Seeds are flags so
  // an entire fleet can agree on them — a BUY that fails over to a
  // replica must deliver the same bytes (ClusterPriceClient::Buy pins
  // the transaction id, and bytes are a pure function of the seeds, the
  // curve, delta, and that id).
  std::unique_ptr<serving::FulfillmentEngine> fulfillment;
  if (flag("fulfill", 1) != 0) {
    serving::FulfillmentOptions fopts;
    fopts.epoch_seed =
        static_cast<uint64_t>(flag("epoch-seed", 0x5EED0001));
    fopts.dataset_seed = static_cast<uint64_t>(flag("dataset-seed", 0xD474));
    fopts.model_dim = static_cast<size_t>(flag("model-dim", 16));
    fopts.max_model_cache_bytes = static_cast<size_t>(
        flag("model-cache-bytes", 64.0 * 1024 * 1024));
    fulfillment =
        std::make_unique<serving::FulfillmentEngine>(&registry, fopts);
    if (!wal_dir.empty()) {
      // Charge-durable-then-deliver from here on: every first-delivery
      // BUY appends its sale record (fsync per --wal-fsync) before the
      // response leaves the process.
      const Status opened =
          fulfillment->OpenDurableLedger(wal_dir + "/ledger", wal_options);
      if (!opened.ok()) {
        std::fprintf(stderr, "sale ledger open failed: %s\n",
                     opened.ToString().c_str());
        return 1;
      }
    }
  }

  // Arm the kill-9-at-a-named-boundary hook LAST, so startup recovery
  // and catalog journaling cannot trip it — the harness aims it at the
  // serving-time money path (wal.append.torn, wal.crash.pre_fsync,
  // wal.crash.post_fsync, wal.checkpoint.pre_rename).
  const std::string crash_point =
      bench::FlagString(argc, argv, "crash-point", "");
  if (!crash_point.empty()) {
    fault::PointSchedule crash;
    crash.skip_first = static_cast<uint64_t>(flag("crash-after", 0));
    crash.max_fires = 1;
    fault::FaultInjector::Global().Arm(crash_point, crash);
  }

  net::ServerOptions server_options;
  server_options.fulfillment = fulfillment.get();
  server_options.port = port;
  server_options.num_shards = loops;
  server_options.default_curve_id =
      bench::FlagString(argc, argv, "default-curve", "");
  const std::string shm_path = bench::FlagString(argc, argv, "shm", "");
  if (!shm_path.empty()) {
    server_options.shm_path = shm_path;
    server_options.shm_slots = static_cast<size_t>(flag("shm-slots", 32));
    server_options.shm_shards = loops;
  }
  auto server = net::PriceServer::Start(&engine, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  struct sigaction sa = {};
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  std::string ready_suffix;
  if (!shm_path.empty()) ready_suffix += " shm=" + shm_path;
  if (!wal_dir.empty()) {
    // What recovery found, summed over the catalog journal and the sale
    // ledger: after a clean (checkpointed) shutdown both replay zero
    // segment records and torn stays 0 — the observable the chaos
    // harness and the restart quick-start key on.
    uint64_t recovered = journal->recovery().records_replayed;
    uint64_t torn = journal->recovery().torn_tail;
    uint64_t recovery_ms = (journal->recovery().recovery_micros + 999) / 1000;
    if (fulfillment != nullptr) {
      const serving::FulfillmentStats fs = fulfillment->Stats();
      recovered += fs.recovery_records;
      torn += fs.recovery_torn_tail;
      recovery_ms += fs.recovery_ms;
    }
    char wal_info[160];
    std::snprintf(wal_info, sizeof(wal_info),
                  " wal=%s recovered=%llu torn=%llu recovery_ms=%llu",
                  wal_dir.c_str(),
                  static_cast<unsigned long long>(recovered),
                  static_cast<unsigned long long>(torn),
                  static_cast<unsigned long long>(recovery_ms));
    ready_suffix += wal_info;
  }
  std::printf("READY port=%u curves=%zu bytes=%zu%s\n", (*server)->port(),
              registry.resident_listings(), registry.resident_bytes(),
              ready_suffix.c_str());
  std::fflush(stdout);

  // Park until the launcher closes our stdin or a signal lands.
  while (!g_stop.load()) {
    struct pollfd pfd = {STDIN_FILENO, POLLIN, 0};
    const int n = poll(&pfd, 1, 200);
    if (n < 0 && errno != EINTR) break;
    if (n > 0) {
      char buf[256];
      const ssize_t r = read(STDIN_FILENO, buf, sizeof(buf));
      if (r <= 0) break;  // EOF (or error): launcher is gone
    }
  }
  (*server)->Shutdown();
  if (!wal_dir.empty()) {
    // Graceful drain: flush the WAL and write clean checkpoints, so the
    // next start recovers from the checkpoints alone (recovered=0 on its
    // READY line) instead of replaying segments.
    bool clean = true;
    uint64_t sales = 0;
    uint64_t wal_appends = 0;
    uint64_t wal_fsyncs = 0;
    double revenue = 0.0;
    if (fulfillment != nullptr) {
      const Status drained = fulfillment->Shutdown();
      if (!drained.ok()) {
        clean = false;
        std::fprintf(stderr, "ledger checkpoint failed: %s\n",
                     drained.ToString().c_str());
      }
      const serving::FulfillmentStats fs = fulfillment->Stats();
      sales = fs.transactions_recorded;
      wal_appends = fs.wal_appends;
      wal_fsyncs = fs.wal_fsyncs;
      revenue = fs.revenue;
    }
    const Status catalog_drained = journal->Checkpoint();
    if (!catalog_drained.ok()) {
      clean = false;
      std::fprintf(stderr, "catalog checkpoint failed: %s\n",
                   catalog_drained.ToString().c_str());
    }
    std::printf(
        "DRAIN sales=%llu revenue=%.17g wal_appends=%llu wal_fsyncs=%llu "
        "checkpoint=%s\n",
        static_cast<unsigned long long>(sales), revenue,
        static_cast<unsigned long long>(wal_appends),
        static_cast<unsigned long long>(wal_fsyncs),
        clean ? "clean" : "dirty");
    std::fflush(stdout);
  }
  return 0;
}
