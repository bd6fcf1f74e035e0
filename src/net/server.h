#ifndef MBP_NET_SERVER_H_
#define MBP_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/statusor.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "serving/catalog_registry.h"
#include "serving/fulfillment.h"

namespace mbp::net {

class ShmSegment;

struct ServerOptions {
  // Port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral port —
  // the actual port is reported by PriceServer::port(), so tests and CI
  // never collide on a fixed number.
  uint16_t port = 0;

  // Event-loop shards. Each shard owns an epoll instance and a private
  // set of connections; the listening socket is shared across shards with
  // EPOLLEXCLUSIVE so the kernel spreads accepts. Shards share only the
  // registry, which they read through one snapshot load per PRICE_AT
  // micro-batch and per BUDGET_TO_X request (DESIGN.md §5b).
  size_t num_shards = 2;

  // Curve served when a request's curve id is empty.
  std::string default_curve_id;

  // Total concurrent connections; accepts beyond the cap are closed
  // immediately.
  size_t max_connections = 1024;

  // Backpressure: once a connection's pending write queue exceeds this,
  // the shard stops READING from it (EPOLLIN off) until the queue drains
  // below half the cap — a slow consumer throttles itself instead of
  // growing an unbounded buffer. If the queue ever exceeds 4x the cap
  // (can only happen via one huge response frame) the connection dies.
  size_t max_write_queue_bytes = 1 << 20;

  // --- Degradation ladder (DESIGN.md §5e) -----------------------------
  // Rung 1 is the existing per-connection read pause (see
  // max_write_queue_bytes above). Rungs 2 and 3 shed work explicitly so
  // overload degrades into fast OVERLOADED/RETRY_LATER answers instead
  // of unbounded queues:

  // Soft accepted-connection high-water mark: while more than this many
  // connections are active, PRICE_AT / BUDGET_TO_X requests are answered
  // kUnavailable (OVERLOADED) without pricing anything — clients back
  // off, established traffic keeps its capacity. SNAPSHOT_INFO and STATS
  // stay served so operators can observe the overload. 0 disables the
  // rung (only the hard max_connections cap applies).
  size_t shed_connections = 0;

  // Per-connection write-queue shed mark: a request arriving while the
  // connection already has more than this many pending response bytes is
  // answered OVERLOADED (the peer is not consuming; doing pricing work
  // for it only deepens the queue). 0 means "use max_write_queue_bytes".
  size_t shed_write_queue_bytes = 0;

  // Deadline-aware dropping: a PRICE_AT request whose age (decode to
  // batch flush) exceeds this is answered kDeadlineExceeded instead of
  // returning a stale price the client has already given up on. Only
  // fires when the event loop stalls (overload, injected faults).
  // 0 disables.
  int request_deadline_ms = 0;

  // How long Shutdown() keeps flushing pending responses before closing
  // connections that cannot drain.
  int drain_timeout_ms = 5000;

  // --- Shared-memory transport (DESIGN.md §5h) -----------------------
  // TCP shards always run the epoll backend. When shm_path is non-empty,
  // co-located clients are additionally served through a file-backed
  // shared-memory segment created at this path (clients connect with a
  // "shm://<path>" endpoint). The TCP listener stays up regardless; shm
  // connections are served by dedicated shard threads.
  std::string shm_path;
  // Connection slots in the segment (max concurrent shm clients).
  size_t shm_slots = 32;
  // Per-direction ring capacity in bytes; rounded up to a power of two.
  size_t shm_ring_bytes = 1 << 20;
  // Dedicated shard threads serving the shm slots.
  size_t shm_shards = 1;

  // --- Fulfillment (DESIGN.md §5i) ------------------------------------
  // Engine behind the QUOTE/BUY/REPLAY verbs. nullptr disables them (the
  // verbs answer kFailedPrecondition). Must outlive the server. Shared by
  // every shard — the engine is thread-safe by contract.
  serving::FulfillmentEngine* fulfillment = nullptr;
};

// TCP (epoll) + optional shared-memory front end over the
// CatalogRegistry's compiled snapshots: the subsystem that serves the
// whole stack end to end across a transport (DESIGN.md §5d, §5h). Frames
// are the binary protocol of net/protocol.h; any number of requests may
// be pipelined per connection (correlate responses by request_id —
// PRICE_AT answers are micro-batched and may land after responses to
// later non-PRICE_AT requests).
//
// Micro-batched PRICE_AT evaluation: each event-loop pass gathers every
// decoded PRICE_AT query (across requests AND connections, grouped per
// curve) and serves each group with one snapshot load and one
// PricingSnapshot::PriceAtBatch call, inline on the shard thread.
//
// Concurrency: each connection belongs to exactly one shard thread, so
// per-connection state is single-threaded by construction. Shards share
// only the registry (RCU reads) and the relaxed-atomic metrics.
// Publish/Withdraw on the registry remain safe at any time — remote
// clients keep querying across a republish and every response is served
// from one complete (old or new) snapshot.
//
// Shutdown() is the graceful drain path: stop accepting, serve the
// requests already received in full, flush pending responses (bounded by
// drain_timeout_ms), then close. It is idempotent and also runs from the
// destructor.
class PriceServer {
 public:
  // Binds, listens, and starts the shard threads. `registry` must outlive
  // the server.
  static StatusOr<std::unique_ptr<PriceServer>> Start(
      const serving::CatalogRegistry* registry, ServerOptions options = {});

  ~PriceServer();

  PriceServer(const PriceServer&) = delete;
  PriceServer& operator=(const PriceServer&) = delete;

  // The actually bound port (resolves options.port == 0).
  uint16_t port() const { return port_; }

  void Shutdown();

  // Point-in-time operational counters + request latency histogram; the
  // same payload the STATS verb serves remotely.
  StatsPayload stats() const;

 private:
  struct Connection;
  struct Shard;
  struct Metrics {
    Counter connections_accepted;
    Counter connections_closed;
    Counter requests_ok;
    Counter requests_error;
    Counter protocol_errors;
    Counter queries;
    Counter batches;
    // Degradation-ladder observability (served via STATS):
    Counter connections_refused;  // closed at accept: hard cap / alloc fault
    Counter requests_shed;        // answered OVERLOADED/RETRY_LATER
    Counter deadline_drops;       // answered kDeadlineExceeded when stale
    Counter connections_killed;   // hard-killed: 4x overflow, stalled drain
    // Per-verb request mix, indexed by the raw verb byte (slot 0 unused);
    // incremented for every decoded request, shed or served.
    std::array<Counter, kNumVerbSlots> requests_by_verb;
    LatencyHistogram request_latency;
    LatencyHistogram write_queue_bytes;  // depth sampled at each enqueue
    MaxGauge write_queue_peak_bytes;
    // Shared by every shard transport of this server (net/transport.h).
    TransportCounters transport;
  };

  PriceServer(const serving::CatalogRegistry* registry,
              ServerOptions options);

  Status Listen();
  void ShardLoop(Shard* shard);
  // kAccept resolution: cap / stopping / alloc-fault checks, then either
  // Adopt (and register a Connection) or Refuse.
  void HandleAccept(Shard* shard, TransportConn* tconn);
  // Bytes delivered by a kData event: merge with the carried partial
  // tail, decode every complete frame, carry the remainder.
  void OnData(Shard* shard, Connection* conn, const uint8_t* data,
              size_t size);
  void HandleRequest(Shard* shard, Connection* conn,
                     const RequestView& request);
  // QUOTE / BUY / REPLAY dispatch into the FulfillmentEngine, answered
  // inline (off the zero-allocation batch path — a sale trains/samples a
  // model; latency is tracked separately in fulfillment_latency).
  void HandleFulfillment(Shard* shard, Connection* conn,
                         const RequestView& request);
  // Frames a delivered Sale as a BUY/REPLAY response in the connection
  // arena (EncodeBuyResponseInto — no Response object).
  void EnqueueSale(Shard* shard, Connection* conn, Verb verb,
                   uint64_t request_id, const serving::Sale& sale);
  void FlushPriceBatches(Shard* shard);
  // Response framing, all three landing in the connection's arena:
  // EnqueueResponse is the general path (any Response), EnqueueValues the
  // allocation-free fast path for successful PRICE_AT / BUDGET_TO_X, and
  // CommitFrame the shared bookkeeping (iovec entry, touched list,
  // queue-depth metrics, 4x overflow kill).
  void EnqueueResponse(Shard* shard, Connection* conn,
                       const Response& response);
  void EnqueueValues(Shard* shard, Connection* conn, Verb verb,
                     uint64_t request_id, const double* values, size_t count);
  void CommitFrame(Shard* shard, Connection* conn, uint8_t* frame,
                   size_t frame_size);
  void FlushWrites(Shard* shard, Connection* conn);
  // End-of-pass epilogue for a connection that gained responses: flush,
  // migrate whatever the socket would not take into the fallback queue,
  // reset the arena (see DESIGN.md §5f).
  void FinishPass(Shard* shard, Connection* conn);
  // Read-pause hysteresis + transport interest arming (the level-
  // triggered EPOLLIN/EPOLLOUT dance, generalized).
  void UpdateInterest(Shard* shard, Connection* conn);
  void CloseConnection(Shard* shard, Connection* conn);
  // CloseConnection + the connections_killed counter: for connections
  // terminated by the server against a live peer (write-queue overflow,
  // drain timeout), as opposed to peer-initiated closes.
  void KillConnection(Shard* shard, Connection* conn);
  // True when the ladder says to answer `request` on `conn` with
  // OVERLOADED instead of doing pricing work.
  bool ShouldShed(const Connection* conn, Verb verb) const;
  void DrainShard(Shard* shard);
  StatusOr<const serving::CatalogRegistry::CurveSlot*> ResolveCurve(
      std::string_view curve_id) const;

  const serving::CatalogRegistry* registry_;
  ServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shut_down_{false};
  std::atomic<size_t> active_connections_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  // Live only when options_.shm_path is set; the server owns the
  // segment file and unlinks it at Shutdown().
  std::unique_ptr<ShmSegment> shm_;
  Metrics metrics_;
};

}  // namespace mbp::net

#endif  // MBP_NET_SERVER_H_
