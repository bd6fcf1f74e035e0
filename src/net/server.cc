#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/arena.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "net/shm_ring.h"
#include "net/transport.h"

namespace mbp::net {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

// Error-frame skeleton for the view-based decode path (the Response
// carries a std::string message — errors are off the zero-allocation
// contract by design; steady state is the OK path).
Response ErrorResponseFor(const RequestView& request, const Status& status) {
  Response response;
  response.verb = request.verb;
  response.request_id = request.request_id;
  response.code = status.ok() ? StatusCode::kInternal : status.code();
  response.error_message = status.message();
  return response;
}

// iovec fan-in per flush call; longer response trains loop.
constexpr int kMaxIov = 64;

}  // namespace

// Per-connection state. A connection lives on exactly one shard thread;
// nothing here is shared.
//
// Buffer roles on the allocation-free request path (DESIGN.md §5f):
//  - `carry` persists the one incomplete frame tail between passes
//    (bounded by kMaxFrameBytes). Its std::string capacity warms up once
//    and is then reused — assign() never shrinks.
//  - `arena` owns this pass's encoded response frames; `frames` (itself
//    arena-backed) records one iovec per frame for the scatter-gather
//    flush. Both reset every pass in FinishPass, after unsent bytes are
//    migrated out.
//  - `out` is the fallback queue: bytes a blocked socket would not take,
//    copied out of the arena at pass end so they survive the reset.
//    Always OLDER than arena frames, so flushes send `out` first.
struct PriceServer::Connection {
  TransportConn* tconn = nullptr;  // owned by the shard's transport
  std::string carry;
  std::string out;
  size_t out_offset = 0;
  Arena arena;
  ArenaVector<iovec> frames{&arena};
  size_t next_frame = 0;     // frames[0..next_frame) fully sent
  size_t frame_offset = 0;   // bytes of frames[next_frame] already sent
  size_t frames_unsent = 0;  // total unsent arena-resident bytes
  bool paused = false;       // reading stopped by write backpressure
  bool touched = false;      // has responses appended this loop pass
  bool dead = false;         // closed; destroyed at the end-of-pass sweep

  size_t pending_out() const {
    return (out.size() - out_offset) + frames_unsent;
  }
};

// One event-loop shard: a transport (epoll or shm slots), a
// private connection table, a pass-scoped scratch arena, and the
// micro-batch under construction during the current loop pass.
struct PriceServer::Shard {
  size_t index = 0;
  std::unique_ptr<ShardTransport> transport;
  std::thread thread;
  // Owned connections, unordered; dead entries are destroyed (and their
  // transport handle released) at the end-of-pass sweep, never earlier,
  // so micro-batch entries and same-pass events can never dangle.
  std::vector<std::unique_ptr<Connection>> conns;
  // Pass-scoped event staging; capacity persists across passes.
  std::vector<TransportEvent> events;

  // Pass-scoped staging: recv buffers, decoded request args, batch
  // queries/outputs. Reset once at the end of every loop pass; after
  // warm-up it is one resident block and the pass makes zero heap
  // allocations.
  Arena scratch;

  // PRICE_AT queries decoded this pass, coalesced per curve slot; one
  // PriceQueryEngine::PriceBatch call serves each group (so every query
  // in the group is answered from ONE snapshot). The per-curve groups
  // live in `scratch` and are found through an open-addressed pointer-
  // keyed map that also lives in `scratch` (PR 6 used a linear scan,
  // which was O(K) per request once a zipf-spread pass touches hundreds
  // of distinct curves). `batches` keeps insertion order so the flush —
  // and therefore response order — stays deterministic regardless of
  // where slots hash.
  struct PendingPrice {
    Connection* conn;
    uint64_t request_id;
    size_t offset;  // into CurveBatch::xs
    size_t count;
    Clock::time_point start;
  };
  struct CurveBatch {
    const serving::CatalogRegistry::CurveSlot* slot;
    ArenaVector<double> xs;
    ArenaVector<PendingPrice> pending;
  };
  std::vector<CurveBatch*> batches;  // entries arena-owned; cleared per pass
  // Pass-scoped slot -> CurveBatch map: power-of-two array of pointers in
  // `scratch`, linear probing, null = empty. Rebuilt lazily per pass;
  // `batch_map_capacity` persists across passes at 4x the peak distinct-
  // curve count seen, so steady state allocates once per pass from the
  // arena and never rehashes mid-pass.
  CurveBatch** batch_map = nullptr;
  size_t batch_map_capacity = 64;  // persists; grows on rehash
  std::vector<Connection*> touched;

  // The pass batch for `slot`, creating it (O(1) amortized) on first
  // sight. The map and every batch live in `scratch`: allocated lazily on
  // the first PRICE_AT of a pass, forgotten at FlushPriceBatches,
  // reclaimed by the pass-end scratch.Reset(). Steady state is one arena
  // allocation per pass and zero mid-pass rehashes.
  CurveBatch* FindOrAddBatch(const serving::CatalogRegistry::CurveSlot* slot) {
    if (batch_map == nullptr) {
      batch_map = scratch.AllocateArray<CurveBatch*>(batch_map_capacity);
      std::memset(batch_map, 0, batch_map_capacity * sizeof(CurveBatch*));
    }
    const size_t mask = batch_map_capacity - 1;
    size_t i = HashMix64(reinterpret_cast<uintptr_t>(slot)) & mask;
    while (true) {
      CurveBatch* b = batch_map[i];
      if (b == nullptr) break;
      if (b->slot == slot) return b;
      i = (i + 1) & mask;
    }
    void* raw = scratch.Allocate(sizeof(CurveBatch), alignof(CurveBatch));
    auto* batch = new (raw)
        CurveBatch{slot, ArenaVector<double>(&scratch),
                   ArenaVector<PendingPrice>(&scratch)};
    batches.push_back(batch);
    batch_map[i] = batch;
    if (batches.size() * 4 > batch_map_capacity) {
      // Rehash into a doubled arena table; the old table is just arena
      // bytes and dies with the pass. Insertion order (and thus flush
      // and response order) is carried by `batches`, not the table.
      batch_map_capacity *= 2;
      auto** fresh = scratch.AllocateArray<CurveBatch*>(batch_map_capacity);
      std::memset(fresh, 0, batch_map_capacity * sizeof(CurveBatch*));
      const size_t fresh_mask = batch_map_capacity - 1;
      for (CurveBatch* b : batches) {
        size_t j =
            HashMix64(reinterpret_cast<uintptr_t>(b->slot)) & fresh_mask;
        while (fresh[j] != nullptr) j = (j + 1) & fresh_mask;
        fresh[j] = b;
      }
      batch_map = fresh;
    }
    return batch;
  }
};

PriceServer::PriceServer(const serving::PriceQueryEngine* engine,
                         ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  MBP_CHECK(engine_ != nullptr);
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.max_write_queue_bytes == 0) {
    options_.max_write_queue_bytes = 1 << 20;
  }
}

StatusOr<std::unique_ptr<PriceServer>> PriceServer::Start(
    const serving::PriceQueryEngine* engine, ServerOptions options) {
  std::unique_ptr<PriceServer> server(
      new PriceServer(engine, std::move(options)));
  MBP_RETURN_IF_ERROR(server->Listen());
  for (size_t s = 0; s < server->options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    Status status;
    shard->transport = MakeEpollShardTransport(
        server->listen_fd_, &server->metrics_.transport, &status);
    if (shard->transport == nullptr) return status;
    server->shards_.push_back(std::move(shard));
  }
  if (!server->options_.shm_path.empty()) {
    ShmSegmentOptions seg_options;
    seg_options.path = server->options_.shm_path;
    seg_options.slots = server->options_.shm_slots;
    seg_options.ring_bytes = server->options_.shm_ring_bytes;
    auto segment = ShmSegment::Create(seg_options);
    if (!segment.ok()) return segment.status();
    server->shm_ = std::move(*segment);
    const size_t shm_shards =
        std::max<size_t>(1, server->options_.shm_shards);
    for (size_t s = 0; s < shm_shards; ++s) {
      auto shard = std::make_unique<Shard>();
      shard->index = server->shards_.size();
      Status status;
      shard->transport =
          MakeShmShardTransport(server->shm_.get(), s, shm_shards,
                                &server->metrics_.transport, &status);
      if (shard->transport == nullptr) return status;
      server->shards_.push_back(std::move(shard));
    }
  }
  for (auto& shard : server->shards_) {
    shard->thread =
        std::thread([srv = server.get(), s = shard.get()] { srv->ShardLoop(s); });
  }
  return server;
}

PriceServer::~PriceServer() { Shutdown(); }

Status PriceServer::Listen() {
  listen_fd_ =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoError("socket");
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoError("bind 127.0.0.1:" + std::to_string(options_.port));
  }
  if (listen(listen_fd_, SOMAXCONN) < 0) return ErrnoError("listen");
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return ErrnoError("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

void PriceServer::Shutdown() {
  if (shut_down_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  // Mark the shm segment closed first so clients blocked in a futex wait
  // observe the shutdown when woken, then interrupt every shard's Wait.
  if (shm_ != nullptr) shm_->BeginShutdown();
  for (auto& shard : shards_) shard->transport->Wake();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& shard : shards_) shard->transport.reset();
  shm_.reset();  // unmaps and unlinks the segment file
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

StatsPayload PriceServer::stats() const {
  StatsPayload s;
  s.connections_accepted = metrics_.connections_accepted.Value();
  s.connections_active = active_connections_.load(std::memory_order_relaxed);
  s.requests_ok = metrics_.requests_ok.Value();
  s.requests_error = metrics_.requests_error.Value();
  s.protocol_errors = metrics_.protocol_errors.Value();
  s.queries = metrics_.queries.Value();
  s.batches = metrics_.batches.Value();
  s.connections_refused = metrics_.connections_refused.Value();
  s.requests_shed = metrics_.requests_shed.Value();
  s.deadline_drops = metrics_.deadline_drops.Value();
  s.connections_killed = metrics_.connections_killed.Value();
  s.write_queue_peak_bytes = metrics_.write_queue_peak_bytes.Value();
  for (size_t v = 1; v < kNumVerbSlots; ++v) {
    s.requests_by_verb[v] = metrics_.requests_by_verb[v].Value();
  }
  if (options_.fulfillment != nullptr) {
    const serving::FulfillmentStats f = options_.fulfillment->Stats();
    s.buys_ok = f.buys_ok;
    s.model_cache_entries = f.model_cache_entries;
    s.model_cache_bytes = f.model_cache_bytes;
    s.model_cache_hits = f.model_cache_hits;
    s.model_cache_misses = f.model_cache_misses;
    s.model_cache_evictions = f.model_cache_evictions;
    s.transactions_recorded = f.transactions_recorded;
    s.revenue = f.revenue;
    s.wal_appends = f.wal_appends;
    s.wal_fsyncs = f.wal_fsyncs;
    s.wal_bytes = f.wal_bytes;
    s.recovery_records = f.recovery_records;
    s.recovery_torn_tail = f.recovery_torn_tail;
    s.recovery_ms = f.recovery_ms;
    s.fulfillment_latency = f.latency;
  }
  s.catalog_listings = engine_->registry().resident_listings();
  s.catalog_bytes = engine_->registry().resident_bytes();
  s.transport_syscalls = metrics_.transport.transport_syscalls.Value();
  s.shm_doorbell_wakes = metrics_.transport.shm_doorbell_wakes.Value();
  s.latency = metrics_.request_latency.Snapshot();
  s.write_queue_bytes = metrics_.write_queue_bytes.Snapshot();
  // Injector state is process-global: a chaos client reads back what the
  // server-side schedule actually did without sharing an address space.
  fault::FaultInjector& injector = fault::FaultInjector::Global();
  s.faults_injected = injector.TotalFires();
  for (const fault::PointStats& p : injector.Stats()) {
    s.faults.push_back(FaultCount{p.point, p.fires});
  }
  return s;
}

StatusOr<const serving::CatalogRegistry::CurveSlot*>
PriceServer::ResolveCurve(std::string_view curve_id) const {
  const std::string_view id =
      curve_id.empty() ? std::string_view(options_.default_curve_id)
                       : curve_id;
  // Heterogeneous registry lookup: `id` is a view into the wire buffer
  // and never materializes a std::string on the hot path.
  const serving::CatalogRegistry::CurveSlot* slot =
      engine_->registry().Find(id);
  if (slot == nullptr) {
    return NotFoundError("curve '" + std::string(id) +
                         "' is not being served");
  }
  return slot;
}

void PriceServer::ShardLoop(Shard* shard) {
  while (!stopping_.load(std::memory_order_acquire)) {
    shard->events.clear();
    shard->transport->Wait(&shard->events, &shard->scratch, 100);
    for (const TransportEvent& ev : shard->events) {
      if (ev.kind == TransportEvent::Kind::kAccept) {
        HandleAccept(shard, ev.conn);
        continue;
      }
      Connection* conn = static_cast<Connection*>(ev.conn->user);
      if (conn == nullptr || conn->dead) continue;
      switch (ev.kind) {
        case TransportEvent::Kind::kData:
          OnData(shard, conn, ev.data, ev.size);
          break;
        case TransportEvent::Kind::kEof:
        case TransportEvent::Kind::kError:
          CloseConnection(shard, conn);
          break;
        case TransportEvent::Kind::kWritable:
          FlushWrites(shard, conn);
          if (!conn->dead) UpdateInterest(shard, conn);
          break;
        case TransportEvent::Kind::kAccept:
          break;  // handled above
      }
    }
    FlushPriceBatches(shard);
    // One flush per connection that gained responses this pass, instead
    // of one send() per response; FinishPass then migrates whatever the
    // transport would not take and resets the connection arena.
    for (Connection* conn : shard->touched) {
      conn->touched = false;
      if (conn->dead) continue;
      FinishPass(shard, conn);
    }
    shard->touched.clear();
    // Every pass-scoped staging allocation (recv buffers, decoded args,
    // batch queries and outputs) dies here, in one bump-pointer rewind.
    shard->scratch.Reset();
    // Destroy connections closed during this pass (deferred so that
    // micro-batch entries never dangle and descriptor numbers cannot be
    // reused within the pass that killed them).
    for (size_t i = 0; i < shard->conns.size();) {
      if (shard->conns[i]->dead) {
        shard->transport->Destroy(shard->conns[i]->tconn);
        shard->conns[i]->tconn = nullptr;
        shard->conns[i] = std::move(shard->conns.back());
        shard->conns.pop_back();
      } else {
        ++i;
      }
    }
  }
  DrainShard(shard);
}

void PriceServer::HandleAccept(Shard* shard, TransportConn* tconn) {
  if (stopping_.load(std::memory_order_acquire) ||
      active_connections_.load(std::memory_order_relaxed) >=
          options_.max_connections ||
      MBP_FAULT_POINT("net.server.conn_alloc")) {
    metrics_.connections_refused.Increment();
    shard->transport->Refuse(tconn);
    return;
  }
  if (!shard->transport->Adopt(tconn)) {
    // Registration failed; the transport already destroyed the handle.
    return;
  }
  active_connections_.fetch_add(1, std::memory_order_relaxed);
  metrics_.connections_accepted.Increment();
  auto conn = std::make_unique<Connection>();
  conn->tconn = tconn;
  tconn->user = conn.get();
  shard->conns.push_back(std::move(conn));
}

void PriceServer::OnData(Shard* shard, Connection* conn, const uint8_t* data,
                         size_t size) {
  // Contiguous parse view. Steady state (no carried tail) decodes
  // straight out of the transport's delivery buffer, zero copies; only
  // a partial frame carried from the previous pass pays one merge copy
  // into scratch.
  const uint8_t* buf = data;
  size_t total = size;
  if (!conn->carry.empty()) {
    const size_t carried = conn->carry.size();
    uint8_t* merged = shard->scratch.AllocateArray<uint8_t>(carried + size);
    std::memcpy(merged, conn->carry.data(), carried);
    std::memcpy(merged + carried, data, size);
    buf = merged;
    total = carried + size;
  }
  // Consume every complete frame now, so only an incomplete tail is
  // carried across passes (a paused or idle peer cannot strand a
  // buffered request). Decoding is zero-copy: curve ids stay views into
  // `buf`, args land in the scratch arena.
  size_t offset = 0;
  while (!conn->dead) {
    RequestView request;
    const auto consumed = DecodeRequestView(buf + offset, total - offset,
                                            &request, &shard->scratch);
    if (!consumed.ok()) {
      metrics_.protocol_errors.Increment();
      CloseConnection(shard, conn);
      return;
    }
    if (*consumed == 0) break;
    offset += *consumed;
    HandleRequest(shard, conn, request);
  }
  if (conn->dead) return;
  conn->carry.assign(reinterpret_cast<const char*>(buf) + offset,
                     total - offset);
  // Backpressure: responses already queued on this connection exceed
  // the cap — stop reading (UpdateInterest drops read interest) until
  // the peer drains them.
  UpdateInterest(shard, conn);
}

// Degradation rungs 2 and 3: shed query verbs with a fast OVERLOADED
// answer instead of doing engine work the client will retry anyway.
// SNAPSHOT_INFO and STATS pass through — they are cheap and the overload
// must stay observable.
bool PriceServer::ShouldShed(const Connection* conn, Verb verb) const {
  if (verb != Verb::kPriceAt && verb != Verb::kBudgetToX) return false;
  if (options_.shed_connections > 0 &&
      active_connections_.load(std::memory_order_relaxed) >
          options_.shed_connections) {
    return true;
  }
  const size_t shed_bytes = options_.shed_write_queue_bytes > 0
                                ? options_.shed_write_queue_bytes
                                : options_.max_write_queue_bytes;
  return conn->pending_out() > shed_bytes;
}

void PriceServer::HandleRequest(Shard* shard, Connection* conn,
                                const RequestView& request) {
  const Clock::time_point start = Clock::now();
  // Verb-mix accounting before any shed/dispatch decision: the counter
  // reflects what clients SENT, not what the ladder let through. The verb
  // byte was range-checked by the decoder, so it indexes in bounds.
  metrics_.requests_by_verb[static_cast<uint8_t>(request.verb)].Increment();
  if (ShouldShed(conn, request.verb)) {
    metrics_.requests_shed.Increment();
    EnqueueResponse(
        shard, conn,
        ErrorResponseFor(request,
                         UnavailableError("server overloaded; retry later")));
    return;
  }
  if (request.verb == Verb::kStats) {
    Response response;
    response.verb = Verb::kStats;
    response.request_id = request.request_id;
    response.stats = stats();
    metrics_.requests_ok.Increment();
    metrics_.request_latency.Record(MicrosSince(start));
    EnqueueResponse(shard, conn, response);
    return;
  }
  if (request.verb == Verb::kQuote || request.verb == Verb::kBuy ||
      request.verb == Verb::kReplay) {
    // The engine resolves the curve itself (it needs the ref, not just
    // the slot) and REPLAY needs no live listing at all.
    HandleFulfillment(shard, conn, request);
    return;
  }
  const auto slot = ResolveCurve(request.curve_id);
  if (!slot.ok()) {
    metrics_.requests_error.Increment();
    metrics_.request_latency.Record(MicrosSince(start));
    EnqueueResponse(shard, conn, ErrorResponseFor(request, slot.status()));
    return;
  }
  // LRU feed for catalog eviction: stamp the slot with this request's
  // start time (one relaxed store; same steady-clock micros time base as
  // CatalogRegistry::EvictIdle).
  (*slot)->Touch(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          start.time_since_epoch())
          .count()));
  switch (request.verb) {
    case Verb::kPriceAt: {
      // Deferred: coalesced with every other PRICE_AT of this loop pass
      // into one PriceBatch per curve (FlushPriceBatches). The per-curve
      // group is found through the pass-scoped open-addressed map and
      // grown in the scratch arena — O(1) per request however many
      // distinct curves the pass spans (DESIGN.md §5g).
      Shard::CurveBatch* batch = shard->FindOrAddBatch(*slot);
      batch->pending.push_back(Shard::PendingPrice{
          conn, request.request_id, batch->xs.size(), request.num_args,
          start});
      for (size_t i = 0; i < request.num_args; ++i) {
        batch->xs.push_back(request.args[i]);
      }
      return;
    }
    case Verb::kBudgetToX: {
      // Answered inline, staged through scratch doubles so the success
      // path frames straight from a raw array (no Response, no vector).
      double* xs = shard->scratch.AllocateArray<double>(request.num_args);
      for (size_t i = 0; i < request.num_args; ++i) {
        const auto x = engine_->BudgetToInverseNcp(*slot, request.args[i]);
        if (!x.ok()) {
          metrics_.requests_error.Increment();
          metrics_.request_latency.Record(MicrosSince(start));
          EnqueueResponse(shard, conn,
                          ErrorResponseFor(request, x.status()));
          return;
        }
        xs[i] = *x;
      }
      metrics_.requests_ok.Increment();
      metrics_.queries.Increment(request.num_args);
      metrics_.request_latency.Record(MicrosSince(start));
      EnqueueValues(shard, conn, Verb::kBudgetToX, request.request_id, xs,
                    request.num_args);
      return;
    }
    case Verb::kSnapshotInfo: {
      const auto snapshot = (*slot)->Load();
      if (snapshot == nullptr) {
        metrics_.requests_error.Increment();
        EnqueueResponse(
            shard, conn,
            ErrorResponseFor(request, NotFoundError("curve was withdrawn")));
        return;
      }
      Response response;
      response.verb = Verb::kSnapshotInfo;
      response.request_id = request.request_id;
      response.info.version = snapshot->version();
      response.info.stamp = (*slot)->stamp();
      response.info.num_knots = snapshot->num_knots();
      response.info.x_max = snapshot->x_max();
      response.info.max_price = snapshot->max_price();
      metrics_.requests_ok.Increment();
      metrics_.request_latency.Record(MicrosSince(start));
      EnqueueResponse(shard, conn, response);
      return;
    }
    case Verb::kStats:
    case Verb::kQuote:
    case Verb::kBuy:
    case Verb::kReplay:
      return;  // handled above
  }
}

void PriceServer::HandleFulfillment(Shard* shard, Connection* conn,
                                    const RequestView& request) {
  const Clock::time_point start = Clock::now();
  serving::FulfillmentEngine* fulfillment = options_.fulfillment;
  if (fulfillment == nullptr) {
    metrics_.requests_error.Increment();
    EnqueueResponse(
        shard, conn,
        ErrorResponseFor(request, FailedPreconditionError(
                                      "server does not sell models")));
    return;
  }
  const std::string_view curve_id =
      request.curve_id.empty() ? std::string_view(options_.default_curve_id)
                               : request.curve_id;
  switch (request.verb) {
    case Verb::kQuote: {
      const auto quote = fulfillment->Quote(curve_id, request.delta);
      if (!quote.ok()) {
        metrics_.requests_error.Increment();
        metrics_.request_latency.Record(MicrosSince(start));
        EnqueueResponse(shard, conn,
                        ErrorResponseFor(request, quote.status()));
        return;
      }
      Response response;
      response.verb = Verb::kQuote;
      response.request_id = request.request_id;
      response.quote.price = quote->price;
      response.quote.delta = quote->delta;
      response.quote.expires_at_micros = quote->expires_at_micros;
      response.quote.token = quote->token;
      metrics_.requests_ok.Increment();
      metrics_.request_latency.Record(MicrosSince(start));
      EnqueueResponse(shard, conn, response);
      return;
    }
    case Verb::kBuy:
    case Verb::kReplay: {
      const auto sale =
          request.verb == Verb::kBuy
              ? fulfillment->Buy(curve_id, request.delta, request.txn_id,
                                 request.token)
              : fulfillment->ReplaySale(request.txn_id);
      if (!sale.ok()) {
        metrics_.requests_error.Increment();
        metrics_.request_latency.Record(MicrosSince(start));
        EnqueueResponse(shard, conn,
                        ErrorResponseFor(request, sale.status()));
        return;
      }
      if (sale->weights.size() > kMaxModelWeights) {
        metrics_.requests_error.Increment();
        EnqueueResponse(
            shard, conn,
            ErrorResponseFor(request,
                             InternalError("model exceeds frame capacity")));
        return;
      }
      metrics_.requests_ok.Increment();
      metrics_.request_latency.Record(MicrosSince(start));
      EnqueueSale(shard, conn, request.verb, request.request_id, *sale);
      return;
    }
    default:
      return;
  }
}

void PriceServer::EnqueueSale(Shard* shard, Connection* conn, Verb verb,
                              uint64_t request_id,
                              const serving::Sale& sale) {
  if (conn->dead) return;
  SaleRecordPayload record;
  record.txn_id = sale.record.txn_id;
  record.curve_ref = sale.record.curve_ref;
  record.delta = sale.record.delta;
  record.price = sale.record.price;
  record.seed_commitment = sale.record.seed_commitment;
  const size_t size = EncodedBuyResponseSize(sale.weights.size());
  uint8_t* frame = conn->arena.AllocateArray<uint8_t>(size);
  EncodeBuyResponseInto(verb, request_id, record, sale.weights.data(),
                        sale.weights.size(), frame);
  CommitFrame(shard, conn, frame, size);
}

void PriceServer::FlushPriceBatches(Shard* shard) {
  for (Shard::CurveBatch* batch : shard->batches) {
    if (batch->xs.empty()) continue;
    // Chaos lever: an injected stall here ages the pending entries past
    // request_deadline_ms, exercising the deadline-drop path on demand.
    (void)MBP_FAULT_DELAY("net.server.batch.delay");
    double* prices = shard->scratch.AllocateArray<double>(batch->xs.size());
    // The whole micro-batch is served from ONE snapshot load inside
    // PriceBatch — consistent across every coalesced request even if a
    // republish lands mid-batch. Pool dispatch only once the batch is
    // worth it; small batches run inline on the shard thread.
    ParallelConfig parallel;
    parallel.num_threads =
        batch->xs.size() >= options_.min_pool_batch ? options_.batch_threads
                                                    : 1;
    const Status status = engine_->PriceBatch(
        batch->slot, batch->xs.data(), prices, batch->xs.size(), parallel);
    metrics_.batches.Increment();
    for (const Shard::PendingPrice& p : batch->pending) {
      if (p.conn->dead) continue;
      // Deadline-aware drop: a request that sat in the queue past its
      // deadline gets a fast kDeadlineExceeded — the client has already
      // timed the attempt out, and a stale "success" would only be
      // discarded (or worse, trusted) on arrival.
      if (options_.request_deadline_ms > 0 &&
          MicrosSince(p.start) >
              1000.0 * static_cast<double>(options_.request_deadline_ms)) {
        Response response;
        response.verb = Verb::kPriceAt;
        response.request_id = p.request_id;
        response.code = StatusCode::kDeadlineExceeded;
        response.error_message = "request deadline exceeded in server queue";
        metrics_.deadline_drops.Increment();
        metrics_.request_latency.Record(MicrosSince(p.start));
        EnqueueResponse(shard, p.conn, response);
        continue;
      }
      if (status.ok()) {
        metrics_.requests_ok.Increment();
        metrics_.queries.Increment(p.count);
        metrics_.request_latency.Record(MicrosSince(p.start));
        // Fast path: the response frame is built straight from the batch
        // output slice — no Response object, no vector, no copies.
        EnqueueValues(shard, p.conn, Verb::kPriceAt, p.request_id,
                      prices + p.offset, p.count);
      } else {
        Response response;
        response.verb = Verb::kPriceAt;
        response.request_id = p.request_id;
        response.code = status.code();
        response.error_message = status.message();
        metrics_.requests_error.Increment();
        metrics_.request_latency.Record(MicrosSince(p.start));
        EnqueueResponse(shard, p.conn, response);
      }
    }
  }
  shard->batches.clear();
  // The map points into scratch, which resets at pass end — forget it
  // before the memory goes away.
  shard->batch_map = nullptr;
}

void PriceServer::EnqueueResponse(Shard* shard, Connection* conn,
                                  const Response& response) {
  if (conn->dead) return;
  const size_t size = EncodedResponseSize(response);
  uint8_t* frame = conn->arena.AllocateArray<uint8_t>(size);
  EncodeResponseInto(response, frame);
  CommitFrame(shard, conn, frame, size);
}

void PriceServer::EnqueueValues(Shard* shard, Connection* conn, Verb verb,
                                uint64_t request_id, const double* values,
                                size_t count) {
  if (conn->dead) return;
  const size_t size = EncodedValuesResponseSize(count);
  uint8_t* frame = conn->arena.AllocateArray<uint8_t>(size);
  EncodeValuesResponseInto(verb, request_id, values, count, frame);
  CommitFrame(shard, conn, frame, size);
}

void PriceServer::CommitFrame(Shard* shard, Connection* conn, uint8_t* frame,
                              size_t frame_size) {
  conn->frames.push_back(iovec{frame, frame_size});
  conn->frames_unsent += frame_size;
  if (!conn->touched) {
    conn->touched = true;
    shard->touched.push_back(conn);
  }
  metrics_.write_queue_bytes.Record(
      static_cast<double>(conn->pending_out()));
  metrics_.write_queue_peak_bytes.Observe(conn->pending_out());
  // Hard cap: backpressure already stopped reads at 1x; only a single
  // giant burst of responses can reach 4x, and such a peer is not
  // consuming — cut it loose rather than grow without bound.
  if (conn->pending_out() > 4 * options_.max_write_queue_bytes) {
    KillConnection(shard, conn);
  }
}

void PriceServer::FlushWrites(Shard* shard, Connection* conn) {
  // Scatter-gather flush: ONE transport Writev covers the fallback-queue
  // remainder (older bytes, always first) plus every arena-resident
  // frame completed this pass, instead of one send per response. Loops
  // only for response trains longer than kMaxIov or when the transport
  // takes partial writes.
  while (conn->pending_out() > 0) {
    iovec iov[kMaxIov];
    int iov_count = 0;
    const size_t out_pending = conn->out.size() - conn->out_offset;
    if (out_pending > 0) {
      iov[iov_count++] = iovec{conn->out.data() + conn->out_offset,
                               out_pending};
    }
    size_t skip = conn->frame_offset;
    for (size_t i = conn->next_frame;
         i < conn->frames.size() && iov_count < kMaxIov; ++i) {
      const iovec& f = conn->frames[i];
      iov[iov_count++] =
          iovec{static_cast<char*>(f.iov_base) + skip, f.iov_len - skip};
      skip = 0;
    }
    const ssize_t n = shard->transport->Writev(conn->tconn, iov, iov_count);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConnection(shard, conn);
      return;
    }
    // Consume the sent bytes in queue order: fallback first, then frames.
    size_t left = static_cast<size_t>(n);
    const size_t from_out = std::min(left, out_pending);
    conn->out_offset += from_out;
    left -= from_out;
    conn->frames_unsent -= left;
    while (left > 0) {
      iovec& f = conn->frames[conn->next_frame];
      const size_t remaining = f.iov_len - conn->frame_offset;
      if (left >= remaining) {
        left -= remaining;
        conn->frame_offset = 0;
        ++conn->next_frame;
      } else {
        conn->frame_offset += left;
        left = 0;
      }
    }
    if (conn->out_offset == conn->out.size()) {
      conn->out.clear();
      conn->out_offset = 0;
    }
  }
}

void PriceServer::FinishPass(Shard* shard, Connection* conn) {
  FlushWrites(shard, conn);
  if (conn->dead) return;
  // The arena resets below, so any frame bytes the socket would not take
  // migrate into the fallback queue first (appended AFTER any existing
  // remainder: fallback bytes are strictly older than arena frames, and
  // this keeps them so). Steady state with a keeping-up peer never
  // executes the copy.
  if (conn->frames_unsent > 0) {
    size_t skip = conn->frame_offset;
    for (size_t i = conn->next_frame; i < conn->frames.size(); ++i) {
      const iovec& f = conn->frames[i];
      conn->out.append(static_cast<const char*>(f.iov_base) + skip,
                       f.iov_len - skip);
      skip = 0;
    }
  }
  conn->arena.Reset();
  conn->frames = ArenaVector<iovec>(&conn->arena);
  conn->next_frame = 0;
  conn->frame_offset = 0;
  conn->frames_unsent = 0;
  UpdateInterest(shard, conn);
}

void PriceServer::UpdateInterest(Shard* shard, Connection* conn) {
  const size_t pending = conn->pending_out();
  if (!conn->paused && pending > options_.max_write_queue_bytes) {
    conn->paused = true;
  } else if (conn->paused && pending < options_.max_write_queue_bytes / 2) {
    conn->paused = false;
  }
  shard->transport->UpdateInterest(conn->tconn, !conn->paused, pending > 0);
}

void PriceServer::CloseConnection(Shard* shard, Connection* conn) {
  if (conn->dead) return;
  conn->dead = true;
  // Detach from event production now; the transport handle itself (and
  // the descriptor/slot behind it) is released by Destroy at the end-of-
  // pass sweep, so a same-pass accept can never reuse and collide.
  shard->transport->OnClose(conn->tconn);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  metrics_.connections_closed.Increment();
}

void PriceServer::KillConnection(Shard* shard, Connection* conn) {
  if (conn->dead) return;
  metrics_.connections_killed.Increment();
  CloseConnection(shard, conn);
}

// Graceful drain: no new connections or requests, but every response that
// was produced for an already-received request still goes out (bounded by
// options_.drain_timeout_ms), so a client that stops sending and keeps
// reading never loses an answered query to shutdown.
void PriceServer::DrainShard(Shard* shard) {
  shard->transport->StopAccepting();
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  while (Clock::now() < deadline) {
    bool pending = false;
    for (const auto& conn : shard->conns) {
      if (!conn->dead && conn->pending_out() > 0) {
        pending = true;
        break;
      }
    }
    if (!pending) break;
    shard->events.clear();
    shard->transport->Wait(&shard->events, &shard->scratch, 50);
    for (const TransportEvent& ev : shard->events) {
      if (ev.kind == TransportEvent::Kind::kAccept) {
        // A connection that raced the drain start: never served.
        shard->transport->Refuse(ev.conn);
        continue;
      }
      Connection* conn = static_cast<Connection*>(ev.conn->user);
      if (conn == nullptr || conn->dead) continue;
      switch (ev.kind) {
        case TransportEvent::Kind::kData:
          break;  // no new requests are decoded during drain
        case TransportEvent::Kind::kEof:
        case TransportEvent::Kind::kError:
          CloseConnection(shard, conn);
          break;
        case TransportEvent::Kind::kWritable:
          FlushWrites(shard, conn);
          break;
        case TransportEvent::Kind::kAccept:
          break;  // handled above
      }
    }
    shard->scratch.Reset();
  }
  // Past the drain deadline: connections still holding undeliverable
  // responses are hard-killed (and counted); fully drained ones just
  // close.
  for (auto& conn : shard->conns) {
    if (conn->dead) continue;
    if (conn->pending_out() > 0) {
      KillConnection(shard, conn.get());
    } else {
      CloseConnection(shard, conn.get());
    }
  }
  for (auto& conn : shard->conns) {
    shard->transport->Destroy(conn->tconn);
    conn->tconn = nullptr;
  }
  shard->conns.clear();
}

}  // namespace mbp::net
