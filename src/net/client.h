#ifndef MBP_NET_CLIENT_H_
#define MBP_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/statusor.h"
#include "net/protocol.h"

namespace mbp::net {

// Client-side retry behaviour: exponential backoff with decorrelated
// jitter (sleep ~ U[base, 3 * previous], capped), a retry budget that
// stops a fleet of clients from amplifying an outage, and an idempotency
// gate. A request is retried only when it is safe AND useful:
//
//   - the response was OVERLOADED/RETRY_LATER (kUnavailable): the server
//     shed it untouched — retry after backoff on the same connection;
//   - the transport failed (reset, premature close, corrupt stream) or
//     the per-attempt timeout fired, AND the verb is idempotent:
//     reconnect and retry. Every current verb is a read-only price query
//     and therefore idempotent (see IsIdempotent), but the gate is
//     enforced so future mutating verbs fail fast instead of double-
//     applying;
//   - anything else (NotFound, InvalidArgument, Infeasible, ...) is an
//     application answer, not a fault — returned immediately.
//
// The overall per-request deadline bounds ALL attempts and backoff
// sleeps; when it expires the request fails with kDeadlineExceeded.
struct RetryPolicy {
  // Total tries, the first attempt included. 1 disables retries.
  int max_attempts = 4;
  // Decorrelated-jitter backoff between attempts, milliseconds.
  int base_backoff_ms = 2;
  int max_backoff_ms = 250;
  // Retry budget in tokens: each retry spends 1.0, each success refunds
  // `budget_refund_per_success` (capped at the initial budget). When the
  // budget is dry, failures return immediately — a persistently failing
  // server is not hammered at max_attempts multiplicity forever.
  double retry_budget = 16.0;
  double budget_refund_per_success = 0.1;
  // Jitter stream seed; fixed default keeps tests replayable.
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

struct ClientOptions {
  // Bounded non-blocking connect; 0 waits forever (not recommended).
  int connect_timeout_ms = 2000;
  // Per-attempt cap on one send+receive round trip; an attempt that
  // exceeds it is abandoned (connection closed, a late response can
  // never be mistaken for a later request's) and retried if time and
  // budget remain. 0 disables.
  int attempt_timeout_ms = 2000;
  // Overall per-request deadline across all attempts and backoffs;
  // 0 disables. When exceeded the request returns kDeadlineExceeded.
  int request_timeout_ms = 10000;
  RetryPolicy retry;
};

// What the resilience machinery actually did, for tests and operators.
// Plain counters: PriceClient is single-threaded by contract.
struct ClientTelemetry {
  uint64_t retries_attempted = 0;   // backoff-then-retry cycles entered
  uint64_t retries_exhausted = 0;   // requests failed with retries spent
  uint64_t deadline_exceeded = 0;   // requests failed on overall deadline
  uint64_t attempt_timeouts = 0;    // per-attempt timeouts (maybe retried)
  uint64_t transport_errors = 0;    // resets / closes / corrupt streams
  uint64_t overload_responses = 0;  // OVERLOADED/RETRY_LATER received
  uint64_t reconnects = 0;          // successful re-establishments
};

// Query verbs are read-only; BUY is mutating but keyed by a client-chosen
// transaction id the server's ledger dedupes (a retry re-delivers the
// recorded sale without charging again), so every verb is retry-safe.
bool IsIdempotent(Verb verb);

// One client-side connection to a PriceServer: how bytes get there and
// back. TCP today, a shared-memory ring slot for co-located processes —
// the frame stream above is identical either way. Internal seam; defined
// in client.cc.
class ClientChannel;

// Resilient blocking-style client for the PriceServer wire protocol: one
// connection (re-established across transport faults), one outstanding
// request at a time, per-request deadlines, and the retry/backoff ladder
// of RetryPolicy. Not thread-safe — use one PriceClient per thread; the
// load generator and tests open many.
//
// Endpoints: `host` is either an IPv4 host (TCP, `port` applies) or a
// "shm://<path>" URI naming a server's shared-memory segment (`port`
// ignored) — see DESIGN.md §5h. All resilience machinery (retries,
// deadlines, reconnects) is transport-agnostic.
//
// Server-side errors (unknown curve, withdrawn snapshot, infeasible
// budget) come back as the Status carried in the response frame, with
// the same codes an in-process CatalogRegistry lookup would give
// (kNotFound for an unknown or withdrawn curve).
// OVERLOADED responses and transport faults are absorbed by the retry
// layer up to the policy's limits, then surface as kUnavailable /
// kDeadlineExceeded / kInternal.
class PriceClient {
 public:
  static StatusOr<std::unique_ptr<PriceClient>> Connect(
      const std::string& host, uint16_t port, ClientOptions options = {});

  ~PriceClient();

  PriceClient(const PriceClient&) = delete;
  PriceClient& operator=(const PriceClient&) = delete;

  // Single price query; `curve_id` empty selects the server default.
  StatusOr<double> PriceAt(const std::string& curve_id, double x);

  // Batched price query: one frame carrying all of `xs`, one response.
  StatusOr<std::vector<double>> PriceBatch(const std::string& curve_id,
                                           const std::vector<double>& xs);

  // Largest x whose price fits `budget` (paper's inverse query).
  StatusOr<double> BudgetToX(const std::string& curve_id, double budget);

  StatusOr<SnapshotInfoPayload> SnapshotInfo(const std::string& curve_id);

  StatusOr<StatsPayload> Stats();

  // Prices (curve, δ) and returns the signed quote token a later Buy can
  // present to purchase at exactly that price until it expires.
  StatusOr<QuotePayload> Quote(const std::string& curve_id, double delta);

  // Buys a noised model instance at NCP δ > 0. txn_id 0 auto-generates a
  // process-unique id (NextTransactionId); pass an explicit id to make
  // the purchase replayable/idempotent under YOUR key. `token` from a
  // prior Quote locks in the quoted price. Safe under the retry ladder:
  // the server's ledger dedupes the txn id, so a retried BUY receives the
  // identical recorded sale and is charged once.
  StatusOr<BuyPayload> Buy(const std::string& curve_id, double delta,
                           uint64_t txn_id = 0,
                           const std::string& token = std::string());

  // Re-delivers a recorded sale bit-identically from its ledger record.
  StatusOr<BuyPayload> Replay(uint64_t txn_id);

  // Fresh client-unique transaction id (never 0): mixed from the pid,
  // client identity, startup time, and a per-client counter.
  uint64_t NextTransactionId();

  // Sends `request` (request_id is assigned here) and blocks for its
  // response frame, applying the full deadline + retry ladder. Exposed
  // for tests that exercise raw verbs.
  Status Roundtrip(Request request, Response* response);

  const ClientTelemetry& telemetry() const { return telemetry_; }
  // Remaining retry-budget tokens (see RetryPolicy::retry_budget).
  double retry_budget() const { return budget_; }

 private:
  using Clock = std::chrono::steady_clock;

  PriceClient(std::string host, uint16_t port, ClientOptions options);

  // (Re-)establishes the connection: bounded by `deadline`;
  // kDeadlineExceeded when it cannot complete in time.
  Status Reconnect(Clock::time_point deadline);
  void CloseChannel();

  // One send+receive attempt bounded by `deadline`. Sets
  // *transport_broken when the connection is no longer usable (the
  // caller must Reconnect before any further attempt).
  Status RoundtripOnce(const Request& request, const std::string& wire,
                       Clock::time_point deadline, Response* response,
                       bool* transport_broken);

  std::string host_;
  uint16_t port_;
  ClientOptions options_;
  std::unique_ptr<ClientChannel> channel_;
  uint64_t next_request_id_ = 1;
  std::string rx_;  // bytes received beyond the last decoded frame
  uint64_t txn_base_ = 0;  // NextTransactionId entropy, set at construction
  uint64_t txn_seq_ = 0;
  double budget_;
  fault::Pcg32 jitter_;
  ClientTelemetry telemetry_;
};

}  // namespace mbp::net

#endif  // MBP_NET_CLIENT_H_
