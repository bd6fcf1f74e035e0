#ifndef MBP_NET_PROTOCOL_H_
#define MBP_NET_PROTOCOL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "common/statusor.h"

namespace mbp::net {

// Compact length-prefixed binary protocol for the networked price-serving
// front end (DESIGN.md §5d). One frame per request and per response, both
// directions sharing a 20-byte header:
//
//   offset  size  field
//   0       4     frame_len   bytes after the checksum field (>= 12,
//                             <= kMaxFrameBytes - 8); total frame size is
//                             frame_len + 8
//   4       4     checksum    FNV-1a-32 over bytes [8, 8 + frame_len) —
//                             the rest of the header AND the payload, so a
//                             flipped bit anywhere past the length prefix
//                             is caught before a frame is acted on
//   8       1     version     kProtocolVersion
//   9       1     verb        Verb (responses echo the request's verb)
//   10      1     status      StatusCode as a byte; 0 (kOk) on requests
//   11      1     reserved    must be 0
//   12      8     request_id  client-chosen correlation id, echoed back
//   20      ...   payload     verb-specific, see EncodeRequest/Response
//
// All integers and doubles are little-endian (doubles as their IEEE-754
// bit pattern), matching every platform this repo targets. Frames are
// self-delimiting, so any number of them can be pipelined on one TCP
// connection. Responses preserve the order of same-verb requests, but the
// server may batch PRICE_AT answers behind other verbs, so pipelining
// clients must correlate by request_id, not position.
//
// Corruption semantics: decoding returns the number of bytes consumed, 0
// when the buffer does not yet hold a complete frame, and a non-OK Status
// when the stream is unrecoverably corrupt (bad length, checksum, version,
// verb, or payload structure). After an error the framing is lost and the
// connection must be closed — there is no resynchronization.

// v2 appended catalog_listings / catalog_bytes to the STATS payload (the
// multi-tenant catalog's memory-accounting surface, DESIGN.md §5g); v3
// appended the per-transport counters (DESIGN.md §5h); v4 added the
// fulfillment verbs QUOTE/BUY/REPLAY with their multi-KB model payloads
// and appended the per-verb request counters + fulfillment block to
// STATS (DESIGN.md §5i); v5 appended the durability block (WAL append/
// fsync/byte counters and what the last recovery found — DESIGN.md §5j);
// v6 dropped the backend-fallback and submission-queue counters along
// with the second TCP backend that alone produced them, leaving
// transport_syscalls and shm_doorbell_wakes. The version byte is checked
// for exact equality on both sides, so mismatched processes refuse each
// other's frames instead of misparsing them.
inline constexpr uint8_t kProtocolVersion = 6;
inline constexpr size_t kHeaderBytes = 20;
// Hard cap on a whole frame (header + payload): bounds every per-
// connection buffer and rejects absurd length prefixes before allocating.
inline constexpr size_t kMaxFrameBytes = 1 << 20;
// Largest args/values vector a frame can carry under kMaxFrameBytes.
inline constexpr size_t kMaxVectorElements =
    (kMaxFrameBytes - kHeaderBytes - 8) / sizeof(double);

enum class Verb : uint8_t {
  kPriceAt = 1,       // args: xs (>= 1)        -> values: prices
  kBudgetToX = 2,     // args: budgets (>= 1)   -> values: largest xs
  kSnapshotInfo = 3,  // no args                -> SnapshotInfoPayload
  kStats = 4,         // no args, no curve id   -> StatsPayload
  // Fulfillment verbs (DESIGN.md §5i): the paper's actual transaction.
  kQuote = 5,   // delta                  -> QuotePayload (signed token)
  kBuy = 6,     // delta, txn_id, token?  -> BuyPayload (noised weights)
  kReplay = 7,  // txn_id                 -> BuyPayload (bit-identical)
};

// One past the largest verb byte; sizes per-verb counter arrays (index by
// the raw verb byte, entry 0 unused).
inline constexpr size_t kNumVerbSlots = 8;

// Human-readable verb name ("PRICE_AT", ...); "?" for invalid bytes.
std::string_view VerbName(Verb verb);

struct Request {
  Verb verb = Verb::kPriceAt;
  uint64_t request_id = 0;
  // Curve to query; empty selects the server's default curve. Ignored by
  // kStats. Capped at 255 bytes on the wire.
  std::string curve_id;
  // xs for kPriceAt, budgets for kBudgetToX; must be empty otherwise.
  std::vector<double> args;
  // Noise control parameter for kQuote / kBuy (δ of the paper, > 0).
  double delta = 0.0;
  // Client-chosen transaction id for kBuy / kReplay. Retrying a BUY with
  // the same txn_id is idempotent: the server re-delivers the recorded
  // sale without charging again.
  uint64_t txn_id = 0;
  // Opaque quote token for kBuy (from a prior QUOTE; empty buys at the
  // current snapshot price). Capped at 255 bytes on the wire.
  std::string token;
};

struct SnapshotInfoPayload {
  uint64_t version = 0;    // PricingSnapshot::version()
  uint64_t stamp = 0;      // CurveSlot publish stamp (republish detector)
  uint64_t num_knots = 0;
  double x_max = 0.0;
  double max_price = 0.0;
};

// Transaction record appended to every BUY / REPLAY response: what the
// ledger stores, and everything needed to deterministically replay the
// sale (the seed commitment binds the server to the per-transaction noise
// stream — DESIGN.md §5i).
struct SaleRecordPayload {
  uint64_t txn_id = 0;
  uint32_t curve_ref = 0;  // server-interned CurveRef of the sold curve
  double delta = 0.0;
  double price = 0.0;
  uint64_t seed_commitment = 0;

  friend bool operator==(const SaleRecordPayload& a,
                         const SaleRecordPayload& b) {
    return a.txn_id == b.txn_id && a.curve_ref == b.curve_ref &&
           a.delta == b.delta && a.price == b.price &&
           a.seed_commitment == b.seed_commitment;
  }
};

// BUY / REPLAY success payload: the sale record plus the delivered noised
// weight vector. Multi-KB frames; still bounded by kMaxFrameBytes.
struct BuyPayload {
  SaleRecordPayload record;
  std::vector<double> weights;
};

// QUOTE success payload: the price the token locks in, echoed δ, the
// token's expiry (server CatalogRegistry::NowMicros() time base), and the
// opaque MAC'd token a subsequent BUY presents.
struct QuotePayload {
  double price = 0.0;
  double delta = 0.0;
  uint64_t expires_at_micros = 0;
  std::string token;  // <= 255 bytes on the wire
};

// Largest weight vector a BUY/REPLAY frame can carry under kMaxFrameBytes.
inline constexpr size_t kMaxModelWeights =
    (kMaxFrameBytes - kHeaderBytes - (8 + 4 + 8 + 8 + 8) - 4) /
    sizeof(double);

// One fault-injection point's fire count, carried in STATS so a chaos
// client can observe what the server-side injector actually did.
struct FaultCount {
  std::string point;  // <= 255 bytes on the wire
  uint64_t fires = 0;

  friend bool operator==(const FaultCount& a, const FaultCount& b) {
    return a.point == b.point && a.fires == b.fires;
  }
};

// Server-side operational counters + request latency histogram, in the
// common/metrics.h snapshot format. The resilience block (shed/killed/
// deadline counters, write-queue depth histogram, fault fires) is the
// observable surface of the degradation ladder (DESIGN.md §5e).
struct StatsPayload {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t requests_ok = 0;
  uint64_t requests_error = 0;
  uint64_t protocol_errors = 0;
  uint64_t queries = 0;        // individual prices/budgets served
  uint64_t batches = 0;        // micro-batched PriceBatch dispatches
  // Degradation ladder counters:
  uint64_t connections_refused = 0;   // closed at accept (hard cap)
  uint64_t requests_shed = 0;         // answered OVERLOADED/RETRY_LATER
  uint64_t deadline_drops = 0;        // dropped past request_deadline_ms
  uint64_t connections_killed = 0;    // hard-killed (overflow / stalled drain)
  uint64_t faults_injected = 0;       // total injector fires, this process
  uint64_t write_queue_peak_bytes = 0;
  // Catalog residency (CatalogRegistry gauges, DESIGN.md §5g): listings
  // with a resident compiled snapshot and their summed MemoryBytes().
  uint64_t catalog_listings = 0;
  uint64_t catalog_bytes = 0;
  // Transport counters (DESIGN.md §5h): which backend the shards run on
  // is invisible at the protocol layer, so these are how operators and
  // the bench observe it. transport_syscalls counts every kernel
  // crossing the transports make (the bench's syscalls-per-request
  // numerator); shm_doorbell_wakes is the shm backend's activity gauge.
  uint64_t transport_syscalls = 0;
  uint64_t shm_doorbell_wakes = 0;
  // Per-verb request counts, indexed by the raw verb byte (entry 0
  // unused). Counts every decoded request, shed or served — the verb mix
  // the bench and CLI surface.
  std::array<uint64_t, kNumVerbSlots> requests_by_verb{};
  // Fulfillment block (DESIGN.md §5i): the BUY pipeline's observable
  // surface. Zero everywhere when the server has no FulfillmentEngine.
  uint64_t buys_ok = 0;               // completed sales (first deliveries)
  uint64_t model_cache_entries = 0;   // ModelInstanceCache residents
  uint64_t model_cache_bytes = 0;     // their byte-accounted footprint
  uint64_t model_cache_hits = 0;
  uint64_t model_cache_misses = 0;
  uint64_t model_cache_evictions = 0;
  uint64_t transactions_recorded = 0;  // ledger size (replayable sales)
  double revenue = 0.0;                // summed charged prices
  // Durability block (v5, DESIGN.md §5j): the sale-ledger WAL's lifetime
  // counters plus what the LAST recovery found on disk. All zero when
  // the shard runs without --wal-dir.
  uint64_t wal_appends = 0;        // durable sale records written
  uint64_t wal_fsyncs = 0;         // fdatasync calls (group commit batches)
  uint64_t wal_bytes = 0;          // bytes appended (frames included)
  uint64_t recovery_records = 0;   // segment records replayed at startup
  uint64_t recovery_torn_tail = 0; // torn tails truncated / rot rejected
  uint64_t recovery_ms = 0;        // recovery wall time, rounded up
  LatencyHistogramSnapshot latency;
  // log2-bucket histogram over pending write-queue bytes, sampled at
  // every response enqueue (bucket i = [2^(i-1), 2^i) bytes).
  LatencyHistogramSnapshot write_queue_bytes;
  // Fulfillment latency (decode to noised-weights framing) per BUY.
  LatencyHistogramSnapshot fulfillment_latency;
  // Per-point injector fire counts (empty when nothing armed); capped at
  // 255 entries on the wire.
  std::vector<FaultCount> faults;
};

struct Response {
  Verb verb = Verb::kPriceAt;
  uint64_t request_id = 0;
  // kOk for success; any other code carries error_message and no data.
  StatusCode code = StatusCode::kOk;
  std::string error_message;
  std::vector<double> values;  // kPriceAt / kBudgetToX results
  SnapshotInfoPayload info;    // kSnapshotInfo result
  StatsPayload stats;          // kStats result
  BuyPayload buy;              // kBuy / kReplay result
  QuotePayload quote;          // kQuote result
};

// Builds the response frame skeleton for an error outcome.
Response ErrorResponse(const Request& request, const Status& status);

// Exact wire size of the frame Encode{Request,Response} will produce —
// every encode below sizes its output in ONE step from these (no
// incremental growth) and computes the checksum in place.
size_t EncodedRequestSize(const Request& request);
size_t EncodedResponseSize(const Response& response);

// Appends one encoded frame to `*wire` (one exact-size resize).
void EncodeRequest(const Request& request, std::string* wire);
void EncodeResponse(const Response& response, std::string* wire);

// Encodes one frame into a caller-owned buffer of at least
// Encoded*Size(...) bytes — the arena path: the server frames responses
// directly into per-connection arena memory that iovecs then point at,
// no intermediate string. Returns the bytes written (== Encoded*Size).
size_t EncodeRequestInto(const Request& request, uint8_t* out);
size_t EncodeResponseInto(const Response& response, uint8_t* out);

// Allocation-free fast path for the dominant response shape: a
// successful PRICE_AT / BUDGET_TO_X frame carrying `count` doubles,
// framed straight from a raw array (no Response object, no vector).
// Byte-for-byte identical to EncodeResponseInto of the equivalent
// Response. count must be <= kMaxVectorElements.
size_t EncodedValuesResponseSize(size_t count);
size_t EncodeValuesResponseInto(Verb verb, uint64_t request_id,
                                const double* values, size_t count,
                                uint8_t* out);

// Arena path for BUY / REPLAY success frames: the sale record + noised
// weights framed straight from a raw array into caller-owned memory.
// Byte-for-byte identical to EncodeResponseInto of the equivalent
// Response. num_weights must be <= kMaxModelWeights. `verb` is kBuy or
// kReplay (the payload shape is shared — that sameness is the replay
// contract's delivered-bytes anchor).
size_t EncodedBuyResponseSize(size_t num_weights);
size_t EncodeBuyResponseInto(Verb verb, uint64_t request_id,
                             const SaleRecordPayload& record,
                             const double* weights, size_t num_weights,
                             uint8_t* out);

// Attempts to decode ONE frame from the front of [data, data + size).
// Returns the number of bytes consumed (a complete frame), 0 when more
// bytes are needed, or a non-OK Status on corruption (close the stream).
StatusOr<size_t> DecodeRequest(const uint8_t* data, size_t size,
                               Request* out);
StatusOr<size_t> DecodeResponse(const uint8_t* data, size_t size,
                                Response* out);

// Zero-heap-allocation request decode for the server hot path: identical
// validation and consumed-size semantics to DecodeRequest, but curve_id
// is a view INTO the wire buffer (valid only while the buffer is) and
// args is an aligned copy in `arena` (valid until the arena resets).
struct RequestView {
  Verb verb = Verb::kPriceAt;
  uint64_t request_id = 0;
  std::string_view curve_id;
  const double* args = nullptr;
  size_t num_args = 0;
  double delta = 0.0;      // kQuote / kBuy
  uint64_t txn_id = 0;     // kBuy / kReplay
  std::string_view token;  // kBuy; view into the wire buffer
};
StatusOr<size_t> DecodeRequestView(const uint8_t* data, size_t size,
                                   RequestView* out, Arena* arena);

}  // namespace mbp::net

#endif  // MBP_NET_PROTOCOL_H_
