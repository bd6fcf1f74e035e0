#include "net/protocol.h"

#include <bit>
#include <cstring>

#include "common/hash.h"

namespace mbp::net {
namespace {

constexpr size_t kMaxCurveIdBytes = 255;
constexpr size_t kMaxTokenBytes = 255;
constexpr uint8_t kMaxStatusCodeByte =
    static_cast<uint8_t>(StatusCode::kUnavailable);
// Wire bytes of a SaleRecordPayload: txn_id, curve_ref, delta, price,
// seed_commitment.
constexpr size_t kSaleRecordWireBytes = 8 + 4 + 8 + 8 + 8;

bool VerbCarriesVector(Verb verb) {
  return verb == Verb::kPriceAt || verb == Verb::kBudgetToX;
}

// ------------------------------------------------------------- encoding
//
// Every frame's exact size is computed up front (Encoded*Size), the
// output buffer is sized once, and the bytes are written in place — no
// incremental growth, and the same writer serves both the std::string
// convenience overloads and the arena path (caller-owned raw buffers).

// Raw cursor over a caller-sized buffer. Bounds are the caller's
// responsibility (the encoder writes exactly Encoded*Size bytes).
class Writer {
 public:
  explicit Writer(uint8_t* out) : base_(out), p_(out) {}

  void Bytes(const void* data, size_t n) {
    if (n == 0) return;
    std::memcpy(p_, data, n);
    p_ += n;
  }

  void U8(uint8_t v) { Bytes(&v, 1); }
  void U16(uint16_t v) { Bytes(&v, 2); }
  void U32(uint32_t v) { Bytes(&v, 4); }
  void U64(uint64_t v) { Bytes(&v, 8); }
  void F64(double v) { Bytes(&v, 8); }

  void Doubles(const double* values, size_t count) {
    U32(static_cast<uint32_t>(count));
    Bytes(values, count * sizeof(double));
  }

  void Histogram(const LatencyHistogramSnapshot& snap) {
    U64(snap.count);
    F64(snap.sum_micros);
    U32(static_cast<uint32_t>(kLatencyBuckets));
    for (const uint64_t bucket : snap.buckets) U64(bucket);
  }

  size_t written() const { return static_cast<size_t>(p_ - base_); }

 private:
  uint8_t* base_;
  uint8_t* p_;
};

constexpr size_t kHistogramWireBytes =
    8 + 8 + 4 + 8 * kLatencyBuckets;  // count, sum, bucket count, buckets

// Writes the 20-byte header with the final frame_len already in place
// (the whole point of exact sizing); the checksum field is zeroed here
// and patched by SealFrame once the payload bytes exist.
void WriteHeader(Writer* w, Verb verb, StatusCode code, uint64_t request_id,
                 size_t frame_size) {
  w->U32(static_cast<uint32_t>(frame_size - 8));
  w->U32(0);  // checksum, patched by SealFrame
  w->U8(kProtocolVersion);
  w->U8(static_cast<uint8_t>(verb));
  w->U8(static_cast<uint8_t>(code));
  w->U8(0);  // reserved
  w->U64(request_id);
}

// Computes the checksum over the finished frame, in place.
void SealFrame(uint8_t* frame, size_t frame_size) {
  const uint32_t checksum = Fnv1a32(frame + 8, frame_size - 8);
  std::memcpy(frame + 4, &checksum, 4);
}

size_t RequestCurveIdLen(const Request& request) {
  return std::min(request.curve_id.size(), kMaxCurveIdBytes);
}

size_t RequestTokenLen(const Request& request) {
  return std::min(request.token.size(), kMaxTokenBytes);
}

size_t ResponseErrorLen(const Response& response) {
  return std::min<size_t>(response.error_message.size(), 65535);
}

// ------------------------------------------------------------- decoding

// Cursor over one complete, checksum-verified frame's payload. Any
// overrun means the length prefix and the payload structure disagree —
// corruption the checksum cannot rule out, reported as InvalidArgument.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status Bytes(void* out, size_t n) {
    if (size_ - offset_ < n) {
      return InvalidArgumentError("net frame payload overruns its length");
    }
    if (n > 0) std::memcpy(out, data_ + offset_, n);
    offset_ += n;
    return Status::OK();
  }

  Status U8(uint8_t* v) { return Bytes(v, 1); }
  Status U16(uint16_t* v) { return Bytes(v, 2); }
  Status U32(uint32_t* v) { return Bytes(v, 4); }
  Status U64(uint64_t* v) { return Bytes(v, 8); }
  Status F64(double* v) { return Bytes(v, 8); }

  Status String(size_t n, std::string* out) {
    out->resize(n);
    return Bytes(out->data(), n);
  }

  // Bounds-checked view into the payload without copying (the arena
  // decode path points string_views at the wire buffer directly).
  Status View(size_t n, const uint8_t** out) {
    if (size_ - offset_ < n) {
      return InvalidArgumentError("net frame payload overruns its length");
    }
    *out = data_ + offset_;
    offset_ += n;
    return Status::OK();
  }

  Status Doubles(std::vector<double>* out) {
    uint32_t count = 0;
    MBP_RETURN_IF_ERROR(U32(&count));
    if (count > kMaxVectorElements) {
      return InvalidArgumentError("net frame vector count exceeds cap");
    }
    out->resize(count);
    return Bytes(out->data(), count * sizeof(double));
  }

  Status Histogram(LatencyHistogramSnapshot* out) {
    MBP_RETURN_IF_ERROR(U64(&out->count));
    MBP_RETURN_IF_ERROR(F64(&out->sum_micros));
    uint32_t num_buckets = 0;
    MBP_RETURN_IF_ERROR(U32(&num_buckets));
    if (num_buckets != kLatencyBuckets) {
      return InvalidArgumentError(
          "net stats histogram bucket count mismatch");
    }
    for (size_t i = 0; i < kLatencyBuckets; ++i) {
      MBP_RETURN_IF_ERROR(U64(&out->buckets[i]));
    }
    return Status::OK();
  }

  Status ExpectEnd() const {
    if (offset_ != size_) {
      return InvalidArgumentError("net frame has trailing payload bytes");
    }
    return Status::OK();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
};

struct Header {
  Verb verb = Verb::kPriceAt;
  StatusCode code = StatusCode::kOk;
  uint64_t request_id = 0;
  size_t payload_offset = 0;  // from frame start
  size_t frame_size = 0;      // whole frame, header included
};

// Parses and validates the shared header. Consumed-size semantics match
// DecodeRequest/DecodeResponse: 0 bytes means incomplete.
StatusOr<size_t> DecodeHeader(const uint8_t* data, size_t size,
                              Header* out) {
  if (size < 8) return size_t{0};
  uint32_t frame_len = 0;
  uint32_t checksum = 0;
  std::memcpy(&frame_len, data, 4);
  std::memcpy(&checksum, data + 4, 4);
  // Length sanity first: a corrupt length prefix must not stall the
  // connection forever waiting for bytes that will never come.
  if (frame_len < kHeaderBytes - 8 || frame_len > kMaxFrameBytes - 8) {
    return InvalidArgumentError("net frame length prefix out of range");
  }
  const size_t frame_size = size_t{frame_len} + 8;
  if (size < frame_size) return size_t{0};
  if (Fnv1a32(data + 8, frame_len) != checksum) {
    return InvalidArgumentError("net frame checksum mismatch");
  }
  if (data[8] != kProtocolVersion) {
    return InvalidArgumentError("unsupported net protocol version");
  }
  const uint8_t verb = data[9];
  if (verb < static_cast<uint8_t>(Verb::kPriceAt) ||
      verb > static_cast<uint8_t>(Verb::kReplay)) {
    return InvalidArgumentError("unknown net protocol verb");
  }
  if (data[10] > kMaxStatusCodeByte) {
    return InvalidArgumentError("net frame carries unknown status code");
  }
  if (data[11] != 0) {
    return InvalidArgumentError("net frame reserved byte is not zero");
  }
  out->verb = static_cast<Verb>(verb);
  out->code = static_cast<StatusCode>(data[10]);
  std::memcpy(&out->request_id, data + 12, 8);
  out->payload_offset = kHeaderBytes;
  out->frame_size = frame_size;
  return frame_size;
}

}  // namespace

std::string_view VerbName(Verb verb) {
  switch (verb) {
    case Verb::kPriceAt: return "PRICE_AT";
    case Verb::kBudgetToX: return "BUDGET_TO_X";
    case Verb::kSnapshotInfo: return "SNAPSHOT_INFO";
    case Verb::kStats: return "STATS";
    case Verb::kQuote: return "QUOTE";
    case Verb::kBuy: return "BUY";
    case Verb::kReplay: return "REPLAY";
  }
  return "?";
}

Response ErrorResponse(const Request& request, const Status& status) {
  Response response;
  response.verb = request.verb;
  response.request_id = request.request_id;
  response.code = status.ok() ? StatusCode::kInternal : status.code();
  response.error_message = status.message();
  return response;
}

size_t EncodedRequestSize(const Request& request) {
  size_t size = kHeaderBytes + 1 + RequestCurveIdLen(request);
  if (VerbCarriesVector(request.verb)) {
    size += 4 + request.args.size() * sizeof(double);
  }
  switch (request.verb) {
    case Verb::kQuote:
      size += 8;  // delta
      break;
    case Verb::kBuy:
      size += 8 + 8 + 1 + RequestTokenLen(request);  // delta, txn, token
      break;
    case Verb::kReplay:
      size += 8;  // txn_id
      break;
    default:
      break;
  }
  return size;
}

size_t EncodedResponseSize(const Response& response) {
  if (response.code != StatusCode::kOk) {
    return kHeaderBytes + 2 + ResponseErrorLen(response);
  }
  switch (response.verb) {
    case Verb::kPriceAt:
    case Verb::kBudgetToX:
      return kHeaderBytes + 4 + response.values.size() * sizeof(double);
    case Verb::kSnapshotInfo:
      return kHeaderBytes + 3 * 8 + 2 * 8;
    case Verb::kStats: {
      const StatsPayload& s = response.stats;
      // 17 v3 u64s, 7 per-verb counters, 7 fulfillment u64s, revenue f64,
      // 6 v5 durability u64s, 3 histograms, fault list.
      size_t size =
          kHeaderBytes + 37 * 8 + 8 + 3 * kHistogramWireBytes + 1;
      const size_t num_faults = std::min<size_t>(s.faults.size(), 255);
      for (size_t i = 0; i < num_faults; ++i) {
        size += 1 + std::min<size_t>(s.faults[i].point.size(), 255) + 8;
      }
      return size;
    }
    case Verb::kQuote:
      return kHeaderBytes + 8 + 8 + 8 + 1 +
             std::min(response.quote.token.size(), kMaxTokenBytes);
    case Verb::kBuy:
    case Verb::kReplay:
      return EncodedBuyResponseSize(response.buy.weights.size());
  }
  return kHeaderBytes;
}

size_t EncodeRequestInto(const Request& request, uint8_t* out) {
  const size_t frame_size = EncodedRequestSize(request);
  Writer w(out);
  WriteHeader(&w, request.verb, StatusCode::kOk, request.request_id,
              frame_size);
  const size_t id_len = RequestCurveIdLen(request);
  w.U8(static_cast<uint8_t>(id_len));
  w.Bytes(request.curve_id.data(), id_len);
  if (VerbCarriesVector(request.verb)) {
    w.Doubles(request.args.data(), request.args.size());
  }
  switch (request.verb) {
    case Verb::kQuote:
      w.F64(request.delta);
      break;
    case Verb::kBuy: {
      w.F64(request.delta);
      w.U64(request.txn_id);
      const size_t token_len = RequestTokenLen(request);
      w.U8(static_cast<uint8_t>(token_len));
      w.Bytes(request.token.data(), token_len);
      break;
    }
    case Verb::kReplay:
      w.U64(request.txn_id);
      break;
    default:
      break;
  }
  SealFrame(out, frame_size);
  return frame_size;
}

size_t EncodeResponseInto(const Response& response, uint8_t* out) {
  const size_t frame_size = EncodedResponseSize(response);
  Writer w(out);
  WriteHeader(&w, response.verb, response.code, response.request_id,
              frame_size);
  if (response.code != StatusCode::kOk) {
    const size_t msg_len = ResponseErrorLen(response);
    w.U16(static_cast<uint16_t>(msg_len));
    w.Bytes(response.error_message.data(), msg_len);
  } else {
    switch (response.verb) {
      case Verb::kPriceAt:
      case Verb::kBudgetToX:
        w.Doubles(response.values.data(), response.values.size());
        break;
      case Verb::kSnapshotInfo:
        w.U64(response.info.version);
        w.U64(response.info.stamp);
        w.U64(response.info.num_knots);
        w.F64(response.info.x_max);
        w.F64(response.info.max_price);
        break;
      case Verb::kStats: {
        const StatsPayload& s = response.stats;
        w.U64(s.connections_accepted);
        w.U64(s.connections_active);
        w.U64(s.requests_ok);
        w.U64(s.requests_error);
        w.U64(s.protocol_errors);
        w.U64(s.queries);
        w.U64(s.batches);
        w.U64(s.connections_refused);
        w.U64(s.requests_shed);
        w.U64(s.deadline_drops);
        w.U64(s.connections_killed);
        w.U64(s.faults_injected);
        w.U64(s.write_queue_peak_bytes);
        w.U64(s.catalog_listings);
        w.U64(s.catalog_bytes);
        w.U64(s.transport_syscalls);
        w.U64(s.shm_doorbell_wakes);
        // v4: per-verb counters (verb bytes 1..kNumVerbSlots-1; slot 0 is
        // unused so the wire never carries it), then fulfillment stats.
        for (size_t v = 1; v < kNumVerbSlots; ++v) {
          w.U64(s.requests_by_verb[v]);
        }
        w.U64(s.buys_ok);
        w.U64(s.model_cache_entries);
        w.U64(s.model_cache_bytes);
        w.U64(s.model_cache_hits);
        w.U64(s.model_cache_misses);
        w.U64(s.model_cache_evictions);
        w.U64(s.transactions_recorded);
        w.F64(s.revenue);
        // v5: durability block.
        w.U64(s.wal_appends);
        w.U64(s.wal_fsyncs);
        w.U64(s.wal_bytes);
        w.U64(s.recovery_records);
        w.U64(s.recovery_torn_tail);
        w.U64(s.recovery_ms);
        w.Histogram(s.latency);
        w.Histogram(s.write_queue_bytes);
        w.Histogram(s.fulfillment_latency);
        const size_t num_faults = std::min<size_t>(s.faults.size(), 255);
        w.U8(static_cast<uint8_t>(num_faults));
        for (size_t i = 0; i < num_faults; ++i) {
          const FaultCount& f = s.faults[i];
          const size_t name_len = std::min<size_t>(f.point.size(), 255);
          w.U8(static_cast<uint8_t>(name_len));
          w.Bytes(f.point.data(), name_len);
          w.U64(f.fires);
        }
        break;
      }
      case Verb::kQuote: {
        const QuotePayload& q = response.quote;
        w.F64(q.price);
        w.F64(q.delta);
        w.U64(q.expires_at_micros);
        const size_t token_len = std::min(q.token.size(), kMaxTokenBytes);
        w.U8(static_cast<uint8_t>(token_len));
        w.Bytes(q.token.data(), token_len);
        break;
      }
      case Verb::kBuy:
      case Verb::kReplay: {
        const SaleRecordPayload& r = response.buy.record;
        w.U64(r.txn_id);
        w.U32(r.curve_ref);
        w.F64(r.delta);
        w.F64(r.price);
        w.U64(r.seed_commitment);
        w.Doubles(response.buy.weights.data(),
                  response.buy.weights.size());
        break;
      }
    }
  }
  SealFrame(out, frame_size);
  return frame_size;
}

size_t EncodedValuesResponseSize(size_t count) {
  return kHeaderBytes + 4 + count * sizeof(double);
}

size_t EncodeValuesResponseInto(Verb verb, uint64_t request_id,
                                const double* values, size_t count,
                                uint8_t* out) {
  const size_t frame_size = EncodedValuesResponseSize(count);
  Writer w(out);
  WriteHeader(&w, verb, StatusCode::kOk, request_id, frame_size);
  w.Doubles(values, count);
  SealFrame(out, frame_size);
  return frame_size;
}

size_t EncodedBuyResponseSize(size_t num_weights) {
  return kHeaderBytes + kSaleRecordWireBytes + 4 +
         num_weights * sizeof(double);
}

size_t EncodeBuyResponseInto(Verb verb, uint64_t request_id,
                             const SaleRecordPayload& record,
                             const double* weights, size_t num_weights,
                             uint8_t* out) {
  const size_t frame_size = EncodedBuyResponseSize(num_weights);
  Writer w(out);
  WriteHeader(&w, verb, StatusCode::kOk, request_id, frame_size);
  w.U64(record.txn_id);
  w.U32(record.curve_ref);
  w.F64(record.delta);
  w.F64(record.price);
  w.U64(record.seed_commitment);
  w.Doubles(weights, num_weights);
  SealFrame(out, frame_size);
  return frame_size;
}

void EncodeRequest(const Request& request, std::string* wire) {
  const size_t offset = wire->size();
  wire->resize(offset + EncodedRequestSize(request));
  EncodeRequestInto(request,
                    reinterpret_cast<uint8_t*>(wire->data()) + offset);
}

void EncodeResponse(const Response& response, std::string* wire) {
  const size_t offset = wire->size();
  wire->resize(offset + EncodedResponseSize(response));
  EncodeResponseInto(response,
                     reinterpret_cast<uint8_t*>(wire->data()) + offset);
}

StatusOr<size_t> DecodeRequest(const uint8_t* data, size_t size,
                               Request* out) {
  Header header;
  MBP_ASSIGN_OR_RETURN(const size_t consumed,
                       DecodeHeader(data, size, &header));
  if (consumed == 0) return size_t{0};
  if (header.code != StatusCode::kOk) {
    return InvalidArgumentError("net request carries a non-OK status byte");
  }
  *out = Request{};
  out->verb = header.verb;
  out->request_id = header.request_id;
  Reader reader(data + header.payload_offset,
                header.frame_size - header.payload_offset);
  uint8_t id_len = 0;
  MBP_RETURN_IF_ERROR(reader.U8(&id_len));
  MBP_RETURN_IF_ERROR(reader.String(id_len, &out->curve_id));
  if (VerbCarriesVector(out->verb)) {
    MBP_RETURN_IF_ERROR(reader.Doubles(&out->args));
    if (out->args.empty()) {
      return InvalidArgumentError("net request carries no query values");
    }
  }
  switch (out->verb) {
    case Verb::kQuote:
      MBP_RETURN_IF_ERROR(reader.F64(&out->delta));
      break;
    case Verb::kBuy: {
      MBP_RETURN_IF_ERROR(reader.F64(&out->delta));
      MBP_RETURN_IF_ERROR(reader.U64(&out->txn_id));
      uint8_t token_len = 0;
      MBP_RETURN_IF_ERROR(reader.U8(&token_len));
      MBP_RETURN_IF_ERROR(reader.String(token_len, &out->token));
      break;
    }
    case Verb::kReplay:
      MBP_RETURN_IF_ERROR(reader.U64(&out->txn_id));
      break;
    default:
      break;
  }
  MBP_RETURN_IF_ERROR(reader.ExpectEnd());
  return consumed;
}

StatusOr<size_t> DecodeRequestView(const uint8_t* data, size_t size,
                                   RequestView* out, Arena* arena) {
  Header header;
  MBP_ASSIGN_OR_RETURN(const size_t consumed,
                       DecodeHeader(data, size, &header));
  if (consumed == 0) return size_t{0};
  if (header.code != StatusCode::kOk) {
    return InvalidArgumentError("net request carries a non-OK status byte");
  }
  *out = RequestView{};
  out->verb = header.verb;
  out->request_id = header.request_id;
  Reader reader(data + header.payload_offset,
                header.frame_size - header.payload_offset);
  uint8_t id_len = 0;
  MBP_RETURN_IF_ERROR(reader.U8(&id_len));
  const uint8_t* id_bytes = nullptr;
  MBP_RETURN_IF_ERROR(reader.View(id_len, &id_bytes));
  out->curve_id = std::string_view(
      reinterpret_cast<const char*>(id_bytes), id_len);
  if (VerbCarriesVector(out->verb)) {
    uint32_t count = 0;
    MBP_RETURN_IF_ERROR(reader.U32(&count));
    if (count > kMaxVectorElements) {
      return InvalidArgumentError("net frame vector count exceeds cap");
    }
    const uint8_t* raw = nullptr;
    MBP_RETURN_IF_ERROR(reader.View(count * sizeof(double), &raw));
    if (count == 0) {
      return InvalidArgumentError("net request carries no query values");
    }
    // The wire offset is only 4-byte aligned, so the doubles are staged
    // through an aligned arena copy rather than read in place.
    double* args = arena->AllocateArray<double>(count);
    std::memcpy(args, raw, count * sizeof(double));
    out->args = args;
    out->num_args = count;
  }
  switch (out->verb) {
    case Verb::kQuote:
      MBP_RETURN_IF_ERROR(reader.F64(&out->delta));
      break;
    case Verb::kBuy: {
      MBP_RETURN_IF_ERROR(reader.F64(&out->delta));
      MBP_RETURN_IF_ERROR(reader.U64(&out->txn_id));
      uint8_t token_len = 0;
      MBP_RETURN_IF_ERROR(reader.U8(&token_len));
      const uint8_t* token_bytes = nullptr;
      MBP_RETURN_IF_ERROR(reader.View(token_len, &token_bytes));
      out->token = std::string_view(
          reinterpret_cast<const char*>(token_bytes), token_len);
      break;
    }
    case Verb::kReplay:
      MBP_RETURN_IF_ERROR(reader.U64(&out->txn_id));
      break;
    default:
      break;
  }
  MBP_RETURN_IF_ERROR(reader.ExpectEnd());
  return consumed;
}

StatusOr<size_t> DecodeResponse(const uint8_t* data, size_t size,
                                Response* out) {
  Header header;
  MBP_ASSIGN_OR_RETURN(const size_t consumed,
                       DecodeHeader(data, size, &header));
  if (consumed == 0) return size_t{0};
  *out = Response{};
  out->verb = header.verb;
  out->request_id = header.request_id;
  out->code = header.code;
  Reader reader(data + header.payload_offset,
                header.frame_size - header.payload_offset);
  if (out->code != StatusCode::kOk) {
    uint16_t msg_len = 0;
    MBP_RETURN_IF_ERROR(reader.U16(&msg_len));
    MBP_RETURN_IF_ERROR(reader.String(msg_len, &out->error_message));
  } else {
    switch (out->verb) {
      case Verb::kPriceAt:
      case Verb::kBudgetToX:
        MBP_RETURN_IF_ERROR(reader.Doubles(&out->values));
        break;
      case Verb::kSnapshotInfo:
        MBP_RETURN_IF_ERROR(reader.U64(&out->info.version));
        MBP_RETURN_IF_ERROR(reader.U64(&out->info.stamp));
        MBP_RETURN_IF_ERROR(reader.U64(&out->info.num_knots));
        MBP_RETURN_IF_ERROR(reader.F64(&out->info.x_max));
        MBP_RETURN_IF_ERROR(reader.F64(&out->info.max_price));
        break;
      case Verb::kStats: {
        StatsPayload& s = out->stats;
        MBP_RETURN_IF_ERROR(reader.U64(&s.connections_accepted));
        MBP_RETURN_IF_ERROR(reader.U64(&s.connections_active));
        MBP_RETURN_IF_ERROR(reader.U64(&s.requests_ok));
        MBP_RETURN_IF_ERROR(reader.U64(&s.requests_error));
        MBP_RETURN_IF_ERROR(reader.U64(&s.protocol_errors));
        MBP_RETURN_IF_ERROR(reader.U64(&s.queries));
        MBP_RETURN_IF_ERROR(reader.U64(&s.batches));
        MBP_RETURN_IF_ERROR(reader.U64(&s.connections_refused));
        MBP_RETURN_IF_ERROR(reader.U64(&s.requests_shed));
        MBP_RETURN_IF_ERROR(reader.U64(&s.deadline_drops));
        MBP_RETURN_IF_ERROR(reader.U64(&s.connections_killed));
        MBP_RETURN_IF_ERROR(reader.U64(&s.faults_injected));
        MBP_RETURN_IF_ERROR(reader.U64(&s.write_queue_peak_bytes));
        MBP_RETURN_IF_ERROR(reader.U64(&s.catalog_listings));
        MBP_RETURN_IF_ERROR(reader.U64(&s.catalog_bytes));
        MBP_RETURN_IF_ERROR(reader.U64(&s.transport_syscalls));
        MBP_RETURN_IF_ERROR(reader.U64(&s.shm_doorbell_wakes));
        for (size_t v = 1; v < kNumVerbSlots; ++v) {
          MBP_RETURN_IF_ERROR(reader.U64(&s.requests_by_verb[v]));
        }
        MBP_RETURN_IF_ERROR(reader.U64(&s.buys_ok));
        MBP_RETURN_IF_ERROR(reader.U64(&s.model_cache_entries));
        MBP_RETURN_IF_ERROR(reader.U64(&s.model_cache_bytes));
        MBP_RETURN_IF_ERROR(reader.U64(&s.model_cache_hits));
        MBP_RETURN_IF_ERROR(reader.U64(&s.model_cache_misses));
        MBP_RETURN_IF_ERROR(reader.U64(&s.model_cache_evictions));
        MBP_RETURN_IF_ERROR(reader.U64(&s.transactions_recorded));
        MBP_RETURN_IF_ERROR(reader.F64(&s.revenue));
        MBP_RETURN_IF_ERROR(reader.U64(&s.wal_appends));
        MBP_RETURN_IF_ERROR(reader.U64(&s.wal_fsyncs));
        MBP_RETURN_IF_ERROR(reader.U64(&s.wal_bytes));
        MBP_RETURN_IF_ERROR(reader.U64(&s.recovery_records));
        MBP_RETURN_IF_ERROR(reader.U64(&s.recovery_torn_tail));
        MBP_RETURN_IF_ERROR(reader.U64(&s.recovery_ms));
        MBP_RETURN_IF_ERROR(reader.Histogram(&s.latency));
        MBP_RETURN_IF_ERROR(reader.Histogram(&s.write_queue_bytes));
        MBP_RETURN_IF_ERROR(reader.Histogram(&s.fulfillment_latency));
        uint8_t num_faults = 0;
        MBP_RETURN_IF_ERROR(reader.U8(&num_faults));
        s.faults.resize(num_faults);
        for (FaultCount& f : s.faults) {
          uint8_t name_len = 0;
          MBP_RETURN_IF_ERROR(reader.U8(&name_len));
          MBP_RETURN_IF_ERROR(reader.String(name_len, &f.point));
          MBP_RETURN_IF_ERROR(reader.U64(&f.fires));
        }
        break;
      }
      case Verb::kQuote: {
        QuotePayload& q = out->quote;
        MBP_RETURN_IF_ERROR(reader.F64(&q.price));
        MBP_RETURN_IF_ERROR(reader.F64(&q.delta));
        MBP_RETURN_IF_ERROR(reader.U64(&q.expires_at_micros));
        uint8_t token_len = 0;
        MBP_RETURN_IF_ERROR(reader.U8(&token_len));
        MBP_RETURN_IF_ERROR(reader.String(token_len, &q.token));
        break;
      }
      case Verb::kBuy:
      case Verb::kReplay: {
        SaleRecordPayload& r = out->buy.record;
        MBP_RETURN_IF_ERROR(reader.U64(&r.txn_id));
        MBP_RETURN_IF_ERROR(reader.U32(&r.curve_ref));
        MBP_RETURN_IF_ERROR(reader.F64(&r.delta));
        MBP_RETURN_IF_ERROR(reader.F64(&r.price));
        MBP_RETURN_IF_ERROR(reader.U64(&r.seed_commitment));
        MBP_RETURN_IF_ERROR(reader.Doubles(&out->buy.weights));
        break;
      }
    }
  }
  MBP_RETURN_IF_ERROR(reader.ExpectEnd());
  return consumed;
}

}  // namespace mbp::net
