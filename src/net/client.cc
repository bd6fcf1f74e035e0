#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/hash.h"
#include "net/fault_syscalls.h"
#include "net/shm_ring.h"

namespace mbp::net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kShmScheme = "shm://";

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

// Deadline sentinel when a timeout knob is 0 (disabled).
Clock::time_point NoDeadline() { return Clock::time_point::max(); }

Clock::time_point DeadlineAfterMs(int ms) {
  return ms <= 0 ? NoDeadline() : Clock::now() + std::chrono::milliseconds(ms);
}

// Remaining time as a poll() timeout: -1 for "no deadline", clamped to
// >= 0 otherwise. Poll timeouts are re-derived after every wakeup, so
// injected EINTR/short completions never extend the total wait.
int PollTimeoutMs(Clock::time_point deadline) {
  if (deadline == NoDeadline()) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(std::min<int64_t>(
                                     left.count(), 60 * 1000));
}

}  // namespace

// The transport under one PriceClient connection. Both operations are
// blocking-with-deadline; any non-OK return means the connection is no
// longer usable (the retry ladder reconnects on a fresh channel).
class ClientChannel {
 public:
  virtual ~ClientChannel() = default;

  // Delivers all `n` bytes (in order) or fails.
  virtual Status SendAll(const uint8_t* data, size_t n,
                         Clock::time_point deadline) = 0;
  // Blocks until at least one byte is available, the peer closes (0),
  // or `deadline` passes (kDeadlineExceeded).
  virtual StatusOr<size_t> RecvSome(uint8_t* buf, size_t max,
                                    Clock::time_point deadline) = 0;
};

namespace {

// ---------------------------------------------------------------------
// TCP: one nonblocking socket, poll()-paced.

class TcpChannel final : public ClientChannel {
 public:
  static StatusOr<std::unique_ptr<TcpChannel>> Connect(
      const std::string& host, uint16_t port, Clock::time_point deadline) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
    if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
      return InvalidArgumentError("unparsable IPv4 host '" + host + "'");
    }
    auto channel = std::unique_ptr<TcpChannel>(new TcpChannel());
    channel->fd_ =
        socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (channel->fd_ < 0) return ErrnoError("socket");
    // Bounded non-blocking connect: EINPROGRESS, then poll(POLLOUT) with
    // the remaining time, then SO_ERROR for the actual outcome. A peer
    // that drops SYNs (full backlog, blackholed route) surfaces as
    // kDeadlineExceeded instead of hanging the caller for minutes of
    // kernel retransmits.
    const std::string label = numeric + ":" + std::to_string(port);
    if (connect(channel->fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
      if (errno != EINPROGRESS && errno != EINTR) {
        return ErrnoError("connect " + label);
      }
      const Status ready = channel->WaitReady(POLLOUT, deadline);
      if (!ready.ok()) {
        if (ready.code() == StatusCode::kDeadlineExceeded) {
          return DeadlineExceededError("connect " + label + " timed out");
        }
        return ready;
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (getsockopt(channel->fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) <
              0 ||
          so_error != 0) {
        errno = so_error != 0 ? so_error : errno;
        return ErrnoError("connect " + label);
      }
    }
    const int one = 1;
    (void)setsockopt(channel->fd_, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
    return channel;
  }

  ~TcpChannel() override {
    if (fd_ >= 0) close(fd_);
  }

  Status SendAll(const uint8_t* data, size_t n,
                 Clock::time_point deadline) override {
    size_t sent = 0;
    while (sent < n) {
      const ssize_t w = internal::FaultSend(fd_, data + sent, n - sent);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          MBP_RETURN_IF_ERROR(WaitReady(POLLOUT, deadline));
          continue;
        }
        return ErrnoError("send");
      }
      sent += static_cast<size_t>(w);
    }
    return Status::OK();
  }

  StatusOr<size_t> RecvSome(uint8_t* buf, size_t max,
                            Clock::time_point deadline) override {
    while (true) {
      MBP_RETURN_IF_ERROR(WaitReady(POLLIN, deadline));
      const ssize_t n = internal::FaultRecv(fd_, buf, max);
      if (n == 0) return size_t{0};
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;  // poll again with the remaining deadline
        }
        return ErrnoError("recv");
      }
      return static_cast<size_t>(n);
    }
  }

 private:
  TcpChannel() = default;

  // Blocks until fd_ is ready for `events` or `deadline` passes.
  Status WaitReady(short events, Clock::time_point deadline) {
    while (true) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = events;
      const int n = internal::FaultPoll(&pfd, 1, PollTimeoutMs(deadline));
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoError("poll");
      }
      if (n == 0) {
        if (Clock::now() < deadline) continue;  // injected spurious timeout
        return DeadlineExceededError("deadline waiting on socket");
      }
      if (pfd.revents & (POLLERR | POLLNVAL)) {
        return InternalError("socket entered an error state");
      }
      return Status::OK();
    }
  }

  int fd_ = -1;
};

// ---------------------------------------------------------------------
// Shared-memory ring: one claimed slot of a server's segment. The
// protocol is documented at the top of shm_ring.h; this is the client
// half — claim/HELLO on connect, c2s producer + s2c consumer afterwards,
// a state/token check before every ring touch so a recycled or
// server-closed slot surfaces as a transport error instead of silent
// corruption.

class ShmChannel final : public ClientChannel {
 public:
  static StatusOr<std::unique_ptr<ShmChannel>> Connect(
      const std::string& path, Clock::time_point deadline) {
    using namespace shm_internal;  // NOLINT: protocol constants
    auto segment_or = ShmSegment::Open(path);
    if (!segment_or.ok()) return segment_or.status();
    auto channel = std::unique_ptr<ShmChannel>(new ShmChannel());
    channel->segment_ = std::move(*segment_or);
    ShmSegment* segment = channel->segment_.get();

    // A token no other claimant of this segment will ever stamp: pid +
    // a process-wide nonce (never zero — zero means "unstamped").
    static std::atomic<uint64_t> nonce{1};
    uint64_t token =
        (static_cast<uint64_t>(getpid()) << 32) ^
        (nonce.fetch_add(1, std::memory_order_relaxed) *
         0x9e3779b97f4a7c15ull) ^
        static_cast<uint64_t>(Clock::now().time_since_epoch().count());
    if (token == 0) token = 1;
    channel->token_ = token;

    // Claim: CAS any FREE slot to CLAIMED, stamp the token, go HELLO.
    const size_t slots = segment->num_slots();
    size_t claimed = slots;
    for (size_t i = 0; i < slots; ++i) {
      uint32_t expected = kSlotFree;
      if (segment->slot(i)->state.compare_exchange_strong(
              expected, kSlotClaimed, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        claimed = i;
        break;
      }
    }
    if (claimed == slots) {
      return UnavailableError("no free connection slots in shm segment " +
                              path);
    }
    channel->slot_ = claimed;
    SlotHeader* slot = segment->slot(claimed);
    slot->token.store(token, std::memory_order_release);
    slot->state.store(kSlotHello, std::memory_order_release);
    segment->RingDoorbell(nullptr, nullptr);

    // Await adoption. The server answers in microseconds when healthy,
    // so a short sleep-poll is cheaper than futex plumbing on `state`.
    while (true) {
      const uint32_t state = slot->state.load(std::memory_order_acquire);
      if (state == kSlotActive &&
          slot->token.load(std::memory_order_acquire) == token) {
        return channel;
      }
      if (state != kSlotHello && state != kSlotClaimed) {
        // Refused, or recycled out from under us: hands off the slot —
        // the server's grace reclaim owns it now.
        channel->slot_ = kNoSlot;
        return UnavailableError("shm connection refused by server");
      }
      if (!segment->is_open()) {
        channel->Abandon();
        return UnavailableError("shm segment is closed (server gone)");
      }
      if (Clock::now() >= deadline) {
        channel->Abandon();
        return DeadlineExceededError("connect " + path + " timed out");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  ~ShmChannel() override { Abandon(); }

  Status SendAll(const uint8_t* data, size_t n,
                 Clock::time_point deadline) override {
    // shm has no kernel socket to reset, but the connection-loss chaos
    // point still applies: the client machinery must treat an injected
    // reset exactly like TCP (mark the channel broken, reconnect on a
    // fresh slot).
    if (MBP_FAULT_POINT("net.send.reset")) {
      return InternalError("injected connection reset (shm)");
    }
    shm_internal::RingView ring = segment_->c2s(slot_);
    size_t sent = 0;
    while (sent < n) {
      MBP_RETURN_IF_ERROR(CheckUsable());
      const size_t w = ring.Write(data + sent, n - sent, nullptr, nullptr);
      if (w > 0) {
        sent += w;
        // The serving shard parks on the segment-global doorbell, not
        // the per-ring futex — ring it after every publish.
        segment_->RingDoorbell(nullptr, nullptr);
        continue;
      }
      // Ring full: declare-then-recheck on the space futex the server's
      // consumer bumps. Bounded wait; lost wakes cost only latency.
      shm_internal::RingHeader* hdr = ring.hdr;
      const uint32_t seen = hdr->space_seq.load(std::memory_order_seq_cst);
      hdr->producer_waiting.fetch_add(1, std::memory_order_seq_cst);
      if (ring.WriteSpace() == 0 && CheckUsable().ok()) {
        shm_internal::ShmFutexWait(&hdr->space_seq, seen,
                                   BoundedWaitMs(deadline), nullptr);
      }
      hdr->producer_waiting.fetch_sub(1, std::memory_order_seq_cst);
      if (Clock::now() >= deadline) {
        return DeadlineExceededError("deadline waiting for shm ring space");
      }
    }
    return Status::OK();
  }

  StatusOr<size_t> RecvSome(uint8_t* buf, size_t max,
                            Clock::time_point deadline) override {
    if (MBP_FAULT_POINT("net.recv.reset")) {
      return InternalError("injected connection reset (shm)");
    }
    shm_internal::RingView ring = segment_->s2c(slot_);
    while (true) {
      const size_t n = ring.Read(buf, max, nullptr, nullptr);
      if (n > 0) {
        // Freed s2c space: a want-write server learns via the doorbell.
        segment_->RingDoorbell(nullptr, nullptr);
        return n;
      }
      // Empty: orderly close (drained above) reads as EOF, exactly like
      // recv() == 0 on TCP.
      const Status usable = CheckUsable();
      if (!usable.ok()) {
        if (ServerClosed()) return size_t{0};
        return usable;
      }
      shm_internal::RingHeader* hdr = ring.hdr;
      const uint32_t seen = hdr->data_seq.load(std::memory_order_seq_cst);
      hdr->consumer_waiting.fetch_add(1, std::memory_order_seq_cst);
      if (ring.ReadAvailable() == 0 && CheckUsable().ok()) {
        shm_internal::ShmFutexWait(&hdr->data_seq, seen,
                                   BoundedWaitMs(deadline), nullptr);
      }
      hdr->consumer_waiting.fetch_sub(1, std::memory_order_seq_cst);
      if (Clock::now() >= deadline) {
        return DeadlineExceededError("deadline waiting for shm response");
      }
    }
  }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  ShmChannel() = default;

  // Still our ACTIVE slot in an open segment?
  Status CheckUsable() const {
    using namespace shm_internal;  // NOLINT: protocol constants
    const SlotHeader* slot = segment_->slot(slot_);
    if (slot->token.load(std::memory_order_acquire) != token_) {
      return InternalError("shm slot recycled under the connection");
    }
    const uint32_t state = slot->state.load(std::memory_order_acquire);
    if (state == kSlotServerClosed) {
      return InternalError("server closed the shm connection");
    }
    if (state != kSlotActive) {
      return InternalError("shm slot left ACTIVE (state " +
                           std::to_string(state) + ")");
    }
    if (!segment_->is_open()) {
      return UnavailableError("shm segment closed (server shutting down)");
    }
    return Status::OK();
  }

  bool ServerClosed() const {
    const shm_internal::SlotHeader* slot = segment_->slot(slot_);
    return slot->token.load(std::memory_order_acquire) == token_ &&
           (slot->state.load(std::memory_order_acquire) ==
                shm_internal::kSlotServerClosed ||
            !segment_->is_open());
  }

  // Futex waits are always bounded (<= 100ms) and never past `deadline`.
  static int BoundedWaitMs(Clock::time_point deadline) {
    const int remaining = PollTimeoutMs(deadline);
    return remaining < 0 ? 100 : std::min(remaining, 100);
  }

  // Release our claim: publish CLIENT_CLOSED (only while the slot is
  // still ours) and ring the doorbell so the server reclaims promptly.
  void Abandon() {
    using namespace shm_internal;  // NOLINT: protocol constants
    if (segment_ == nullptr || slot_ == kNoSlot) return;
    SlotHeader* slot = segment_->slot(slot_);
    if (slot->token.load(std::memory_order_acquire) == token_) {
      const uint32_t state = slot->state.load(std::memory_order_acquire);
      if (state == kSlotClaimed || state == kSlotHello ||
          state == kSlotActive) {
        slot->state.store(kSlotClientClosed, std::memory_order_release);
      }
    }
    segment_->RingDoorbell(nullptr, nullptr);
    slot_ = kNoSlot;
  }

  std::unique_ptr<ShmSegment> segment_;
  size_t slot_ = kNoSlot;
  uint64_t token_ = 0;
};

}  // namespace

bool IsIdempotent(Verb verb) {
  switch (verb) {
    case Verb::kPriceAt:
    case Verb::kBudgetToX:
    case Verb::kSnapshotInfo:
    case Verb::kStats:
    case Verb::kQuote:
    case Verb::kReplay:
      return true;  // read-only
    case Verb::kBuy:
      // Mutating, but keyed by the client-chosen txn id the server's
      // ledger dedupes: a retried BUY re-delivers the recorded sale
      // without charging again, so retrying cannot double-apply.
      return true;
  }
  return false;
}

PriceClient::PriceClient(std::string host, uint16_t port,
                         ClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      budget_(options.retry.retry_budget),
      jitter_(options.retry.jitter_seed, 0x2545f4914f6cdd1dull) {}

StatusOr<std::unique_ptr<PriceClient>> PriceClient::Connect(
    const std::string& host, uint16_t port, ClientOptions options) {
  std::unique_ptr<PriceClient> client(
      new PriceClient(host, port, options));
  const Status status =
      client->Reconnect(DeadlineAfterMs(options.connect_timeout_ms));
  if (!status.ok()) return status;
  client->telemetry_.reconnects = 0;  // the first connect is not a "re"
  return client;
}

PriceClient::~PriceClient() { CloseChannel(); }

void PriceClient::CloseChannel() {
  channel_.reset();
  rx_.clear();
}

Status PriceClient::Reconnect(Clock::time_point deadline) {
  CloseChannel();
  if (host_.rfind(kShmScheme, 0) == 0) {
    auto channel_or =
        ShmChannel::Connect(host_.substr(kShmScheme.size()), deadline);
    if (!channel_or.ok()) return channel_or.status();
    channel_ = std::move(*channel_or);
  } else {
    auto channel_or = TcpChannel::Connect(host_, port_, deadline);
    if (!channel_or.ok()) return channel_or.status();
    channel_ = std::move(*channel_or);
  }
  ++telemetry_.reconnects;
  return Status::OK();
}

Status PriceClient::RoundtripOnce(const Request& request,
                                  const std::string& wire,
                                  Clock::time_point deadline,
                                  Response* response,
                                  bool* transport_broken) {
  *transport_broken = false;
  const Status sent = channel_->SendAll(
      reinterpret_cast<const uint8_t*>(wire.data()), wire.size(), deadline);
  if (!sent.ok()) {
    *transport_broken = true;
    return sent;
  }
  uint8_t buf[65536];
  while (true) {
    Response decoded;
    const auto consumed = DecodeResponse(
        reinterpret_cast<const uint8_t*>(rx_.data()), rx_.size(), &decoded);
    if (!consumed.ok()) {
      // Framing is lost — the stream is unusable from here on.
      *transport_broken = true;
      return consumed.status();
    }
    if (*consumed > 0) {
      rx_.erase(0, *consumed);
      // A stray frame is a response whose attempt we already abandoned
      // (the connection is closed on attempt timeout, so this only
      // happens for pipelining tests sharing the transport) — skip it.
      if (decoded.request_id != request.request_id) continue;
      if (decoded.code != StatusCode::kOk) {
        return Status(decoded.code, decoded.error_message);
      }
      *response = std::move(decoded);
      return Status::OK();
    }
    const auto received = channel_->RecvSome(buf, sizeof(buf), deadline);
    if (!received.ok()) {
      *transport_broken = true;
      return received.status();
    }
    if (*received == 0) {
      *transport_broken = true;
      return InternalError("server closed the connection mid-response");
    }
    rx_.append(reinterpret_cast<const char*>(buf), *received);
  }
}

Status PriceClient::Roundtrip(Request request, Response* response) {
  request.request_id = next_request_id_++;
  std::string wire;
  EncodeRequest(request, &wire);

  const Clock::time_point overall =
      DeadlineAfterMs(options_.request_timeout_ms);
  const RetryPolicy& policy = options_.retry;
  double backoff_ms = static_cast<double>(policy.base_backoff_ms);
  Status last = InternalError("no attempt made");

  for (int attempt = 0;; ++attempt) {
    if (Clock::now() >= overall) {
      ++telemetry_.deadline_exceeded;
      return DeadlineExceededError("request deadline exceeded after " +
                                   std::to_string(attempt) + " attempts");
    }
    // Per-attempt deadline: never past the overall one.
    Clock::time_point attempt_deadline =
        DeadlineAfterMs(options_.attempt_timeout_ms);
    attempt_deadline = std::min(attempt_deadline, overall);

    bool transport_broken = false;
    if (channel_ == nullptr) {
      last = Reconnect(attempt_deadline);
      transport_broken = !last.ok();
    }
    if (channel_ != nullptr) {
      last = RoundtripOnce(request, wire, attempt_deadline, response,
                           &transport_broken);
      if (last.ok()) {
        budget_ = std::min(policy.retry_budget,
                           budget_ + policy.budget_refund_per_success);
        return Status::OK();
      }
    }

    // Classify the failure.
    bool retryable = false;
    if (last.code() == StatusCode::kUnavailable && !transport_broken) {
      // The server shed the request untouched (RETRY_LATER); the
      // connection itself is healthy.
      ++telemetry_.overload_responses;
      retryable = true;
    } else if (transport_broken) {
      CloseChannel();
      if (last.code() == StatusCode::kDeadlineExceeded) {
        ++telemetry_.attempt_timeouts;
      } else {
        ++telemetry_.transport_errors;
      }
      // Safe only for idempotent verbs: the abandoned attempt may have
      // executed server-side.
      retryable = IsIdempotent(request.verb);
    } else {
      return last;  // application-level answer, not a fault
    }

    if (!retryable) return last;
    if (attempt + 1 >= policy.max_attempts || budget_ < 1.0) {
      ++telemetry_.retries_exhausted;
      return last;
    }
    budget_ -= 1.0;
    ++telemetry_.retries_attempted;

    // Decorrelated jitter: sleep ~ U[base, 3 * previous], capped —
    // retries from a fleet of clients spread out instead of thundering
    // back in lockstep.
    backoff_ms = std::min(
        static_cast<double>(policy.max_backoff_ms),
        jitter_.NextDouble(static_cast<double>(policy.base_backoff_ms),
                           std::max(static_cast<double>(policy.base_backoff_ms),
                                    backoff_ms * 3.0)));
    if (overall != NoDeadline()) {
      const double remaining_ms =
          std::chrono::duration<double, std::milli>(overall - Clock::now())
              .count();
      if (remaining_ms <= 0.0) {
        ++telemetry_.deadline_exceeded;
        return DeadlineExceededError("request deadline exceeded in backoff");
      }
      backoff_ms = std::min(backoff_ms, remaining_ms);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
  }
}

StatusOr<double> PriceClient::PriceAt(const std::string& curve_id, double x) {
  Request request;
  request.verb = Verb::kPriceAt;
  request.curve_id = curve_id;
  request.args = {x};
  Response response;
  MBP_RETURN_IF_ERROR(Roundtrip(std::move(request), &response));
  if (response.values.size() != 1) {
    return InternalError("PRICE_AT response carries " +
                         std::to_string(response.values.size()) + " values");
  }
  return response.values[0];
}

StatusOr<std::vector<double>> PriceClient::PriceBatch(
    const std::string& curve_id, const std::vector<double>& xs) {
  Request request;
  request.verb = Verb::kPriceAt;
  request.curve_id = curve_id;
  request.args = xs;
  Response response;
  MBP_RETURN_IF_ERROR(Roundtrip(std::move(request), &response));
  if (response.values.size() != xs.size()) {
    return InternalError("PRICE_AT batch of " + std::to_string(xs.size()) +
                         " answered with " +
                         std::to_string(response.values.size()) + " values");
  }
  return std::move(response.values);
}

StatusOr<double> PriceClient::BudgetToX(const std::string& curve_id,
                                        double budget) {
  Request request;
  request.verb = Verb::kBudgetToX;
  request.curve_id = curve_id;
  request.args = {budget};
  Response response;
  MBP_RETURN_IF_ERROR(Roundtrip(std::move(request), &response));
  if (response.values.size() != 1) {
    return InternalError("BUDGET_TO_X response carries " +
                         std::to_string(response.values.size()) + " values");
  }
  return response.values[0];
}

StatusOr<SnapshotInfoPayload> PriceClient::SnapshotInfo(
    const std::string& curve_id) {
  Request request;
  request.verb = Verb::kSnapshotInfo;
  request.curve_id = curve_id;
  Response response;
  MBP_RETURN_IF_ERROR(Roundtrip(std::move(request), &response));
  return response.info;
}

StatusOr<StatsPayload> PriceClient::Stats() {
  Request request;
  request.verb = Verb::kStats;
  Response response;
  MBP_RETURN_IF_ERROR(Roundtrip(std::move(request), &response));
  return response.stats;
}

StatusOr<QuotePayload> PriceClient::Quote(const std::string& curve_id,
                                          double delta) {
  Request request;
  request.verb = Verb::kQuote;
  request.curve_id = curve_id;
  request.delta = delta;
  Response response;
  MBP_RETURN_IF_ERROR(Roundtrip(std::move(request), &response));
  return std::move(response.quote);
}

StatusOr<BuyPayload> PriceClient::Buy(const std::string& curve_id,
                                      double delta, uint64_t txn_id,
                                      const std::string& token) {
  Request request;
  request.verb = Verb::kBuy;
  request.curve_id = curve_id;
  request.delta = delta;
  request.txn_id = txn_id != 0 ? txn_id : NextTransactionId();
  request.token = token;
  const uint64_t sent_txn = request.txn_id;
  Response response;
  MBP_RETURN_IF_ERROR(Roundtrip(std::move(request), &response));
  if (response.buy.record.txn_id != sent_txn) {
    return InternalError("BUY response carries a foreign transaction id");
  }
  return std::move(response.buy);
}

StatusOr<BuyPayload> PriceClient::Replay(uint64_t txn_id) {
  Request request;
  request.verb = Verb::kReplay;
  request.txn_id = txn_id;
  Response response;
  MBP_RETURN_IF_ERROR(Roundtrip(std::move(request), &response));
  if (response.buy.record.txn_id != txn_id) {
    return InternalError("REPLAY response carries a foreign transaction id");
  }
  return std::move(response.buy);
}

uint64_t PriceClient::NextTransactionId() {
  if (txn_base_ == 0) {
    // Lazy so the entropy includes the connected channel's lifetime, not
    // just construction order; uniqueness, not unpredictability, is the
    // goal (replays/retries reuse the id deliberately).
    txn_base_ = HashMix64(
        (static_cast<uint64_t>(::getpid()) << 32) ^
        static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count()) ^
        reinterpret_cast<uintptr_t>(this));
  }
  uint64_t id = HashMix64(txn_base_ ^ ++txn_seq_);
  if (id == 0) id = 1;
  return id;
}

}  // namespace mbp::net
