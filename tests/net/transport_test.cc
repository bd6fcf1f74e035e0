// Transport-seam tests (DESIGN.md §5h): the same PriceServer loop over
// epoll and the shared-memory ring must be observationally identical —
// bit-identical prices and identical framing semantics under arbitrary
// byte-boundary splits. Suites carry the ctest label "transport"
// (registered in tests/CMakeLists.txt).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/pricing_function.h"
#include "net/client.h"
#include "net/cluster.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shm_ring.h"
#include "net/transport.h"
#include "serving/catalog_registry.h"
#include "serving/fulfillment.h"
#include "serving/price_query_engine.h"

namespace mbp::net {
namespace {

using core::PiecewiseLinearPricing;
using serving::CatalogRegistry;
using serving::PriceQueryEngine;

PiecewiseLinearPricing MakeCurve() {
  return PiecewiseLinearPricing::Create(
             {{1.0, 10.0}, {2.0, 18.0}, {4.0, 30.0}, {8.0, 40.0}})
      .value();
}

std::string UniqueShmPath() {
  static std::atomic<int> counter{0};
  return "/tmp/mbp_transport_test_" + std::to_string(getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".shm";
}

// ---------------------------------------------------------------------
// Raw byte-level connections, one per transport family, so tests can
// split frames at arbitrary boundaries below the PriceClient layer.

class RawConn {
 public:
  virtual ~RawConn() = default;
  virtual bool Send(const uint8_t* data, size_t n) = 0;
  // Blocks until at least one byte arrives; false on EOF/error.
  virtual bool RecvSome(std::string* rx) = 0;
};

class RawTcpConn final : public RawConn {
 public:
  explicit RawTcpConn(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~RawTcpConn() override {
    if (fd_ >= 0) close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool Send(const uint8_t* data, size_t n) override {
    size_t off = 0;
    while (off < n) {
      const ssize_t w = write(fd_, data + off, n - off);
      if (w <= 0) {
        if (w < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(w);
    }
    return true;
  }

  bool RecvSome(std::string* rx) override {
    char buf[4096];
    while (true) {
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n > 0) {
        rx->append(buf, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

 private:
  int fd_ = -1;
};

// A hand-rolled shm client speaking the slot protocol from shm_ring.h —
// deliberately NOT the production ShmChannel, so the test exercises the
// wire contract itself.
class RawShmConn final : public RawConn {
 public:
  explicit RawShmConn(const std::string& path) {
    using namespace shm_internal;  // NOLINT: protocol constants
    auto segment = ShmSegment::Open(path);
    if (!segment.ok()) return;
    segment_ = std::move(*segment);
    const size_t slots = segment_->num_slots();
    for (size_t i = 0; i < slots; ++i) {
      uint32_t expected = kSlotFree;
      if (segment_->slot(i)->state.compare_exchange_strong(
              expected, kSlotClaimed, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        slot_ = i;
        break;
      }
    }
    if (slot_ == kNoSlot) return;
    SlotHeader* slot = segment_->slot(slot_);
    token_ = (static_cast<uint64_t>(getpid()) << 20) ^ (slot_ + 1);
    slot->token.store(token_, std::memory_order_release);
    slot->state.store(kSlotHello, std::memory_order_release);
    segment_->RingDoorbell(nullptr, nullptr);
    for (int i = 0; i < 20000; ++i) {  // <= ~2s of 100us polls
      if (slot->state.load(std::memory_order_acquire) == kSlotActive) {
        active_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  ~RawShmConn() override {
    using namespace shm_internal;  // NOLINT: protocol constants
    if (segment_ != nullptr && slot_ != kNoSlot) {
      segment_->slot(slot_)->state.store(kSlotClientClosed,
                                         std::memory_order_release);
      segment_->RingDoorbell(nullptr, nullptr);
    }
  }

  bool ok() const { return active_; }

  bool Send(const uint8_t* data, size_t n) override {
    shm_internal::RingView ring = segment_->c2s(slot_);
    size_t off = 0;
    while (off < n) {
      const size_t w = ring.Write(data + off, n - off, nullptr, nullptr);
      if (w > 0) {
        off += w;
        segment_->RingDoorbell(nullptr, nullptr);
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

  bool RecvSome(std::string* rx) override {
    shm_internal::RingView ring = segment_->s2c(slot_);
    uint8_t buf[4096];
    for (int i = 0; i < 40000; ++i) {  // <= ~2s
      const size_t n = ring.Read(buf, sizeof(buf), nullptr, nullptr);
      if (n > 0) {
        rx->append(reinterpret_cast<const char*>(buf), n);
        segment_->RingDoorbell(nullptr, nullptr);
        return true;
      }
      if (segment_->slot(slot_)->state.load(std::memory_order_acquire) !=
          shm_internal::kSlotActive) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return false;
  }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  std::unique_ptr<ShmSegment> segment_;
  size_t slot_ = kNoSlot;
  uint64_t token_ = 0;
  bool active_ = false;
};

// ---------------------------------------------------------------------
// Parameterized loopback fixture: one server per transport regime.

class TransportLoopbackTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const std::string regime = GetParam();
    auto published = registry_.Publish("pricing", MakeCurve());
    ASSERT_TRUE(published.ok());
    slot_ = *published;
    engine_ = std::make_unique<PriceQueryEngine>(&registry_);
    fulfillment_ =
        std::make_unique<serving::FulfillmentEngine>(&registry_);
    ServerOptions options;
    options.num_shards = 2;
    options.default_curve_id = "pricing";
    options.fulfillment = fulfillment_.get();
    if (regime == "shm") {
      shm_path_ = UniqueShmPath();
      options.shm_path = shm_path_;
    }
    auto server = PriceServer::Start(engine_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  std::unique_ptr<PriceClient> Connect() {
    auto client =
        shm_path_.empty()
            ? PriceClient::Connect("127.0.0.1", server_->port())
            : PriceClient::Connect("shm://" + shm_path_, 0);
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::unique_ptr<RawConn> RawConnect() {
    if (shm_path_.empty()) {
      auto conn = std::make_unique<RawTcpConn>(server_->port());
      EXPECT_TRUE(conn->ok());
      return conn;
    }
    auto conn = std::make_unique<RawShmConn>(shm_path_);
    EXPECT_TRUE(conn->ok());
    return conn;
  }

  CatalogRegistry registry_;
  const CatalogRegistry::CurveSlot* slot_ = nullptr;
  std::unique_ptr<PriceQueryEngine> engine_;
  std::unique_ptr<serving::FulfillmentEngine> fulfillment_;
  std::unique_ptr<PriceServer> server_;
  std::string shm_path_;
};

TEST_P(TransportLoopbackTest, PriceAtBitIdenticalToEngine) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 64; ++i) {
    const double x = 10.0 * static_cast<double>(i + 1) / 64.0;
    const auto remote = client->PriceAt("pricing", x);
    ASSERT_TRUE(remote.ok()) << remote.status();
    const auto local = engine_->Price(slot_, x);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(*remote, *local) << "x = " << x;  // exact, not approximate
  }
}

TEST_P(TransportLoopbackTest, PriceBatchBitIdenticalToEngine) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  std::vector<double> xs;
  for (size_t i = 0; i < 256; ++i) {
    xs.push_back(10.0 * static_cast<double>(i + 1) / 256.0);
  }
  const auto remote = client->PriceBatch("pricing", xs);
  ASSERT_TRUE(remote.ok()) << remote.status();
  std::vector<double> local(xs.size());
  ASSERT_TRUE(engine_
                  ->PriceBatch(slot_, xs.data(), local.data(), xs.size(),
                               ParallelConfig{})
                  .ok());
  EXPECT_EQ(*remote, local);
}

// The cross-pass carry invariant: a frame split at EVERY byte boundary —
// the two halves delivered with a pause between them, so the server sees
// them in separate passes — decodes to the identical answer.
TEST_P(TransportLoopbackTest, PartialFrameCarryAtEveryByteBoundary) {
  Request request;
  request.verb = Verb::kPriceAt;
  request.curve_id = "pricing";
  request.args = {3.5};
  request.request_id = 777;
  std::string wire;
  EncodeRequest(request, &wire);
  const auto expected = engine_->Price(slot_, 3.5);
  ASSERT_TRUE(expected.ok());

  auto conn = RawConnect();
  ASSERT_NE(conn, nullptr);
  const auto* bytes = reinterpret_cast<const uint8_t*>(wire.data());
  std::string rx;
  for (size_t split = 1; split < wire.size(); ++split) {
    ASSERT_TRUE(conn->Send(bytes, split)) << "split " << split;
    // Let the prefix land in its own pass before sending the rest.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(conn->Send(bytes + split, wire.size() - split))
        << "split " << split;
    Response response;
    while (true) {
      const auto consumed = DecodeResponse(
          reinterpret_cast<const uint8_t*>(rx.data()), rx.size(), &response);
      ASSERT_TRUE(consumed.ok()) << consumed.status();
      if (*consumed > 0) {
        rx.erase(0, *consumed);
        break;
      }
      ASSERT_TRUE(conn->RecvSome(&rx)) << "split " << split;
    }
    ASSERT_EQ(response.request_id, request.request_id);
    ASSERT_EQ(response.code, StatusCode::kOk);
    ASSERT_EQ(response.values.size(), 1u);
    EXPECT_EQ(response.values[0], *expected) << "split " << split;
  }
}

TEST_P(TransportLoopbackTest, StatsExposePerTransportCounters) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  const std::string regime = GetParam();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->PriceAt("pricing", 2.5).ok());
    if (regime == "shm") {
      // Give the serving shard time to park on the doorbell futex so the
      // next request's wake is observable in the counter.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->transport_syscalls, 0u);
  if (regime == "epoll") {
    EXPECT_EQ(stats->shm_doorbell_wakes, 0u);
  }
  if (regime == "shm") {
    EXPECT_GT(stats->shm_doorbell_wakes, 0u);
  }
}

// BUY/QUOTE/REPLAY over every transport (DESIGN.md §5i): the noised model
// delivered across the wire is bit-identical to an in-process
// FulfillmentEngine sharing the epoch seed (which fulfillment_test.cc in
// turn pins bit-identically to the core::Broker transaction), the quote
// token locks the price, a retried txn id is idempotent, and REPLAY
// re-delivers the recorded bytes exactly.
TEST_P(TransportLoopbackTest, BuyDeliversBitIdenticalSaleOnEveryTransport) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  const double delta = 0.5;
  const uint64_t txn = 0xABCDEF01;

  auto quote = client->Quote("pricing", delta);
  ASSERT_TRUE(quote.ok()) << quote.status();
  auto remote = client->Buy("pricing", delta, txn, quote->token);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(remote->record.txn_id, txn);
  EXPECT_EQ(std::bit_cast<uint64_t>(remote->record.price),
            std::bit_cast<uint64_t>(quote->price));

  // An independent engine with the same (default) options is the local
  // oracle: same curve, same δ, same txn id → identical sale bytes.
  serving::FulfillmentEngine local(&registry_);
  auto oracle = local.Buy("pricing", delta, txn);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(remote->record.curve_ref, oracle->record.curve_ref);
  EXPECT_EQ(remote->record.seed_commitment, oracle->record.seed_commitment);
  ASSERT_EQ(remote->weights.size(), oracle->weights.size());
  EXPECT_EQ(0, std::memcmp(remote->weights.data(), oracle->weights.data(),
                           oracle->weights.size() * sizeof(double)))
      << "wire-delivered weights must be bit-identical to the local sale";

  // Idempotent retry: same txn id, same bytes, charged once.
  auto retry = client->Buy("pricing", delta, txn);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry->weights, remote->weights);

  // REPLAY re-delivers the recorded sale.
  auto replay = client->Replay(txn);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->record.seed_commitment, remote->record.seed_commitment);
  EXPECT_EQ(replay->weights, remote->weights);

  const auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->buys_ok, 1u) << "retry and replay must not re-charge";
  EXPECT_EQ(std::bit_cast<uint64_t>(stats->revenue),
            std::bit_cast<uint64_t>(remote->record.price));
  EXPECT_EQ(stats->transactions_recorded, 1u);
  EXPECT_GE(stats->requests_by_verb[static_cast<uint8_t>(Verb::kBuy)], 2u);
  EXPECT_GE(stats->requests_by_verb[static_cast<uint8_t>(Verb::kReplay)],
            1u);
  EXPECT_GE(stats->requests_by_verb[static_cast<uint8_t>(Verb::kQuote)], 1u);
}

// Large-frame framing parity: response frames from ~1 KB to the 1 MB
// frame cap, crossing every socket/ring buffer boundary, with short-IO
// fault points armed so the server's sends and the client's receives are
// forcibly fragmented. Every frame must reassemble to the bit-exact
// engine answer on every transport.
TEST_P(TransportLoopbackTest, LargeFramesReassembleAcrossBufferBoundaries) {
  if (fault::kBuildEnabled) {
    // Fragment both directions aggressively; schedules are per-call
    // probabilistic, so some sends still go through whole — the sizes
    // below cross buffer boundaries regardless.
    fault::FaultInjector& inj = fault::FaultInjector::Global();
    inj.Reset();
    inj.Seed(0xB16FA43Eull);
    fault::PointSchedule shortio;
    shortio.probability = 0.5;
    inj.Arm("net.send.short", shortio);
    inj.Arm("net.recv.short", shortio);
    inj.Arm("net.shm.write.short", shortio);
    inj.Arm("net.shm.read.short", shortio);
  }
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  // Batch counts whose response frames span ~1 KB up to the exact frame
  // cap: 1048576 = 20 header + 4 count + 8 * kMaxVectorElements + slack.
  const size_t kCounts[] = {121, 1000, 8000, 32768, kMaxVectorElements};
  for (const size_t count : kCounts) {
    std::vector<double> xs(count);
    for (size_t i = 0; i < count; ++i) {
      xs[i] = 10.0 * static_cast<double>(i % 4093 + 1) / 4093.0;
    }
    const auto remote = client->PriceBatch("pricing", xs);
    ASSERT_TRUE(remote.ok()) << "count " << count << ": " << remote.status();
    ASSERT_EQ(remote->size(), count);
    std::vector<double> local(count);
    ASSERT_TRUE(engine_
                    ->PriceBatch(slot_, xs.data(), local.data(), count,
                                 ParallelConfig{})
                    .ok());
    EXPECT_EQ(*remote, local) << "count " << count;
  }
  if (fault::kBuildEnabled) fault::FaultInjector::Global().Reset();
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportLoopbackTest,
                         ::testing::Values("epoll", "shm"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(TransportKindTest, NamesRoundTrip) {
  TransportKind kind;
  EXPECT_TRUE(ParseTransportKind("epoll", &kind));
  EXPECT_EQ(kind, TransportKind::kEpoll);
  EXPECT_TRUE(ParseTransportKind("shm", &kind));
  EXPECT_EQ(kind, TransportKind::kShm);
  // The removed second TCP backend's names are refused, not aliased.
  EXPECT_FALSE(ParseTransportKind("uring", &kind));
  EXPECT_FALSE(ParseTransportKind("io_uring", &kind));
  EXPECT_FALSE(ParseTransportKind("carrier-pigeon", &kind));
  EXPECT_STREQ(TransportKindName(TransportKind::kEpoll), "epoll");
  EXPECT_STREQ(TransportKindName(TransportKind::kShm), "shm");
}

TEST(ClusterEndpointTest, ParsesShmEndpoints) {
  const auto endpoints = ParseEndpoints("shm:///tmp/a.shm,127.0.0.1:7001");
  ASSERT_TRUE(endpoints.ok()) << endpoints.status();
  ASSERT_EQ(endpoints->size(), 2u);
  EXPECT_EQ((*endpoints)[0].host, "shm:///tmp/a.shm");
  EXPECT_EQ((*endpoints)[0].port, 0);
  EXPECT_EQ((*endpoints)[1].host, "127.0.0.1");
  EXPECT_EQ((*endpoints)[1].port, 7001);
  EXPECT_FALSE(ParseEndpoints("shm://").ok());
  EXPECT_FALSE(ParseEndpoints("shm:///tmp/a.shm,shm:///tmp/a.shm").ok());
}

// ---------------------------------------------------------------------
// Shared-memory ring unit tests: the SPSC byte ring and the segment
// lifecycle, independent of any server.

TEST(ShmRingTest, ByteStreamSurvivesWrapAround) {
  ShmSegmentOptions options;
  options.path = UniqueShmPath();
  options.slots = 1;
  options.ring_bytes = 64 * 1024;  // the floor; forces wraps quickly
  auto segment = ShmSegment::Create(options);
  ASSERT_TRUE(segment.ok()) << segment.status();
  shm_internal::RingView ring = (*segment)->c2s(0);

  // Stream several capacities' worth of a deterministic pattern through
  // the ring in mismatched chunk sizes; the consumer must see the exact
  // byte sequence across every wrap.
  const size_t total = 5 * 64 * 1024 + 12345;
  std::vector<uint8_t> out(total), in;
  in.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    out[i] = static_cast<uint8_t>((i * 131) ^ (i >> 8));
  }
  size_t sent = 0;
  uint8_t buf[4096];
  while (in.size() < total) {
    if (sent < total) {
      const size_t chunk = std::min<size_t>(total - sent, 777);
      sent += ring.Write(out.data() + sent, chunk, nullptr, nullptr);
    }
    const size_t got = ring.Read(buf, 933, nullptr, nullptr);
    in.insert(in.end(), buf, buf + got);
  }
  EXPECT_EQ(in, out);
}

TEST(ShmRingTest, WriteBackpressuresWhenFull) {
  ShmSegmentOptions options;
  options.path = UniqueShmPath();
  options.slots = 1;
  options.ring_bytes = 64 * 1024;
  auto segment = ShmSegment::Create(options);
  ASSERT_TRUE(segment.ok());
  shm_internal::RingView ring = (*segment)->s2c(0);
  std::vector<uint8_t> chunk(64 * 1024, 0xAB);
  EXPECT_EQ(ring.Write(chunk.data(), chunk.size(), nullptr, nullptr),
            chunk.size());
  EXPECT_EQ(ring.Write(chunk.data(), 1, nullptr, nullptr), 0u);  // full
  uint8_t sink[1024];
  EXPECT_EQ(ring.Read(sink, sizeof(sink), nullptr, nullptr), sizeof(sink));
  EXPECT_EQ(ring.Write(chunk.data(), chunk.size(), nullptr, nullptr),
            sizeof(sink));  // exactly the freed space
}

TEST(ShmSegmentTest, OpenValidatesAndShutdownCloses) {
  EXPECT_FALSE(ShmSegment::Open("/tmp/mbp_no_such_segment.shm").ok());
  ShmSegmentOptions options;
  options.path = UniqueShmPath();
  auto segment = ShmSegment::Create(options);
  ASSERT_TRUE(segment.ok());
  auto reader = ShmSegment::Open(options.path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE((*reader)->is_open());
  (*segment)->BeginShutdown();
  EXPECT_FALSE((*reader)->is_open());  // same file, same header word
  // A closed segment refuses new clients outright.
  EXPECT_FALSE(ShmSegment::Open(options.path).ok());
}

}  // namespace
}  // namespace mbp::net
