// Chaos suite for the resilient serving path (DESIGN.md §5e): thousands
// of real loopback requests driven through seeded fault schedules on the
// process-global injector, which both the server's and the client's
// syscall wrappers consult — so every run stresses BOTH ends at once.
//
// Invariants asserted:
//   - no crash and no hung connection (the suite finishing IS the check:
//     every client wait is deadline-bounded);
//   - every SUCCESSFUL response is bit-identical to the engine oracle;
//   - failures are only the sanctioned degradation codes (kUnavailable,
//     kDeadlineExceeded) or transport exhaustion (kInternal) — never a
//     wrong answer;
//   - injected faults never corrupt framing (server protocol_errors
//     stays 0: faults fire BEFORE the real syscall or only shorten it);
//   - Shutdown() drains bounded even against a stalled peer.
//
// Replayability: the injector seed comes from MBP_CHAOS_SEED when set
// (scripts/chaos.sh exports a randomized one) and is printed on every
// run, so any failure reproduces with MBP_CHAOS_SEED=<seed>. Suite name
// matches scripts/tsan.sh's Net filter.
//
// Transport regimes: MBP_CHAOS_TRANSPORT={epoll,shm} (default epoll)
// reruns the whole suite with the PriceClient connecting over TCP or the
// shm:// ring accordingly — scripts/chaos.sh passes 3 and 3b drive
// this. Tests that open raw TCP sockets below PriceClient keep doing so
// under shm; the TCP listener stays up next to the segment, so they
// chaos the epoll path of the same server.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/pricing_function.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serving/catalog_registry.h"
#include "serving/fulfillment.h"
#include "serving/price_query_engine.h"

namespace mbp::net {
namespace {

using core::PiecewiseLinearPricing;
using serving::CatalogRegistry;
using serving::PriceQueryEngine;

// Same arbitrage-free family as net_integration_test.cc.
PiecewiseLinearPricing MakeVariant(size_t k) {
  const double s = static_cast<double>(k + 1);
  return PiecewiseLinearPricing::Create({{1.0, 10.0 * s},
                                         {2.0, 18.0 * s},
                                         {4.0, 30.0 * s},
                                         {8.0, 40.0 * s}})
      .value();
}

uint64_t ChaosSeed() {
  if (const char* env = std::getenv("MBP_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC0FFEEull;  // fixed default: CI runs are replayable as-is
}

std::string ChaosTransport() {
  const char* env = std::getenv("MBP_CHAOS_TRANSPORT");
  return env != nullptr && env[0] != '\0' ? env : "epoll";
}

class NetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kBuildEnabled) {
      GTEST_SKIP() << "built with MBP_FAULT_INJECTION=OFF";
    }
    transport_ = ChaosTransport();
    ASSERT_TRUE(transport_ == "epoll" || transport_ == "shm")
        << "MBP_CHAOS_TRANSPORT=" << transport_ << ": expected epoll or shm";
    fault::FaultInjector::Global().Reset();
    seed_ = ChaosSeed();
    fault::FaultInjector::Global().Seed(seed_);
    std::printf("[chaos] replay with MBP_CHAOS_SEED=%llu (transport=%s)\n",
                static_cast<unsigned long long>(seed_), transport_.c_str());
    auto published = registry_.Publish("pricing", MakeVariant(0));
    ASSERT_TRUE(published.ok());
    slot_ = *published;
    engine_ = std::make_unique<PriceQueryEngine>(&registry_);
    fulfillment_ = std::make_unique<serving::FulfillmentEngine>(&registry_);
  }

  void TearDown() override {
    fault::FaultInjector::Global().Reset();
    if (!shm_path_.empty()) (void)unlink(shm_path_.c_str());
  }

  void StartServer(ServerOptions options) {
    options.port = 0;
    options.default_curve_id = "pricing";
    options.fulfillment = fulfillment_.get();
    if (transport_ == "shm") {
      shm_path_ = "/tmp/mbp_chaos_" + std::to_string(getpid()) + ".shm";
      options.shm_path = shm_path_;
      options.shm_slots = 16;
    }
    auto server = PriceServer::Start(engine_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  StatusOr<std::unique_ptr<PriceClient>> Connect(ClientOptions options) {
    if (transport_ == "shm") {
      return PriceClient::Connect("shm://" + shm_path_, 0, options);
    }
    return PriceClient::Connect("127.0.0.1", server_->port(), options);
  }

  uint64_t seed_ = 0;
  std::string transport_;
  std::string shm_path_;
  CatalogRegistry registry_;
  const CatalogRegistry::CurveSlot* slot_ = nullptr;
  std::unique_ptr<PriceQueryEngine> engine_;
  std::unique_ptr<serving::FulfillmentEngine> fulfillment_;
  std::unique_ptr<PriceServer> server_;
};

// The headline run: 10k requests from 4 concurrent clients while EINTR,
// EAGAIN, short reads/writes, delayed completions, connection resets, and
// accept-side faults all fire on a seeded schedule.
TEST_F(NetChaosTest, TenThousandRequestsUnderSeededFaultSchedule) {
  fault::FaultInjector& inj = fault::FaultInjector::Global();
  fault::PointSchedule transient;  // absorbed inside one attempt
  transient.probability = 0.05;
  inj.Arm("net.recv.eintr", transient);
  inj.Arm("net.recv.eagain", transient);
  inj.Arm("net.send.eintr", transient);
  inj.Arm("net.send.eagain", transient);
  inj.Arm("net.accept.eintr", transient);
  inj.Arm("net.epoll.eintr", transient);
  fault::PointSchedule shortio;  // resumption paths, frame reassembly
  shortio.probability = 0.2;
  inj.Arm("net.recv.short", shortio);
  inj.Arm("net.send.short", shortio);
  fault::PointSchedule delay;  // scheduling stalls
  delay.probability = 0.001;
  delay.delay_micros = 500;
  inj.Arm("net.recv.delay", delay);
  inj.Arm("net.send.delay", delay);
  fault::PointSchedule reset;  // hard connection loss; retries reconnect
  reset.probability = 0.0005;
  inj.Arm("net.recv.reset", reset);
  inj.Arm("net.send.reset", reset);
  fault::PointSchedule refuse;  // accept-side allocation failure
  refuse.probability = 0.02;
  inj.Arm("net.server.conn_alloc", refuse);
  // Transport-specific points: armed unconditionally (a point the
  // selected backend never reaches simply never fires).
  inj.Arm("net.shm.read.short", shortio);
  inj.Arm("net.shm.write.short", shortio);
  inj.Arm("net.shm.futex.eintr", transient);
  fault::PointSchedule wake_drop;  // lost doorbell: bounded-wait recovery
  wake_drop.probability = 0.001;   // each drop can cost a full 100ms park
  inj.Arm("net.shm.wake.drop", wake_drop);

  StartServer(ServerOptions{});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2500;
  std::atomic<uint64_t> ok{0}, unavailable{0}, deadline{0}, transport{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copts;
      copts.retry.max_attempts = 6;
      copts.retry.retry_budget = 1000.0;  // chaos mode: keep retrying
      copts.retry.jitter_seed = seed_ + static_cast<uint64_t>(t);
      auto client = Connect(copts);
      ASSERT_TRUE(client.ok()) << client.status();
      for (int i = 0; i < kPerThread; ++i) {
        const double x = 12.0 * static_cast<double>(i % 997) / 997.0;
        const auto remote = (*client)->PriceAt("pricing", x);
        if (remote.ok()) {
          const auto local = engine_->Price(slot_, x);
          ASSERT_TRUE(local.ok());
          if (*remote != *local) ++mismatches;  // bit-identity, not approx
          ++ok;
        } else if (remote.status().code() == StatusCode::kUnavailable) {
          ++unavailable;
        } else if (remote.status().code() == StatusCode::kDeadlineExceeded) {
          ++deadline;
        } else {
          // Transport exhaustion after max_attempts is the only other
          // sanctioned outcome under injected resets.
          EXPECT_EQ(remote.status().code(), StatusCode::kInternal)
              << remote.status();
          ++transport;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(ok + unavailable + deadline + transport,
            static_cast<uint64_t>(kThreads) * kPerThread);
  // The schedule is noisy, not fatal: the vast majority must succeed.
  EXPECT_GT(ok.load(), static_cast<uint64_t>(kThreads) * kPerThread * 8 / 10);
  EXPECT_GT(inj.TotalFires(), 0u);

  // Faults fire BEFORE the real syscall (or only clamp its length), so
  // framing survives every schedule: zero protocol errors.
  const StatsPayload stats = server_->stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  // The shard loops keep evaluating armed points after the clients stop,
  // so compare with a floor, not equality.
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_FALSE(stats.faults.empty());

  // The same payload must survive the wire: fetch STATS remotely (retries
  // absorb any still-armed faults) and check the resilience block flows.
  ClientOptions sopts;
  sopts.retry.max_attempts = 8;
  auto stats_client = Connect(sopts);
  ASSERT_TRUE(stats_client.ok()) << stats_client.status();
  const auto remote_stats = (*stats_client)->Stats();
  ASSERT_TRUE(remote_stats.ok()) << remote_stats.status();
  EXPECT_GT(remote_stats->faults_injected, 0u);
  EXPECT_FALSE(remote_stats->faults.empty());

  std::printf(
      "[chaos] ok=%llu unavailable=%llu deadline=%llu transport=%llu "
      "fires=%llu\n",
      static_cast<unsigned long long>(ok.load()),
      static_cast<unsigned long long>(unavailable.load()),
      static_cast<unsigned long long>(deadline.load()),
      static_cast<unsigned long long>(transport.load()),
      static_cast<unsigned long long>(inj.TotalFires()));
}

// Rung 2 of the ladder: past the soft connection high-water mark, query
// verbs get fast OVERLOADED answers; dropping back under the mark
// restores service on the SAME connections.
TEST_F(NetChaosTest, ShedLadderAnswersOverloadedAndRecovers) {
  ServerOptions sopts;
  sopts.num_shards = 1;  // deterministic: every connection on one shard
  sopts.shed_connections = 2;
  StartServer(sopts);

  ClientOptions no_retry;
  no_retry.retry.max_attempts = 1;  // surface the shed verbatim
  std::vector<std::unique_ptr<PriceClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto client = Connect(no_retry);
    ASSERT_TRUE(client.ok()) << client.status();
    clients.push_back(std::move(*client));
  }
  // 4 active > 2 allowed: every query verb is shed...
  for (auto& client : clients) {
    const auto price = client->PriceAt("pricing", 3.0);
    ASSERT_FALSE(price.ok());
    EXPECT_EQ(price.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(client->telemetry().overload_responses, 1u);
  }
  // ...but STATS still serves, and reports the sheds.
  const auto stats = clients[0]->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->requests_shed, 4u);

  // Retreat below the mark; the server notices the closes on its next
  // pass and the surviving connections get real answers again.
  clients.pop_back();
  clients.pop_back();
  const auto local = engine_->Price(slot_, 3.0);
  ASSERT_TRUE(local.ok());
  StatusOr<double> recovered = UnavailableError("not yet");
  for (int i = 0; i < 200 && !recovered.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    recovered = clients[0]->PriceAt("pricing", 3.0);
  }
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(*recovered, *local);
}

// A retrying client treats OVERLOADED as a backoff signal: under a
// persistent shed it retries max_attempts times and then reports
// kUnavailable with the exhaustion recorded in telemetry.
TEST_F(NetChaosTest, RetryingClientBacksOffOnOverloadUntilExhausted) {
  ServerOptions sopts;
  sopts.num_shards = 1;
  sopts.shed_connections = 1;
  StartServer(sopts);

  ClientOptions copts;
  copts.retry.max_attempts = 4;
  copts.retry.base_backoff_ms = 1;
  copts.retry.max_backoff_ms = 5;
  auto a = Connect(copts);
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = Connect(copts);
  ASSERT_TRUE(b.ok()) << b.status();
  // Two active > one allowed: the shed never lifts, so the retry ladder
  // runs its full course.
  const auto price = (*a)->PriceAt("pricing", 2.0);
  ASSERT_FALSE(price.ok());
  EXPECT_EQ(price.status().code(), StatusCode::kUnavailable);
  const ClientTelemetry& t = (*a)->telemetry();
  EXPECT_EQ(t.overload_responses, 4u);  // one per attempt
  EXPECT_EQ(t.retries_attempted, 3u);   // attempts 2..4
  EXPECT_EQ(t.retries_exhausted, 1u);
  EXPECT_LT((*a)->retry_budget(), copts.retry.retry_budget);
}

// Deadline-aware dropping: an injected stall in the batch path ages the
// queued PRICE_AT past request_deadline_ms, and the server answers
// kDeadlineExceeded instead of a stale price.
TEST_F(NetChaosTest, DeadlineDropsUnderInjectedBatchStall) {
  fault::FaultInjector& inj = fault::FaultInjector::Global();
  fault::PointSchedule stall;
  stall.delay_micros = 30000;  // 30ms against a 10ms deadline
  stall.max_fires = 1;
  inj.Arm("net.server.batch.delay", stall);

  ServerOptions sopts;
  sopts.num_shards = 1;
  sopts.request_deadline_ms = 10;
  StartServer(sopts);

  ClientOptions no_retry;
  no_retry.retry.max_attempts = 1;
  auto client = Connect(no_retry);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto dropped = (*client)->PriceAt("pricing", 1.5);
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server_->stats().deadline_drops, 1u);

  // The stall's fire budget is spent: the very next query is served, and
  // bit-identically.
  const auto price = (*client)->PriceAt("pricing", 1.5);
  ASSERT_TRUE(price.ok()) << price.status();
  const auto local = engine_->Price(slot_, 1.5);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*price, *local);
}

// Bounded drain under injected stalls: every server-side send hits an
// injected EAGAIN, so pending responses can never flush — not even into
// kernel buffers. Shutdown() must still return within drain_timeout_ms
// and hard-kill (and count) the undrainable connection.
TEST_F(NetChaosTest, ShutdownDrainIsBoundedUnderInjectedSendStall) {
  fault::FaultInjector& inj = fault::FaultInjector::Global();
  fault::PointSchedule stall;  // probability 1, unbounded: a total stall
  inj.Arm("net.send.eagain", stall);

  ServerOptions sopts;
  sopts.num_shards = 1;
  sopts.drain_timeout_ms = 300;
  StartServer(sopts);

  // Raw socket below PriceClient (its sends are real syscalls, so only
  // the SERVER is stalled): pipeline requests, never read a response.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  std::string wire;
  for (uint64_t i = 0; i < 8; ++i) {
    Request request;
    request.verb = Verb::kPriceAt;
    request.request_id = i + 1;
    request.args.assign(1000, 2.5);
    EncodeRequest(request, &wire);
  }
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = send(fd, wire.data() + sent, wire.size() - sent, 0);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<size_t>(n);
  }
  // Let the server read and price; the responses wedge behind the stall.
  const auto wedged = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(2000);
  while (server_->stats().requests_ok < 8 &&
         std::chrono::steady_clock::now() < wedged) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server_->stats().requests_ok, 8u);
  EXPECT_GT(server_->stats().write_queue_peak_bytes, 0u);

  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  // Bounded: the drain deadline plus generous scheduling slack — never
  // "until the peer reads".
  EXPECT_LT(elapsed_ms, 3000.0);
  EXPECT_GE(server_->stats().connections_killed, 1u);
  close(fd);
}

// Publish-path fault points: an injected compile/publish failure rolls
// back cleanly — the old snapshot keeps serving remote queries, and the
// retried publish lands.
TEST_F(NetChaosTest, RepublishSurvivesInjectedPublishFailures) {
  fault::FaultInjector& inj = fault::FaultInjector::Global();
  fault::PointSchedule once;
  once.max_fires = 1;
  inj.Arm("serving.compile.alloc", once);
  inj.Arm("serving.publish.fail", once);

  StartServer(ServerOptions{});
  ClientOptions copts;
  auto client = Connect(copts);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto before = engine_->Price(slot_, 3.0);
  ASSERT_TRUE(before.ok());

  // First attempt dies on the injected allocation failure, the second on
  // the injected publish failure; the curve serves the OLD prices
  // throughout.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto failed = registry_.Publish("pricing", MakeVariant(4));
    ASSERT_FALSE(failed.ok()) << "attempt " << attempt;
    const auto price = (*client)->PriceAt("pricing", 3.0);
    ASSERT_TRUE(price.ok()) << price.status();
    EXPECT_EQ(*price, *before);
  }
  EXPECT_EQ(inj.Fires("serving.compile.alloc"), 1u);
  EXPECT_EQ(inj.Fires("serving.publish.fail"), 1u);

  // Fault budgets spent: the retry lands and remote queries flip to the
  // new curve's exact prices.
  const auto republished = registry_.Publish("pricing", MakeVariant(4));
  ASSERT_TRUE(republished.ok()) << republished.status();
  const auto after_local = engine_->Price(*republished, 3.0);
  ASSERT_TRUE(after_local.ok());
  ASSERT_NE(*after_local, *before);
  const auto after_remote = (*client)->PriceAt("pricing", 3.0);
  ASSERT_TRUE(after_remote.ok()) << after_remote.status();
  EXPECT_EQ(*after_remote, *after_local);
}

// Satellite 1: the bounded non-blocking connect. A listener whose accept
// queue is wedged drops SYNs, and the old blocking client would hang for
// minutes of kernel retransmits; the resilient one returns
// kDeadlineExceeded within connect_timeout_ms.
TEST_F(NetChaosTest, ConnectTimesOutAgainstWedgedBacklog) {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(
      bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  ASSERT_EQ(listen(listener, 1), 0);  // tiny backlog, never accepted
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  // Fill the accept queue so further SYNs are dropped.
  std::vector<int> fillers;
  for (int i = 0; i < 4; ++i) {
    const int f = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(f, 0);
    (void)connect(f, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(f);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ClientOptions copts;
  copts.connect_timeout_ms = 200;
  const auto start = std::chrono::steady_clock::now();
  const auto client = PriceClient::Connect("127.0.0.1", port, copts);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kDeadlineExceeded)
      << client.status();
  EXPECT_LT(elapsed_ms, 2000.0);  // bounded, not a kernel-retransmit hang

  for (const int f : fillers) close(f);
  close(listener);
}

// Satellite for DESIGN.md §5i: a fault-stormed PURCHASE mix. Four client
// threads interleave PRICE_AT with BUYs (client-chosen txn ids) while the
// full short-IO/reset/EINTR schedule fires on both ends. Invariants:
//   - every successful PRICE_AT is bit-identical to the engine oracle;
//   - every COMPLETED sale replays bit-identically afterwards (REPLAY
//     over a clean connection reproduces the delivered weight bytes);
//   - no sale is double-charged: the server's revenue equals the sum of
//     distinct recorded sale prices even though the retry ladder may
//     resend any BUY several times, and explicitly re-buying every
//     completed txn changes nothing.
TEST_F(NetChaosTest, PurchaseMixUnderFaultStormReplaysAndChargesOnce) {
  fault::FaultInjector& inj = fault::FaultInjector::Global();
  fault::PointSchedule transient;
  transient.probability = 0.05;
  inj.Arm("net.recv.eintr", transient);
  inj.Arm("net.recv.eagain", transient);
  inj.Arm("net.send.eintr", transient);
  inj.Arm("net.send.eagain", transient);
  inj.Arm("net.epoll.eintr", transient);
  fault::PointSchedule shortio;
  shortio.probability = 0.2;
  inj.Arm("net.recv.short", shortio);
  inj.Arm("net.send.short", shortio);
  inj.Arm("net.shm.read.short", shortio);
  inj.Arm("net.shm.write.short", shortio);
  inj.Arm("net.shm.futex.eintr", transient);
  fault::PointSchedule reset;  // the dangerous one for idempotency:
  reset.probability = 0.002;   // a reset AFTER the sale commits forces a
  inj.Arm("net.recv.reset", reset);  // reconnect + re-BUY of the same txn
  inj.Arm("net.send.reset", reset);

  StartServer(ServerOptions{});

  struct CompletedSale {
    uint64_t txn_id;
    double price;
    std::vector<double> weights;
  };
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::vector<CompletedSale>> sales(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copts;
      copts.retry.max_attempts = 6;
      copts.retry.retry_budget = 1000.0;
      copts.retry.jitter_seed = seed_ + 100 + static_cast<uint64_t>(t);
      auto client = Connect(copts);
      ASSERT_TRUE(client.ok()) << client.status();
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 4 != 0) {  // 75% PRICE_AT, 25% BUY
          const double x = 12.0 * static_cast<double>(i % 997) / 997.0;
          const auto remote = (*client)->PriceAt("pricing", x);
          if (remote.ok()) {
            const auto local = engine_->Price(slot_, x);
            ASSERT_TRUE(local.ok());
            if (*remote != *local) ++mismatches;
          }
          continue;
        }
        // Deterministic thread-unique txn ids make the run replayable
        // under MBP_CHAOS_SEED.
        const uint64_t txn =
            1 + static_cast<uint64_t>(t) * 100000 + static_cast<uint64_t>(i);
        const double delta =
            0.125 + 0.875 * static_cast<double>(i % 31) / 31.0;
        const auto sale = (*client)->Buy("pricing", delta, txn);
        if (sale.ok()) {
          sales[t].push_back(
              CompletedSale{txn, sale->record.price, sale->weights});
        }
        // A failed BUY may or may not have committed server-side — that
        // is exactly what the revenue reconciliation below settles.
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // Quiesce the injector before reconciliation: the checks below must not
  // themselves fail on a fault.
  inj.Reset();
  ClientOptions clean;
  clean.retry.max_attempts = 8;
  auto verifier = Connect(clean);
  ASSERT_TRUE(verifier.ok()) << verifier.status();

  size_t completed = 0;
  for (const auto& per_thread : sales) completed += per_thread.size();
  ASSERT_GT(completed, 0u) << "the storm must complete some sales";

  // (1) Bit-exact replay of every completed sale over a clean connection.
  for (const auto& per_thread : sales) {
    for (const CompletedSale& sale : per_thread) {
      const auto replay = (*verifier)->Replay(sale.txn_id);
      ASSERT_TRUE(replay.ok()) << replay.status();
      ASSERT_EQ(replay->weights.size(), sale.weights.size());
      EXPECT_EQ(0, std::memcmp(replay->weights.data(), sale.weights.data(),
                               sale.weights.size() * sizeof(double)))
          << "txn " << sale.txn_id << " replayed different bytes";
    }
  }

  // (2) No double charge. Revenue reconciles against the ENGINE ledger
  // (buys_ok counts first deliveries; each recorded txn charged exactly
  // once), and the client-side sales are a subset of it: a retry that
  // resent a committed BUY re-delivered the record instead of re-selling.
  const auto stats = (*verifier)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->buys_ok, completed);
  EXPECT_EQ(stats->buys_ok, stats->transactions_recorded);
  const double revenue_after_storm = stats->revenue;

  // Explicitly re-buy every completed txn: all must dedupe, so revenue
  // and buys_ok cannot move.
  for (const auto& per_thread : sales) {
    for (const CompletedSale& sale : per_thread) {
      const auto again = (*verifier)->Buy("pricing", 0.5, sale.txn_id);
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_DOUBLE_EQ(again->record.price, sale.price);
    }
  }
  const auto stats2 = (*verifier)->Stats();
  ASSERT_TRUE(stats2.ok()) << stats2.status();
  EXPECT_EQ(stats2->buys_ok, stats->buys_ok);
  EXPECT_EQ(std::bit_cast<uint64_t>(stats2->revenue),
            std::bit_cast<uint64_t>(revenue_after_storm))
      << "re-buying recorded transactions must charge nothing";

  std::printf("[chaos] purchase mix: %zu sales completed client-side, "
              "%llu recorded server-side, revenue=%.3f\n",
              completed,
              static_cast<unsigned long long>(stats->buys_ok),
              revenue_after_storm);
}

// A transient client-side transport fault (injected send reset) is
// absorbed by one reconnect + retry; the answer is still bit-identical.
TEST_F(NetChaosTest, TransientTransportFaultIsRetriedTransparently) {
  StartServer(ServerOptions{});
  ClientOptions copts;
  copts.retry.base_backoff_ms = 1;
  auto client = Connect(copts);
  ASSERT_TRUE(client.ok()) << client.status();

  fault::FaultInjector& inj = fault::FaultInjector::Global();
  fault::PointSchedule once;
  once.max_fires = 1;
  inj.Arm("net.send.reset", once);

  const auto remote = (*client)->PriceAt("pricing", 5.0);
  ASSERT_TRUE(remote.ok()) << remote.status();
  const auto local = engine_->Price(slot_, 5.0);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*remote, *local);
  const ClientTelemetry& t = (*client)->telemetry();
  EXPECT_EQ(t.transport_errors, 1u);
  EXPECT_EQ(t.retries_attempted, 1u);
  EXPECT_EQ(t.reconnects, 1u);
}

}  // namespace
}  // namespace mbp::net
