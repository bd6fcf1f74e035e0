// Loopback integration tests for the networked price-serving front end:
// a real PriceServer on an ephemeral port, real TCP clients, and the
// lock-free serving stack underneath. The acceptance oracle mirrors
// serving_stress_test.cc — every remotely served price must bit-match a
// published variant, even while a seller republishes mid-stream. Suite
// names match scripts/tsan.sh's Net filter.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pricing_function.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "random/rng.h"
#include "serving/catalog_registry.h"

namespace mbp::net {
namespace {

using core::PiecewiseLinearPricing;
using serving::CatalogRegistry;

// Same arbitrage-free family as serving_stress_test.cc: variant k scales
// a fixed shape by (k + 1), so exact expected prices are precomputable.
PiecewiseLinearPricing MakeVariant(size_t k) {
  const double s = static_cast<double>(k + 1);
  return PiecewiseLinearPricing::Create({{1.0, 10.0 * s},
                                         {2.0, 18.0 * s},
                                         {4.0, 30.0 * s},
                                         {8.0, 40.0 * s}})
      .value();
}

// Blocking raw-socket connect for tests that need to write arbitrary
// (including corrupt) bytes below the PriceClient abstraction.
int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto published = registry_.Publish("pricing", MakeVariant(0));
    ASSERT_TRUE(published.ok());
    slot_ = *published;
    ServerOptions options;
    options.num_shards = 2;
    options.default_curve_id = "pricing";
    auto server = PriceServer::Start(&registry_, options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
    ASSERT_GT(server_->port(), 0) << "ephemeral port was not resolved";
  }

  std::unique_ptr<PriceClient> Connect() {
    auto client = PriceClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }

  CatalogRegistry registry_;
  const CatalogRegistry::CurveSlot* slot_ = nullptr;
  // The research-path curve behind the published "pricing" listing: the
  // oracle every served answer must match bit for bit.
  const PiecewiseLinearPricing curve_ = MakeVariant(0);
  std::unique_ptr<PriceServer> server_;
};

TEST_F(NetServerTest, PriceAtMatchesEngineBitForBit) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  for (const double x : {0.5, 1.0, 1.7, 3.0, 4.0, 6.5, 8.0, 12.0}) {
    const auto remote = client->PriceAt("pricing", x);
    ASSERT_TRUE(remote.ok()) << remote.status();
    // Exact, not approximate.
    EXPECT_EQ(*remote, curve_.PriceAtInverseNcp(x)) << "x = " << x;
  }
}

TEST_F(NetServerTest, PriceBatchMatchesEngineBitForBit) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  std::vector<double> xs;
  for (size_t i = 0; i < 256; ++i) {
    xs.push_back(10.0 * static_cast<double>(i + 1) / 256.0);
  }
  const auto remote = client->PriceBatch("pricing", xs);
  ASSERT_TRUE(remote.ok()) << remote.status();
  std::vector<double> local;
  for (const double x : xs) local.push_back(curve_.PriceAtInverseNcp(x));
  EXPECT_EQ(*remote, local);
}

TEST_F(NetServerTest, BudgetToXMatchesEngine) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  for (const double budget : {5.0, 15.0, 25.0, 39.0, 40.0}) {
    const auto remote = client->BudgetToX("pricing", budget);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(*remote, curve_.MaxInverseNcpForBudget(budget))
        << "budget = " << budget;
  }
}

// BudgetToInverseNcp MBP_CHECKs budget >= 0, so a negative or NaN
// budget off the wire used to abort the whole server process.
TEST_F(NetServerTest, InvalidBudgetIsRejectedAndServerSurvives) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  for (const double budget : {-1.0, std::nan("")}) {
    const auto rejected = client->BudgetToX("pricing", budget);
    ASSERT_FALSE(rejected.ok()) << "budget = " << budget;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
  const auto served = client->BudgetToX("pricing", 15.0);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(*served, curve_.MaxInverseNcpForBudget(15.0));
}

TEST_F(NetServerTest, EmptyCurveIdSelectsServerDefault) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  const auto remote = client->PriceAt("", 3.0);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(*remote, curve_.PriceAtInverseNcp(3.0));
}

TEST_F(NetServerTest, SnapshotInfoReflectsPublishedCurve) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  const auto info = client->SnapshotInfo("pricing");
  ASSERT_TRUE(info.ok()) << info.status();
  const auto snapshot = slot_->Load();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(info->version, snapshot->version());
  EXPECT_EQ(info->stamp, slot_->stamp());
  EXPECT_EQ(info->num_knots, snapshot->num_knots());
  EXPECT_EQ(info->x_max, snapshot->x_max());
  EXPECT_EQ(info->max_price, snapshot->max_price());
}

TEST_F(NetServerTest, UnknownCurveIsNotFoundAndConnectionSurvives) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  const auto missing = client->PriceAt("no-such-curve", 1.0);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // An application-level error must not poison the connection.
  const auto good = client->PriceAt("pricing", 2.0);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(*good, curve_.PriceAtInverseNcp(2.0));
}

TEST_F(NetServerTest, EmbeddedNulCurveIdsAreServedExactly) {
  // Curve ids are length-prefixed bytes on the wire, never C strings:
  // embedded NULs must resolve to the right listing, and near-miss ids
  // (same prefix, different NUL tail) must stay NotFound.
  const std::string with_nul("menu\0gold", 9);
  const std::string near_miss("menu\0silver", 11);
  ASSERT_TRUE(registry_.Publish(with_nul, MakeVariant(4)).ok());
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  const auto priced = client->PriceAt(with_nul, 2.0);
  ASSERT_TRUE(priced.ok()) << priced.status();
  EXPECT_EQ(*priced, MakeVariant(4).PriceAtInverseNcp(2.0));
  const auto missing = client->PriceAt(near_miss, 2.0);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  const auto prefix = client->PriceAt("menu", 2.0);
  ASSERT_FALSE(prefix.ok());
  EXPECT_EQ(prefix.status().code(), StatusCode::kNotFound);
}

TEST_F(NetServerTest, MaxLengthCurveIdsRoundTripAndLongerOnesTruncate) {
  // 255 bytes is the wire cap. A longer id is truncated to its 255-byte
  // prefix by the encoder (documented protocol behavior) — pin both
  // sides of the boundary.
  std::string max_id(255, 'm');
  max_id[254] = 'z';
  ASSERT_TRUE(registry_.Publish(max_id, MakeVariant(5)).ok());
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  const auto priced = client->PriceAt(max_id, 3.0);
  ASSERT_TRUE(priced.ok()) << priced.status();
  EXPECT_EQ(*priced, MakeVariant(5).PriceAtInverseNcp(3.0));
  // An over-long id is served as its truncated prefix (here: max_id).
  const std::string overlong = max_id + "-tail";
  const auto truncated = client->PriceAt(overlong, 3.0);
  ASSERT_TRUE(truncated.ok()) << truncated.status();
  EXPECT_EQ(*truncated, *priced);
  // A shorter distinct id misses.
  const auto shorter = client->PriceAt(max_id.substr(0, 254), 3.0);
  ASSERT_FALSE(shorter.ok());
  EXPECT_EQ(shorter.status().code(), StatusCode::kNotFound);
}

TEST_F(NetServerTest, WithdrawnCurveIsNotFoundUntilRepublished) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(registry_.Withdraw("pricing").ok());
  const auto gone = client->PriceAt("pricing", 1.0);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(registry_.Publish("pricing", MakeVariant(1)).ok());
  const auto back = client->PriceAt("pricing", 1.0);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, MakeVariant(1).PriceAtInverseNcp(1.0));
}

TEST_F(NetServerTest, StatsVerbCountsTraffic) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->PriceAt("pricing", 1.0).ok());
  ASSERT_TRUE(client->PriceBatch("pricing", {1.0, 2.0, 3.0}).ok());
  const auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->connections_accepted, 1u);
  EXPECT_GE(stats->connections_active, 1u);
  EXPECT_GE(stats->requests_ok, 2u);
  EXPECT_GE(stats->queries, 4u);   // 1 + 3 individual prices
  EXPECT_GE(stats->batches, 1u);
  EXPECT_GE(stats->latency.count, 2u);
  // The remote payload matches the in-process accessor's shape.
  const StatsPayload local = server_->stats();
  EXPECT_GE(local.requests_ok, stats->requests_ok);
}

TEST_F(NetServerTest, PipelinedRequestsAllAnswered) {
  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  constexpr uint64_t kRequests = 50;
  std::string wire;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    Request request;
    request.verb = Verb::kPriceAt;
    request.request_id = id;
    request.curve_id = "pricing";
    request.args = {static_cast<double>(id) * 0.2};
    EncodeRequest(request, &wire);
  }
  // One burst: the server's event loop will decode many frames in one
  // pass and micro-batch them into a single PriceBatch call.
  ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  std::map<uint64_t, double> answers;
  std::string rx;
  char buf[65536];
  while (answers.size() < kRequests) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed before answering everything";
    rx.append(buf, static_cast<size_t>(n));
    while (true) {
      Response response;
      const auto consumed = DecodeResponse(
          reinterpret_cast<const uint8_t*>(rx.data()), rx.size(), &response);
      ASSERT_TRUE(consumed.ok()) << consumed.status();
      if (*consumed == 0) break;
      rx.erase(0, *consumed);
      ASSERT_EQ(response.code, StatusCode::kOk);
      ASSERT_EQ(response.values.size(), 1u);
      answers[response.request_id] = response.values[0];
    }
  }
  close(fd);
  for (uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(answers.count(id)) << "request " << id << " unanswered";
    EXPECT_EQ(answers[id],
              curve_.PriceAtInverseNcp(static_cast<double>(id) * 0.2));
  }
}

TEST_F(NetServerTest, CorruptFrameClosesConnection) {
  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  // 0xFF... reads as an absurd length prefix -> unrecoverable corruption.
  const std::string garbage(64, '\xff');
  ASSERT_EQ(send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  char buf[256];
  ssize_t n;
  do {
    n = recv(fd, buf, sizeof(buf), 0);
  } while (n > 0);
  EXPECT_EQ(n, 0) << "server should close a corrupt connection";
  close(fd);
  // The error is visible in the metrics.
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

// Regression test: a dead connection's fd must stay allocated until its
// map entry is swept at the end of the event-loop pass. Before that fix,
// a disconnect and a fresh accept landing in the same epoll pass could
// hand the new socket the just-closed fd number; the collision with the
// dead map entry stranded the new connection (open, epoll-registered,
// unowned), its queries were never answered, and the level-triggered
// loop spun forever. Churn close-then-connect as fast as possible so the
// two events race into one server pass, and require every fresh
// connection to be served within a bounded time.
TEST_F(NetServerTest, ConnectionChurnNeverStrandsFreshConnections) {
  const double expected = curve_.PriceAtInverseNcp(3.0);
  int fd = -1;
  for (int i = 0; i < 200; ++i) {
    if (fd >= 0) close(fd);  // races the next accept into the same pass
    fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    timeval timeout{};
    timeout.tv_sec = 5;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    Request request;
    request.verb = Verb::kPriceAt;
    request.request_id = static_cast<uint64_t>(i) + 1;
    request.curve_id = "pricing";
    request.args = {3.0};
    std::string wire;
    EncodeRequest(request, &wire);
    ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    std::string rx;
    Response response;
    bool complete = false;
    while (!complete) {
      char buf[4096];
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "churn iteration " << i
                      << ": connection stranded, no response within 5s";
      rx.append(buf, static_cast<size_t>(n));
      const auto consumed = DecodeResponse(
          reinterpret_cast<const uint8_t*>(rx.data()), rx.size(), &response);
      ASSERT_TRUE(consumed.ok()) << consumed.status();
      complete = *consumed > 0;
    }
    EXPECT_EQ(response.request_id, request.request_id);
    ASSERT_EQ(response.values.size(), 1u);
    EXPECT_EQ(response.values[0], expected);
  }
  if (fd >= 0) close(fd);
}

TEST_F(NetServerTest, ShutdownIsIdempotentAndRefusesNewWork) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->PriceAt("pricing", 1.0).ok());
  server_->Shutdown();
  server_->Shutdown();  // second call is a no-op
  const auto after = client->PriceAt("pricing", 1.0);
  EXPECT_FALSE(after.ok());
  EXPECT_FALSE(PriceClient::Connect("127.0.0.1", server_->port()).ok());
}

// Acceptance test: >= 4 concurrent clients against >= 2 shards while a
// seller republishes mid-stream. Every remote batch must bit-match
// exactly ONE published variant (the server's one-snapshot-per-batch
// guarantee, observed across a socket), and after the dust settles
// remote answers are bit-identical to the research path.
TEST(NetStressTest, ConcurrentClientsBitIdenticalUnderRepublish) {
  constexpr size_t kVariants = 4;
  constexpr size_t kPublishes = 200;
  constexpr size_t kClients = 4;
  constexpr size_t kQueryPoints = 32;

  std::vector<double> xs(kQueryPoints);
  for (size_t i = 0; i < kQueryPoints; ++i) {
    xs[i] =
        10.0 * static_cast<double>(i + 1) / static_cast<double>(kQueryPoints);
  }
  std::vector<PiecewiseLinearPricing> variants;
  std::vector<std::vector<double>> expected(kVariants);
  for (size_t k = 0; k < kVariants; ++k) {
    variants.push_back(MakeVariant(k));
    expected[k].resize(kQueryPoints);
    for (size_t i = 0; i < kQueryPoints; ++i) {
      expected[k][i] = variants[k].PriceAtInverseNcp(xs[i]);
    }
  }

  CatalogRegistry registry;
  ASSERT_TRUE(registry.Publish("stress", variants[0]).ok());
  ServerOptions options;
  options.num_shards = 2;
  auto server = PriceServer::Start(&registry, options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> batches_served{0};

  std::thread writer([&] {
    for (size_t p = 1; p <= kPublishes; ++p) {
      if (!registry.Publish("stress", variants[p % kVariants]).ok()) {
        failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = PriceClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      random::Rng rng(900 + c);
      while (!done.load(std::memory_order_acquire)) {
        // Point query: must be SOME variant's exact price.
        const size_t i = static_cast<size_t>(rng.NextBounded(kQueryPoints));
        const auto price = (*client)->PriceAt("stress", xs[i]);
        if (!price.ok()) {
          failures.fetch_add(1);
          continue;
        }
        bool matched = false;
        for (size_t k = 0; k < kVariants; ++k) {
          matched = matched || *price == expected[k][i];
        }
        if (!matched) failures.fetch_add(1);

        // Batch query: the whole batch from ONE variant, never a mix.
        const auto batch = (*client)->PriceBatch("stress", xs);
        if (!batch.ok()) {
          failures.fetch_add(1);
          continue;
        }
        size_t variant = kVariants;
        for (size_t k = 0; k < kVariants; ++k) {
          if ((*batch)[0] == expected[k][0]) {
            variant = k;
            break;
          }
        }
        if (variant == kVariants || *batch != expected[variant]) {
          failures.fetch_add(1);
        }
        batches_served.fetch_add(1);
      }
    });
  }

  writer.join();
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(batches_served.load(), 0u);

  // Quiescent: remote and direct answers are bit-identical.
  auto client = PriceClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  const size_t last = kPublishes % kVariants;
  for (size_t i = 0; i < kQueryPoints; ++i) {
    const auto remote = (*client)->PriceAt("stress", xs[i]);
    ASSERT_TRUE(remote.ok());
    EXPECT_EQ(*remote, expected[last][i]);
  }
  const StatsPayload stats = (*server)->stats();
  EXPECT_GE(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.protocol_errors, 0u);
  (*server)->Shutdown();
}

// Confines the calling thread, and every thread it starts while the
// guard lives, to the first two CPUs it may run on; restores the old mask
// on destruction. A no-op on hosts that allow fewer than two CPUs.
class TwoCpuAffinity {
 public:
  TwoCpuAffinity() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0 ||
        CPU_COUNT(&saved_) < 2) {
      return;
    }
    cpu_set_t two;
    CPU_ZERO(&two);
    for (int cpu = 0; cpu < CPU_SETSIZE && CPU_COUNT(&two) < 2; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) CPU_SET(cpu, &two);
    }
    active_ = sched_setaffinity(0, sizeof(two), &two) == 0;
  }
  ~TwoCpuAffinity() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  TwoCpuAffinity(const TwoCpuAffinity&) = delete;
  TwoCpuAffinity& operator=(const TwoCpuAffinity&) = delete;

 private:
  cpu_set_t saved_;
  bool active_ = false;
};

// Regression test: one BUDGET_TO_X frame carrying many budgets is
// inverted on ONE snapshot. Loading the snapshot once per budget let a
// republish racing the request answer a single response from two curves.
// Bursts of pipelined raw frames keep the shard thread inverting budgets
// across many passes while a writer flips the listing between two
// variants that differ at every budget, so any mixed response matches
// neither.
//
// The client, shard and writer threads share two CPUs. With a CPU each,
// the writer's Publish can starve behind the shard's back-to-back
// snapshot loads (libstdc++'s atomic<shared_ptr> is a test-and-test-and-
// set spinlock), and a per-budget load would then almost never see a
// republish land mid-request.
TEST(NetStressTest, MultiBudgetRequestIsServedFromOneCurve) {
  constexpr size_t kBudgets = 64;
  constexpr size_t kRounds = 40;
  constexpr uint64_t kPipelined = 1024;
  const TwoCpuAffinity affinity;

  const PiecewiseLinearPricing variants[2] = {MakeVariant(0), MakeVariant(1)};
  std::vector<double> budgets(kBudgets);
  std::vector<double> expected[2];
  for (size_t i = 0; i < kBudgets; ++i) {
    // Below variant 0's top price, where the two inversions always differ.
    budgets[i] = 0.5 + 0.6 * static_cast<double>(i);
    for (size_t k = 0; k < 2; ++k) {
      expected[k].push_back(variants[k].MaxInverseNcpForBudget(budgets[i]));
    }
    ASSERT_NE(expected[0][i], expected[1][i]) << "budget " << budgets[i];
  }

  CatalogRegistry registry;
  ASSERT_TRUE(registry.Publish("budgets", variants[0]).ok());
  auto server = PriceServer::Start(&registry, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();

  std::atomic<bool> done{false};
  std::atomic<size_t> publish_failures{0};
  std::thread writer([&] {
    for (size_t p = 1; !done.load(std::memory_order_acquire); ++p) {
      if (!registry.Publish("budgets", variants[p % 2]).ok()) {
        publish_failures.fetch_add(1);
      }
    }
  });

  // Every ASSERT below returns from this lambda, never past the join.
  size_t answered = 0;
  size_t mixed = 0;
  const auto query = [&] {
    const int fd = RawConnect((*server)->port());
    ASSERT_GE(fd, 0);
    for (size_t round = 0; round < kRounds; ++round) {
      std::string wire;
      for (uint64_t id = 1; id <= kPipelined; ++id) {
        Request request;
        request.verb = Verb::kBudgetToX;
        request.request_id = round * kPipelined + id;
        request.curve_id = "budgets";
        request.args = budgets;
        EncodeRequest(request, &wire);
      }
      ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
                static_cast<ssize_t>(wire.size()));
      std::string rx;
      char buf[65536];
      for (uint64_t got = 0; got < kPipelined;) {
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "server closed before answering round " << round;
        rx.append(buf, static_cast<size_t>(n));
        while (got < kPipelined) {
          Response response;
          const auto consumed = DecodeResponse(
              reinterpret_cast<const uint8_t*>(rx.data()), rx.size(),
              &response);
          ASSERT_TRUE(consumed.ok()) << consumed.status();
          if (*consumed == 0) break;
          rx.erase(0, *consumed);
          ++got;
          ++answered;
          ASSERT_EQ(response.code, StatusCode::kOk) << response.error_message;
          if (response.values != expected[0] &&
              response.values != expected[1]) {
            ++mixed;
          }
        }
      }
    }
    close(fd);
  };
  query();
  done.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(answered, kRounds * kPipelined);
  EXPECT_EQ(mixed, 0u) << "responses answered from two curves";
  EXPECT_EQ(publish_failures.load(), 0u);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace mbp::net
