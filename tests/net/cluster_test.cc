// ClusterPriceClient + HashRing (net/cluster.h): endpoint parsing, ring
// determinism/balance/minimal-disruption, and consistent-hash failover
// against real in-process PriceServers — including the bit-identity
// contract while an endpoint is down. Suite names match scripts/tsan.sh's
// Cluster filter.

#include "net/cluster.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pricing_function.h"
#include "net/server.h"
#include "serving/synthetic_catalog.h"

namespace mbp::net {
namespace {

using serving::CatalogRegistry;

TEST(ParseEndpointsTest, ParsesHostPortLists) {
  auto one = ParseEndpoints("10.0.0.1:7001");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0].host, "10.0.0.1");
  EXPECT_EQ((*one)[0].port, 7001);

  auto many = ParseEndpoints("127.0.0.1:1,:65535,host.example:80");
  ASSERT_TRUE(many.ok());
  ASSERT_EQ(many->size(), 3u);
  EXPECT_EQ((*many)[1].host, "127.0.0.1") << "bare ':port' means loopback";
  EXPECT_EQ((*many)[1].port, 65535);
  EXPECT_EQ((*many)[2].host, "host.example");
  EXPECT_EQ(EndpointLabel((*many)[2]), "host.example:80");
}

TEST(ParseEndpointsTest, RejectsMalformedLists) {
  EXPECT_FALSE(ParseEndpoints("").ok());
  EXPECT_FALSE(ParseEndpoints("no-port").ok());
  EXPECT_FALSE(ParseEndpoints("host:0").ok());
  EXPECT_FALSE(ParseEndpoints("host:65536").ok());
  EXPECT_FALSE(ParseEndpoints("host:12ab").ok());
  EXPECT_FALSE(ParseEndpoints("host:1,").ok());
  EXPECT_FALSE(ParseEndpoints(",host:1").ok());
  EXPECT_FALSE(ParseEndpoints("a:1,a:1").ok()) << "duplicates rejected";
}

std::vector<std::string> Labels(size_t n) {
  std::vector<std::string> labels;
  for (size_t i = 0; i < n; ++i) labels.push_back("shard-" + std::to_string(i));
  return labels;
}

TEST(HashRingTest, RoutingIsDeterministicAcrossInstances) {
  const HashRing a(Labels(5), 64);
  const HashRing b(Labels(5), 64);
  for (int k = 0; k < 500; ++k) {
    const std::string key = "curve-" + std::to_string(k);
    EXPECT_EQ(a.Route(key), b.Route(key)) << key;
    EXPECT_EQ(a.Route(key, 2), b.Route(key, 2)) << key;
  }
}

TEST(HashRingTest, AttemptsEnumerateDistinctNodes) {
  const HashRing ring(Labels(6), 64);
  for (int k = 0; k < 100; ++k) {
    const std::string key = "curve-" + std::to_string(k);
    std::set<size_t> nodes;
    for (size_t attempt = 0; attempt < 6; ++attempt) {
      nodes.insert(ring.Route(key, attempt));
    }
    EXPECT_EQ(nodes.size(), 6u)
        << "attempts must be a permutation of all nodes for " << key;
  }
}

TEST(HashRingTest, OwnsMatchesRouteAttempts) {
  const HashRing ring(Labels(5), 64);
  for (int k = 0; k < 200; ++k) {
    const std::string key = "curve-" + std::to_string(k);
    for (size_t replicas = 1; replicas <= 3; ++replicas) {
      std::set<size_t> owners;
      for (size_t attempt = 0; attempt < replicas; ++attempt) {
        owners.insert(ring.Route(key, attempt));
      }
      for (size_t node = 0; node < 5; ++node) {
        EXPECT_EQ(ring.Owns(key, node, replicas), owners.count(node) > 0);
      }
    }
  }
}

TEST(HashRingTest, LoadIsRoughlyBalanced) {
  constexpr size_t kNodes = 4;
  constexpr int kKeys = 20000;
  const HashRing ring(Labels(kNodes), 64);
  std::map<size_t, int> counts;
  for (int k = 0; k < kKeys; ++k) {
    counts[ring.Route("curve-" + std::to_string(k))]++;
  }
  for (size_t node = 0; node < kNodes; ++node) {
    // Fair share is 25%; 64 vnodes keeps every node within [12%, 45%].
    EXPECT_GT(counts[node], kKeys * 12 / 100) << "node " << node;
    EXPECT_LT(counts[node], kKeys * 45 / 100) << "node " << node;
  }
}

TEST(HashRingTest, AddingANodeMovesOnlyKeysItClaims) {
  const HashRing before(Labels(4), 64);
  const HashRing after(Labels(5), 64);  // Labels(5) extends Labels(4)
  int moved = 0;
  constexpr int kKeys = 10000;
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "curve-" + std::to_string(k);
    const size_t old_owner = before.Route(key);
    const size_t new_owner = after.Route(key);
    if (new_owner != old_owner) {
      EXPECT_EQ(new_owner, 4u)
          << "a key may change owner only by moving to the new node";
      ++moved;
    }
  }
  // The new node should claim roughly 1/5 of the keyspace — generous
  // bounds so hash noise cannot flake the test.
  EXPECT_GT(moved, kKeys * 8 / 100);
  EXPECT_LT(moved, kKeys * 35 / 100);
}

// Two real servers, both holding the full synthetic catalog (the
// replicated-fleet configuration). A shard that dies mid-stream must be
// routed around with bit-identical answers.
class ClusterClientTest : public ::testing::Test {
 protected:
  static constexpr size_t kCurves = 64;

  void SetUp() override {
    spec_.num_curves = kCurves;
    spec_.seed = 21;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(serving::PublishSyntheticCatalog(spec_, &registry_[i]).ok());
      ServerOptions options;
      options.num_shards = 1;
      auto server = PriceServer::Start(&registry_[i], options);
      ASSERT_TRUE(server.ok()) << server.status();
      server_[i] = std::move(*server);
      endpoints_.push_back({"127.0.0.1", server_[i]->port()});
    }
  }

  void TearDown() override {
    for (auto& s : server_) {
      if (s != nullptr) s->Shutdown();
    }
  }

  serving::SyntheticCatalogSpec spec_;
  CatalogRegistry registry_[2];
  std::unique_ptr<PriceServer> server_[2];
  std::vector<Endpoint> endpoints_;
};

TEST_F(ClusterClientTest, RoutedAnswersAreBitIdenticalToLocalCurves) {
  auto client = ClusterPriceClient::Create(endpoints_);
  ASSERT_TRUE(client.ok()) << client.status();
  for (size_t i = 0; i < kCurves; ++i) {
    const std::string id = serving::SyntheticCurveId(i);
    const auto oracle = serving::MakeSyntheticCurve(spec_, i);
    const double x = serving::SyntheticCurveXMax(spec_, i) * 0.37;
    const auto remote = (*client)->PriceAt(id, x);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(*remote, oracle.PriceAtInverseNcp(x)) << id;
  }
  EXPECT_EQ((*client)->telemetry().failovers, 0u)
      << "healthy fleet must answer every request at its owner";
}

TEST_F(ClusterClientTest, RouteOfSpreadsCurvesOverBothEndpoints) {
  auto client = ClusterPriceClient::Create(endpoints_);
  ASSERT_TRUE(client.ok());
  std::set<size_t> owners;
  for (size_t i = 0; i < kCurves; ++i) {
    owners.insert((*client)->RouteOf(serving::SyntheticCurveId(i)));
  }
  EXPECT_EQ(owners.size(), 2u) << "64 curves must not all land on one shard";
}

TEST_F(ClusterClientTest, DeadEndpointFailsOverBitIdentically) {
  ClusterClientOptions options;
  options.client.connect_timeout_ms = 500;
  options.cooldown_ms = 50;
  auto client = ClusterPriceClient::Create(endpoints_, options);
  ASSERT_TRUE(client.ok());

  // Kill endpoint 0; every curve it owned must fail over to endpoint 1
  // with bit-identical answers.
  server_[0]->Shutdown();
  server_[0] = nullptr;
  size_t owned_by_dead = 0;
  for (size_t i = 0; i < kCurves; ++i) {
    const std::string id = serving::SyntheticCurveId(i);
    if ((*client)->RouteOf(id) == 0) ++owned_by_dead;
    const auto oracle = serving::MakeSyntheticCurve(spec_, i);
    const double x = serving::SyntheticCurveXMax(spec_, i) * 0.61;
    const auto remote = (*client)->PriceAt(id, x);
    ASSERT_TRUE(remote.ok()) << id << ": " << remote.status();
    EXPECT_EQ(*remote, oracle.PriceAtInverseNcp(x)) << id;
  }
  EXPECT_GT(owned_by_dead, 0u) << "test is vacuous if shard 0 owned nothing";
  EXPECT_GT((*client)->telemetry().failovers, 0u);
  EXPECT_GT((*client)->telemetry().endpoint_errors, 0u);
}

TEST_F(ClusterClientTest, UnknownCurveIsNotFoundWithoutFailover) {
  auto client = ClusterPriceClient::Create(endpoints_);
  ASSERT_TRUE(client.ok());
  const auto result = (*client)->PriceAt("no-such-curve", 1.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*client)->telemetry().failovers, 0u)
      << "application errors must not trigger failover";
}

TEST_F(ClusterClientTest, StatsIsEndpointAddressed) {
  auto client = ClusterPriceClient::Create(endpoints_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->PriceAt(serving::SyntheticCurveId(0), 1.0).ok());
  for (size_t e = 0; e < 2; ++e) {
    const auto stats = (*client)->Stats(e);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->catalog_listings, kCurves);
    EXPECT_GT(stats->catalog_bytes, 0u);
  }
  EXPECT_FALSE((*client)->Stats(2).ok());
}

TEST(ClusterCreateTest, RejectsBadConfigurations) {
  EXPECT_FALSE(ClusterPriceClient::Create({}).ok());
  ClusterClientOptions mismatched;
  mismatched.node_labels = {"only-one"};
  EXPECT_FALSE(ClusterPriceClient::Create(
                   {{"127.0.0.1", 1}, {"127.0.0.1", 2}}, mismatched)
                   .ok());
}

}  // namespace
}  // namespace mbp::net
