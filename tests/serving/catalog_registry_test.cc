// CatalogRegistry (serving/catalog_registry.h): dense-ref resolution,
// residency gauges, idle eviction, the max-listings LRU cap, and
// republish-under-zipf-load — the marketplace-scale behaviors layered on
// top of the RCU publish contract (which snapshot_registry_test.cc pins
// in its SnapshotRegistryTest cases).

#include "serving/catalog_registry.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pricing_function.h"
#include "random/distributions.h"
#include "random/rng.h"
#include "serving/synthetic_catalog.h"

namespace mbp::serving {
namespace {

core::PiecewiseLinearPricing SmallCurve(double scale) {
  return core::PiecewiseLinearPricing::Create(
             {{1.0, 10.0 * scale}, {2.0, 18.0 * scale}, {4.0, 30.0 * scale}})
      .value();
}

TEST(CatalogRegistryTest, PublishAssignsDenseRefsAndFindResolvesThem) {
  CatalogRegistry registry;
  ASSERT_TRUE(registry.Publish("a", SmallCurve(1.0)).ok());
  ASSERT_TRUE(registry.Publish("b", SmallCurve(2.0)).ok());
  EXPECT_EQ(registry.FindRef("a"), 0u);
  EXPECT_EQ(registry.FindRef("b"), 1u);
  EXPECT_EQ(registry.FindRef("c"), kInvalidCurveRef);
  EXPECT_EQ(registry.KeyOf(0), "a");
  EXPECT_EQ(registry.KeyOf(1), "b");
  EXPECT_EQ(registry.size(), 2u);

  const CatalogRegistry::CurveSlot* by_name = registry.Find("a");
  const CatalogRegistry::CurveSlot* by_ref = registry.slot(0);
  ASSERT_NE(by_name, nullptr);
  EXPECT_EQ(by_name, by_ref);
  const auto snapshot = by_name->Load();
  ASSERT_NE(snapshot, nullptr);
}

TEST(CatalogRegistryTest, RepublishKeepsRefAndSlotStable) {
  CatalogRegistry registry;
  auto first = registry.Publish("a", SmallCurve(1.0));
  ASSERT_TRUE(first.ok());
  const uint64_t stamp1 = (*first)->stamp();
  auto second = registry.Publish("a", SmallCurve(3.0));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second) << "republish must reuse the slot";
  EXPECT_EQ(registry.FindRef("a"), 0u);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_GT((*second)->stamp(), stamp1);
}

TEST(CatalogRegistryTest, ResidencyGaugesTrackPublishAndWithdraw) {
  CatalogRegistry registry;
  EXPECT_EQ(registry.resident_listings(), 0u);
  EXPECT_EQ(registry.resident_bytes(), 0u);

  ASSERT_TRUE(registry.Publish("a", SmallCurve(1.0)).ok());
  EXPECT_EQ(registry.resident_listings(), 1u);
  const size_t bytes_one = registry.resident_bytes();
  EXPECT_GT(bytes_one, 0u);

  ASSERT_TRUE(registry.Publish("b", SmallCurve(1.0)).ok());
  EXPECT_EQ(registry.resident_listings(), 2u);
  EXPECT_EQ(registry.resident_bytes(), 2 * bytes_one)
      << "identical curves must account identical bytes";

  // Republishing the same id must not double-count.
  ASSERT_TRUE(registry.Publish("a", SmallCurve(1.0)).ok());
  EXPECT_EQ(registry.resident_listings(), 2u);
  EXPECT_EQ(registry.resident_bytes(), 2 * bytes_one);

  ASSERT_TRUE(registry.Withdraw("a").ok());
  EXPECT_EQ(registry.resident_listings(), 1u);
  EXPECT_EQ(registry.resident_bytes(), bytes_one);
  EXPECT_EQ(registry.Find("a")->Load(), nullptr);
  // The binding survives withdrawal; republish revives under the same ref.
  EXPECT_EQ(registry.FindRef("a"), 0u);
  ASSERT_TRUE(registry.Publish("a", SmallCurve(2.0)).ok());
  EXPECT_EQ(registry.resident_listings(), 2u);
}

TEST(CatalogRegistryTest, EvictIdleWithdrawsOnlyStaleListings) {
  CatalogRegistry registry;
  ASSERT_TRUE(registry.Publish("stale", SmallCurve(1.0)).ok());
  ASSERT_TRUE(registry.Publish("fresh", SmallCurve(1.0)).ok());
  registry.Find("stale")->Touch(1000);
  registry.Find("fresh")->Touch(9000);

  EXPECT_EQ(registry.EvictIdle(/*now_micros=*/10000, /*idle_micros=*/5000),
            1u);
  EXPECT_EQ(registry.Find("stale")->Load(), nullptr);
  EXPECT_NE(registry.Find("fresh")->Load(), nullptr);
  EXPECT_EQ(registry.resident_listings(), 1u);
  // Idempotent: nothing else is stale.
  EXPECT_EQ(registry.EvictIdle(10000, 5000), 0u);
}

TEST(CatalogRegistryTest, MaxResidentListingsEvictsLeastRecentlyTouched) {
  CatalogRegistryOptions options;
  options.max_resident_listings = 2;
  CatalogRegistry registry(options);
  ASSERT_TRUE(registry.Publish("a", SmallCurve(1.0)).ok());
  ASSERT_TRUE(registry.Publish("b", SmallCurve(1.0)).ok());
  registry.Find("a")->Touch(2000);  // "b" is now the LRU
  registry.Find("b")->Touch(1000);

  ASSERT_TRUE(registry.Publish("c", SmallCurve(1.0)).ok());
  EXPECT_EQ(registry.resident_listings(), 2u);
  EXPECT_EQ(registry.Find("b")->Load(), nullptr) << "LRU must be evicted";
  EXPECT_NE(registry.Find("a")->Load(), nullptr);
  EXPECT_NE(registry.Find("c")->Load(), nullptr);

  // Republishing an already-resident id does not evict anything.
  ASSERT_TRUE(registry.Publish("a", SmallCurve(2.0)).ok());
  EXPECT_EQ(registry.resident_listings(), 2u);
  EXPECT_NE(registry.Find("c")->Load(), nullptr);
}

TEST(CatalogRegistryTest, SyntheticCatalogPublishesDeterministically) {
  SyntheticCatalogSpec spec;
  spec.num_curves = 200;
  CatalogRegistry r1, r2;
  ASSERT_TRUE(PublishSyntheticCatalog(spec, &r1).ok());
  ASSERT_TRUE(PublishSyntheticCatalog(spec, &r2).ok());
  EXPECT_EQ(r1.resident_listings(), 200u);
  EXPECT_EQ(r1.resident_bytes(), r2.resident_bytes());
  random::Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const size_t index = static_cast<size_t>(rng.NextBounded(200));
    const std::string id = SyntheticCurveId(index);
    const auto s1 = r1.Find(id)->Load();
    const auto s2 = r2.Find(id)->Load();
    ASSERT_NE(s1, nullptr);
    ASSERT_NE(s2, nullptr);
    const double x = rng.NextDouble(0.0, SyntheticCurveXMax(spec, index));
    EXPECT_EQ(s1->PriceAt(x), s2->PriceAt(x)) << id;
  }
}

// Satellite (c): republish-under-zipf-load — readers hammer Find/Load
// over a zipf-popular catalog while a publisher republishes and withdraws
// hot curves. Every loaded snapshot must price coherently (a snapshot is
// immutable once published: scale read twice must agree). Run under
// scripts/tsan.sh this is the catalog's main data-race net.
TEST(CatalogRegistryStressTest, RepublishUnderZipfLoadStaysCoherent) {
  constexpr size_t kCurves = 128;
  CatalogRegistry registry;
  std::vector<std::string> ids;
  for (size_t i = 0; i < kCurves; ++i) {
    ids.push_back("curve-" + std::to_string(i));
    ASSERT_TRUE(registry.Publish(ids.back(), SmallCurve(1.0)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> loads{0};
  const random::ZipfIndex zipf(kCurves, 1.1);

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      random::Rng rng(1000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t index = zipf.Sample(rng);
        const CatalogRegistry::CurveSlot* slot = registry.Find(ids[index]);
        ASSERT_NE(slot, nullptr);
        const auto snapshot = slot->Load();
        if (snapshot == nullptr) continue;  // withdrawn right now — legal
        // Immutability probe: the same snapshot must price the same x
        // identically twice, whatever the publisher is doing.
        const double x = rng.NextDouble(1.0, 4.0);
        const double p1 = snapshot->PriceAt(x);
        const double p2 = snapshot->PriceAt(x);
        ASSERT_EQ(p1, p2);
        slot->Touch(CatalogRegistry::NowMicros());
        loads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread publisher([&] {
    random::Rng rng(7);
    for (int round = 0; round < 600; ++round) {
      const size_t index = zipf.Sample(rng);  // republish HOT curves
      if (round % 7 == 3) {
        ASSERT_TRUE(registry.Withdraw(ids[index]).ok());
      }
      ASSERT_TRUE(
          registry.Publish(ids[index], SmallCurve(1.0 + round * 0.01)).ok());
    }
    stop.store(true, std::memory_order_release);
  });

  publisher.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(loads.load(), 0u);
  EXPECT_EQ(registry.resident_listings(), kCurves);
  EXPECT_EQ(registry.size(), kCurves);
}

}  // namespace
}  // namespace mbp::serving
