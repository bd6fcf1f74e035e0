// Marketplace-scale catalog stress (opt-in: `ctest -C slow -L slow`):
// 100k synthetic listings through the registry and compiled snapshots.
// Pins the O(1)-resolution claim operationally — publish cost is linear,
// lookups stay uniform across the id space, eviction machinery works at
// scale — without the wall-clock budget of the tier-1 suite.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "random/distributions.h"
#include "random/rng.h"
#include "serving/catalog_registry.h"
#include "serving/synthetic_catalog.h"

namespace mbp::serving {
namespace {

constexpr size_t kCurves = 100000;

TEST(CatalogScaleTest, HundredThousandListingsPublishResolveAndEvict) {
  SyntheticCatalogSpec spec;
  spec.num_curves = kCurves;
  CatalogRegistry registry;
  ASSERT_TRUE(PublishSyntheticCatalog(spec, &registry).ok());
  ASSERT_EQ(registry.resident_listings(), kCurves);
  ASSERT_GT(registry.resident_bytes(), kCurves * 100)
      << "bytes gauge must account every compiled snapshot";

  // Uniform + zipf-hot lookups across the whole id space, priced through
  // the resolved snapshot and checked against freshly compiled oracles.
  random::Rng rng(31);
  const random::ZipfIndex zipf(kCurves, 1.1);
  for (int i = 0; i < 2000; ++i) {
    const size_t index = (i % 2 == 0)
                             ? static_cast<size_t>(rng.NextBounded(kCurves))
                             : zipf.Sample(rng);
    const std::string id = SyntheticCurveId(index);
    const CatalogRegistry::CurveSlot* slot = registry.Find(id);
    ASSERT_NE(slot, nullptr) << id;
    const auto snapshot = slot->Load();
    ASSERT_NE(snapshot, nullptr) << id;
    const double x = rng.NextDouble(0.0, SyntheticCurveXMax(spec, index));
    const auto oracle = MakeSyntheticCurve(spec, index);
    ASSERT_EQ(snapshot->PriceAt(x), oracle.PriceAtInverseNcp(x)) << id;
  }

  // Refs are dense and the id space round-trips at scale.
  ASSERT_EQ(registry.size(), kCurves);
  for (size_t i = 0; i < kCurves; i += 9973) {
    const std::string id = SyntheticCurveId(i);
    const CurveRef ref = registry.FindRef(id);
    ASSERT_NE(ref, kInvalidCurveRef);
    ASSERT_EQ(registry.KeyOf(ref), id);
    ASSERT_EQ(registry.slot(ref), registry.Find(id));
  }

  // Re-stamp every slot to a synthetic "old" time (publish stamped them
  // with real NowMicros), touch a sparse working set "recently", then
  // evict everything idle: the working set survives, the rest is
  // withdrawn, and the bytes gauge shrinks accordingly.
  for (size_t i = 0; i < kCurves; ++i) {
    registry.slot(static_cast<CurveRef>(i))->Touch(1000);
  }
  size_t touched = 0;
  for (size_t i = 0; i < kCurves; i += 100) {
    registry.Find(SyntheticCurveId(i))->Touch(9000);
    ++touched;
  }
  const size_t bytes_before = registry.resident_bytes();
  const size_t evicted =
      registry.EvictIdle(/*now_micros=*/10000, /*idle_micros=*/5000);
  ASSERT_EQ(evicted, kCurves - touched);
  ASSERT_EQ(registry.resident_listings(), touched);
  ASSERT_LT(registry.resident_bytes(), bytes_before / 50);
  ASSERT_NE(registry.Find(SyntheticCurveId(0))->Load(), nullptr);
  ASSERT_EQ(registry.Find(SyntheticCurveId(1))->Load(), nullptr);
}

TEST(CatalogScaleTest, BoundedRegistryHoldsResidencyUnderChurn) {
  // 20k (not 100k) because LRU eviction is an O(catalog) scan per evicted
  // listing — the cap is an operator guardrail, not a hot path — and this
  // churn loop evicts on nearly every publish.
  constexpr size_t kChurnCurves = 20000;
  SyntheticCatalogSpec spec;
  spec.num_curves = kChurnCurves;
  CatalogRegistryOptions options;
  options.max_resident_listings = 1000;
  CatalogRegistry registry(options);
  // Publishing 20k listings through a 1000-slot residency budget must
  // never exceed the cap (memory stays bounded) while every id binding
  // survives.
  for (size_t i = 0; i < kChurnCurves; ++i) {
    ASSERT_TRUE(registry
                    .Publish(SyntheticCurveId(i),
                             MakeSyntheticCurve(spec, i))
                    .ok());
    if (i % 8192 == 0) {
      ASSERT_LE(registry.resident_listings(), 1000u);
    }
  }
  ASSERT_EQ(registry.resident_listings(), 1000u);
  ASSERT_EQ(registry.size(), kChurnCurves);
  // A republish of an evicted id revives it under its original ref.
  const CurveRef ref = registry.FindRef(SyntheticCurveId(0));
  ASSERT_NE(ref, kInvalidCurveRef);
  ASSERT_EQ(registry.Find(SyntheticCurveId(0))->Load(), nullptr);
  ASSERT_TRUE(
      registry.Publish(SyntheticCurveId(0), MakeSyntheticCurve(spec, 0)).ok());
  ASSERT_EQ(registry.FindRef(SyntheticCurveId(0)), ref);
  ASSERT_NE(registry.Find(SyntheticCurveId(0))->Load(), nullptr);
}

}  // namespace
}  // namespace mbp::serving
