#include "serving/price_query_engine.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/pricing_function.h"
#include "random/rng.h"
#include "serving/catalog_registry.h"

namespace mbp::serving {
namespace {

using core::PiecewiseLinearPricing;
using core::PricePoint;

PiecewiseLinearPricing MakeValidPricing() {
  return PiecewiseLinearPricing::Create(
             {{1.0, 10.0}, {2.0, 18.0}, {4.0, 30.0}, {8.0, 40.0}})
      .value();
}

PiecewiseLinearPricing MakeCheaperPricing() {
  return PiecewiseLinearPricing::Create(
             {{1.0, 5.0}, {2.0, 9.0}, {4.0, 15.0}, {8.0, 20.0}})
      .value();
}

TEST(SnapshotRegistryTest, PublishFindWithdraw) {
  CatalogRegistry registry;
  EXPECT_EQ(registry.Find("m"), nullptr);
  EXPECT_EQ(registry.Withdraw("m").code(), StatusCode::kNotFound);

  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(registry.Find("m"), *slot);
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_NE((*slot)->Load(), nullptr);
  EXPECT_GT((*slot)->stamp(), 0u);

  ASSERT_TRUE(registry.Withdraw("m").ok());
  EXPECT_EQ((*slot)->Load(), nullptr);
  // The slot survives withdrawal and the id can be republished.
  auto again = registry.Publish("m", MakeCheaperPricing());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *slot);
  EXPECT_NE((*slot)->Load(), nullptr);
}

TEST(SnapshotRegistryTest, PublishRejectsInvalidCurveKeepsOldSnapshot) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  const uint64_t stamp_before = (*slot)->stamp();

  auto broken =
      PiecewiseLinearPricing::Create({{1.0, 10.0}, {2.0, 5.0}}).value();
  EXPECT_EQ(registry.Publish("m", broken).status().code(),
            StatusCode::kFailedPrecondition);
  // The rejected publish neither swapped the snapshot nor bumped the stamp.
  EXPECT_EQ((*slot)->stamp(), stamp_before);
  ASSERT_NE((*slot)->Load(), nullptr);
  EXPECT_EQ((*slot)->Load()->PriceAt(2.0), 18.0);
}

TEST(SnapshotRegistryTest, StampsAreUniqueAcrossSlots) {
  CatalogRegistry registry;
  auto a = registry.Publish("a", MakeValidPricing());
  auto b = registry.Publish("b", MakeCheaperPricing());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)->stamp(), (*b)->stamp());
}

TEST(PriceQueryEngineTest, ServesExactPricesColdAndHot) {
  CatalogRegistry registry;
  ASSERT_TRUE(registry.Publish("m", MakeValidPricing()).ok());
  PriceQueryEngine engine(&registry);
  const PiecewiseLinearPricing curve = MakeValidPricing();

  random::Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.NextDouble() * 9.0);
  // Cold pass (all misses) and hot pass (all hits) must agree bit for bit
  // with the research evaluation.
  for (const double x : xs) {
    ASSERT_EQ(engine.Price("m", x).value(), curve.PriceAtInverseNcp(x));
  }
  const auto cold = engine.cache_stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, 200u);
  for (const double x : xs) {
    ASSERT_EQ(engine.Price("m", x).value(), curve.PriceAtInverseNcp(x));
  }
  // The cache is direct-mapped, so a colliding key pair evicts each other
  // and keeps missing; with 200 keys in 2^16 slots that is at most a pair
  // or two. Correctness (asserted above, bit-exact) never depends on hits.
  const auto hot = engine.cache_stats();
  EXPECT_GE(hot.hits, 190u);
  EXPECT_EQ(hot.hits + hot.misses, 400u);
  EXPECT_EQ(hot.misses - 200u, 200u - hot.hits);  // hot misses = collisions
}

TEST(PriceQueryEngineTest, UnknownAndWithdrawnCurvesAreNotFound) {
  CatalogRegistry registry;
  PriceQueryEngine engine(&registry);
  EXPECT_EQ(engine.Price("ghost", 1.0).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(registry.Publish("m", MakeValidPricing()).ok());
  ASSERT_TRUE(engine.Price("m", 1.0).ok());
  ASSERT_TRUE(registry.Withdraw("m").ok());
  EXPECT_EQ(engine.Price("m", 1.0).status().code(), StatusCode::kNotFound);
  std::vector<double> out;
  EXPECT_EQ(engine.PriceBatch("m", {1.0, 2.0}, &out).code(),
            StatusCode::kNotFound);
}

TEST(PriceQueryEngineTest, RepublishInvalidatesCachedPrices) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  PriceQueryEngine engine(&registry);

  EXPECT_EQ(engine.Price(*slot, 2.0).value(), 18.0);
  EXPECT_EQ(engine.Price(*slot, 2.0).value(), 18.0);  // cached
  ASSERT_TRUE(registry.Publish("m", MakeCheaperPricing()).ok());
  // Quiescent correctness: after Publish returns, the old cached price is
  // unreachable (stamp changed) and the new curve is served.
  EXPECT_EQ(engine.Price(*slot, 2.0).value(), 9.0);
}

TEST(PriceQueryEngineTest, QuantizationSnapsQueriesButStaysExact) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  PriceQueryEngineOptions options;
  options.quantum = 0.25;
  PriceQueryEngine engine(&registry, options);
  const PiecewiseLinearPricing curve = MakeValidPricing();

  EXPECT_EQ(engine.Quantize(1.9), 2.0);
  EXPECT_EQ(engine.Quantize(1.87), 1.75);
  random::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextDouble() * 9.0;
    // Served price == research price at the canonical representative.
    ASSERT_EQ(engine.Price(*slot, x).value(),
              curve.PriceAtInverseNcp(engine.Quantize(x)));
  }
  // Nearby queries collapse onto one cache entry.
  PriceQueryEngine counting(&registry, options);
  ASSERT_TRUE(counting.Price(*slot, 3.001).ok());
  ASSERT_TRUE(counting.Price(*slot, 2.999).ok());
  ASSERT_TRUE(counting.Price(*slot, 3.1).ok());
  EXPECT_EQ(counting.cache_stats().hits, 2u);
  EXPECT_EQ(counting.cache_stats().misses, 1u);
}

TEST(PriceQueryEngineTest, ZeroCapacityDisablesCaching) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  PriceQueryEngineOptions options;
  options.cache_capacity_per_shard = 0;
  PriceQueryEngine engine(&registry, options);
  EXPECT_EQ(engine.Price(*slot, 2.0).value(), 18.0);
  EXPECT_EQ(engine.Price(*slot, 2.0).value(), 18.0);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().misses, 2u);
}

TEST(PriceQueryEngineTest, BudgetInversionMatchesResearchPath) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  PriceQueryEngine engine(&registry);
  const PiecewiseLinearPricing curve = MakeValidPricing();
  for (const double budget : {0.0, 5.0, 18.0, 24.0, 39.9}) {
    EXPECT_EQ(engine.BudgetToInverseNcp(*slot, budget).value(),
              curve.MaxInverseNcpForBudget(budget));
  }
  EXPECT_TRUE(std::isinf(engine.BudgetToInverseNcp(*slot, 40.0).value()));
}

// Batch results must be bit-identical to the serial point path at every
// thread count, cached or not (the PR-1 determinism contract).
TEST(ParallelServingBatchTest, BatchIsBitIdenticalAcrossThreadCounts) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  PriceQueryEngineOptions options;
  options.min_parallel_batch = 1;  // force the pool path even when small
  options.batch_grain = 64;
  PriceQueryEngine engine(&registry, options);
  const PiecewiseLinearPricing curve = MakeValidPricing();

  random::Rng rng(21);
  std::vector<double> xs(10000);
  for (double& x : xs) x = rng.NextDouble() * 10.0;
  std::vector<double> serial(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    serial[i] = curve.PriceAtInverseNcp(xs[i]);
  }

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelConfig parallel;
    parallel.num_threads = threads;
    std::vector<double> out;
    ASSERT_TRUE(engine.PriceBatch("m", xs, &out, parallel).ok());
    ASSERT_EQ(out.size(), serial.size());
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], serial[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelServingBatchTest, SmallBatchRunsInlineAndMatches) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  PriceQueryEngine engine(&registry);  // default min_parallel_batch
  const PiecewiseLinearPricing curve = MakeValidPricing();
  const std::vector<double> xs = {0.0, 0.5, 1.0, 3.3, 8.0, 12.0};
  std::vector<double> out;
  ParallelConfig parallel;
  parallel.num_threads = 4;
  ASSERT_TRUE(engine.PriceBatch("m", xs, &out, parallel).ok());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(out[i], curve.PriceAtInverseNcp(xs[i]));
  }
}

// Theorem 5/6 invariants hold on the SERVED surface (through the cache),
// not just on the snapshot: in exact mode the engine never manufactures a
// monotonicity or subadditivity violation.
TEST(PriceQueryEngineTest, ServedPricesAreArbitrageFreeOnGrid) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  PriceQueryEngine engine(&registry);
  const auto price = [&](double x) { return engine.Price("m", x).value(); };
  EXPECT_TRUE(core::IsArbitrageFreeOnGrid(price, 16.0, 300, 1e-9));
  // Run the grid twice so the second pass is served from cache.
  EXPECT_TRUE(core::IsArbitrageFreeOnGrid(price, 16.0, 300, 1e-9));
}

// Quantized serving keeps monotonicity exactly (round-to-nearest is
// monotone), while sampled subadditivity weakens to an L * quantum slack,
// L the curve's steepest slope: near the origin p(q(x + y)) can exceed
// p(q(x)) + p(q(y)) by at most one quantum step of price. DESIGN.md §5b
// documents this as the seller's quantum-selection rule.
TEST(PriceQueryEngineTest, QuantizedServingBoundsArbitrageSlack) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  PriceQueryEngineOptions options;
  options.quantum = 0.01;
  PriceQueryEngine engine(&registry, options);
  const auto price = [&](double x) { return engine.Price("m", x).value(); };
  EXPECT_FALSE(
      core::FindMonotonicityViolation(price, 16.0, 300, 1e-9).has_value());
  const double max_slope = 10.0;  // origin segment of MakeValidPricing
  EXPECT_FALSE(core::FindSubadditivityViolation(
                   price, 16.0, 300, max_slope * options.quantum + 1e-9)
                   .has_value());
}

}  // namespace
}  // namespace mbp::serving
