// The serving surface the net server prices from: a CatalogRegistry slot
// resolved by id, loaded once per request into a compiled
// PricingSnapshot. Pins the RCU publish contract and that what a slot
// serves is exactly the research curve, arbitrage-free.
//
// The PriceQueryEngineTest suite name predates the removal of the engine
// layer between server and registry; its cases now exercise the same
// behaviours straight through the slot.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/pricing_function.h"
#include "serving/catalog_registry.h"
#include "serving/pricing_snapshot.h"

namespace mbp::serving {
namespace {

using core::PiecewiseLinearPricing;

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

// An unknown id resolves to no slot; a withdrawn id keeps its slot but
// loads no snapshot. The server answers both with kNotFound.
TEST(PriceQueryEngineTest, UnknownAndWithdrawnCurvesAreNotFound) {
  CatalogRegistry registry;
  EXPECT_EQ(registry.Find("ghost"), nullptr);

  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  ASSERT_NE((*slot)->Load(), nullptr);
  ASSERT_TRUE(registry.Withdraw("m").ok());
  EXPECT_EQ(registry.Find("m"), *slot);
  EXPECT_EQ((*slot)->Load(), nullptr);
}

TEST(PriceQueryEngineTest, BudgetInversionMatchesResearchPath) {
  CatalogRegistry registry;
  auto slot = registry.Publish("m", MakeValidPricing());
  ASSERT_TRUE(slot.ok());
  const auto snapshot = (*slot)->Load();
  ASSERT_NE(snapshot, nullptr);
  const PiecewiseLinearPricing curve = MakeValidPricing();
  for (const double budget : {0.0, 5.0, 18.0, 24.0, 39.9}) {
    EXPECT_EQ(snapshot->BudgetToInverseNcp(budget),
              curve.MaxInverseNcpForBudget(budget));
  }
  EXPECT_TRUE(std::isinf(snapshot->BudgetToInverseNcp(40.0)));
}

// Theorem 5/6 invariants hold on the SERVED surface, point and batch: a
// published slot never manufactures a monotonicity or subadditivity
// violation.
TEST(PriceQueryEngineTest, ServedPricesAreArbitrageFreeOnGrid) {
  CatalogRegistry registry;
  ASSERT_TRUE(registry.Publish("m", MakeValidPricing()).ok());
  const auto snapshot = registry.Find("m")->Load();
  ASSERT_NE(snapshot, nullptr);
  const auto point = [&](double x) { return snapshot->PriceAt(x); };
  const auto batch = [&](double x) {
    double price = 0.0;
    snapshot->PriceAtBatch(&x, &price, 1);
    return price;
  };
  EXPECT_TRUE(core::IsArbitrageFreeOnGrid(point, 16.0, 300, 1e-9));
  EXPECT_TRUE(core::IsArbitrageFreeOnGrid(batch, 16.0, 300, 1e-9));
}

}  // namespace
}  // namespace mbp::serving
