// Integration tests exercising the full paper pipeline end-to-end:
// dataset -> optimal model -> error transform -> revenue-optimized
// arbitrage-free pricing -> purchases -> delivered-instance quality, for
// every model family the broker menu supports.

#include <cmath>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "core/arbitrage.h"
#include "core/baselines.h"
#include "core/curves.h"
#include "core/exact_opt.h"
#include "core/market.h"
#include "core/revenue_opt.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/uci_like.h"
#include "ml/metrics.h"

namespace mbp::core {
namespace {

struct MarketScenario {
  std::string name;
  ml::ModelKind model;
  ml::LossKind test_error;
};

// Prints the fields (the default dumps the raw bytes, a heap pointer
// included, so the test names would change per run). The name is left
// out: it is already the test-name suffix.
void PrintTo(const MarketScenario& scenario, std::ostream* os) {
  *os << ml::ModelKindToString(scenario.model) << "/"
      << ml::LossKindToString(scenario.test_error);
}

class EndToEndTest : public ::testing::TestWithParam<MarketScenario> {
 protected:
  static data::TrainTestSplit MakeData(ml::ModelKind model) {
    random::Rng rng(100);
    if (model == ml::ModelKind::kLinearRegression) {
      data::Simulated1Options options;
      options.num_examples = 500;
      options.num_features = 5;
      options.noise_stddev = 0.1;
      options.seed = 41;
      data::Dataset dataset =
          data::GenerateSimulated1(options).value();
      return data::RandomSplit(dataset, 0.25, rng).value();
    }
    data::Simulated2Options options;
    options.num_examples = 500;
    options.num_features = 5;
    options.seed = 43;
    data::Dataset dataset = data::GenerateSimulated2(options).value();
    return data::RandomSplit(dataset, 0.25, rng).value();
  }

  static Broker MakeBroker(const MarketScenario& scenario) {
    MarketCurveOptions curve_options;
    curve_options.num_points = 8;
    curve_options.x_min = 4.0;
    curve_options.x_max = 32.0;
    curve_options.value_shape = ValueShape::kSigmoid;
    curve_options.demand_shape = DemandShape::kMidPeaked;
    Seller seller =
        Seller::Create("seller", MakeData(scenario.model),
                       MakeMarketCurve(curve_options).value())
            .value();
    ModelListing listing;
    listing.model = scenario.model;
    listing.l2 = 0.01;
    listing.test_error = scenario.test_error;
    Broker::Options options;
    options.transform.grid_size = 8;
    options.transform.trials_per_delta = 120;
    options.seed = 7;
    return Broker::Create(std::move(seller), listing, options).value();
  }
};

TEST_P(EndToEndTest, FullPipelineInvariants) {
  Broker broker = MakeBroker(GetParam());

  // 1. Pricing is certified arbitrage-free and resists the attacker.
  ASSERT_TRUE(broker.pricing().ValidateArbitrageFree().ok());
  const auto price = [&](double x) {
    return broker.pricing().PriceAtInverseNcp(x);
  };
  EXPECT_FALSE(FindArbitrageAttack(price, 64.0, 128).has_value());

  // 2. The quote curve trades error against price monotonically.
  const std::vector<QuotePoint> quotes = broker.QuoteCurve(10);
  for (size_t i = 1; i < quotes.size(); ++i) {
    EXPECT_LE(quotes[i].expected_error,
              quotes[i - 1].expected_error + 1e-9);
    EXPECT_GE(quotes[i].price + 1e-9, quotes[i - 1].price);
  }

  // 3. All three purchase options deliver instances of the right shape.
  auto by_ncp = broker.BuyAtNcp(0.1);
  ASSERT_TRUE(by_ncp.ok());
  auto by_error = broker.BuyWithErrorBudget(
      broker.error_transform().ExpectedError(0.2));
  ASSERT_TRUE(by_error.ok());
  auto by_price = broker.BuyWithPriceBudget(by_ncp->price);
  ASSERT_TRUE(by_price.ok());
  EXPECT_LE(by_price->price, by_ncp->price + 1e-9);
  for (const Transaction* txn :
       {&*by_ncp, &*by_error, &*by_price}) {
    EXPECT_EQ(txn->instance.num_features(), 5u);
    EXPECT_EQ(txn->instance.kind(), GetParam().model);
  }

  // 4. Revenue accounting is exact.
  EXPECT_NEAR(broker.total_revenue(),
              by_ncp->price + by_error->price + by_price->price, 1e-9);
}

TEST_P(EndToEndTest, DeliveredQualityImprovesWithSpend) {
  Broker broker = MakeBroker(GetParam());
  const data::Dataset& test = broker.seller().test();
  const std::unique_ptr<ml::Loss> epsilon =
      ml::MakeLoss(GetParam().test_error, 0.0);
  double cheap_error = 0.0, premium_error = 0.0;
  const int rounds = 25;
  for (int i = 0; i < rounds; ++i) {
    auto cheap = broker.BuyAtNcp(1.0);
    auto premium = broker.BuyAtNcp(0.01);
    ASSERT_TRUE(cheap.ok() && premium.ok());
    EXPECT_LT(cheap->price, premium->price);
    cheap_error +=
        epsilon->Evaluate(cheap->instance.coefficients(), test) / rounds;
    premium_error +=
        epsilon->Evaluate(premium->instance.coefficients(), test) / rounds;
  }
  EXPECT_LT(premium_error, cheap_error);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EndToEndTest,
    ::testing::Values(
        MarketScenario{"linreg_square", ml::ModelKind::kLinearRegression,
                       ml::LossKind::kSquare},
        MarketScenario{"logreg_logistic",
                       ml::ModelKind::kLogisticRegression,
                       ml::LossKind::kLogistic},
        MarketScenario{"logreg_zeroone",
                       ml::ModelKind::kLogisticRegression,
                       ml::LossKind::kZeroOne},
        MarketScenario{"svm_hinge", ml::ModelKind::kLinearSvm,
                       ml::LossKind::kSmoothedHinge}),
    [](const auto& info) { return info.param.name; });

TEST(EndToEndPipelineTest, RevenueOrderingAcrossOptimizers) {
  // On an integer-grid market curve: baselines <= DP <= exact <= total
  // surplus, and DP >= exact / 2 (Proposition 3).
  MarketCurveOptions options;
  options.num_points = 8;
  options.x_min = 10.0;
  options.x_max = 80.0;
  options.value_shape = ValueShape::kConvex;
  options.demand_shape = DemandShape::kUniform;
  auto curve = MakeMarketCurve(options);
  ASSERT_TRUE(curve.ok());

  auto dp = MaximizeRevenueDp(*curve);
  auto exact = MaximizeRevenueExact(*curve);
  ASSERT_TRUE(dp.ok() && exact.ok());
  double surplus = 0.0;
  for (const CurvePoint& point : *curve) {
    surplus += point.demand * point.value;
  }
  EXPECT_LE(dp->revenue, exact->revenue + 1e-9);
  EXPECT_LE(exact->revenue, surplus + 1e-9);
  EXPECT_GE(dp->revenue + 1e-9, exact->revenue / 2.0);
  for (BaselineKind kind : AllBaselines()) {
    auto baseline = PriceWithBaseline(kind, *curve);
    ASSERT_TRUE(baseline.ok());
    EXPECT_LE(baseline->revenue, dp->revenue + 1e-9)
        << BaselineKindToString(kind);
  }
}

TEST(EndToEndPipelineTest, UciLikeDatasetsDriveTheMarket) {
  // A broker can be stood up on each synthetic UCI stand-in.
  for (const data::DatasetSpec& spec : data::PaperTable3Specs()) {
    if (spec.name != "CASP" && spec.name != "CovType") continue;  // speed
    auto split = data::GenerateUciLike(spec, 0.002, 77, 150);
    ASSERT_TRUE(split.ok());
    MarketCurveOptions curve_options;
    curve_options.num_points = 5;
    Seller seller =
        Seller::Create(spec.name, std::move(split).value(),
                       MakeMarketCurve(curve_options).value())
            .value();
    ModelListing listing;
    if (spec.task == data::TaskType::kRegression) {
      listing.model = ml::ModelKind::kLinearRegression;
      listing.test_error = ml::LossKind::kSquare;
    } else {
      listing.model = ml::ModelKind::kLogisticRegression;
      listing.test_error = ml::LossKind::kZeroOne;
    }
    listing.l2 = 0.01;
    Broker::Options options;
    options.transform.grid_size = 6;
    options.transform.trials_per_delta = 60;
    auto broker = Broker::Create(std::move(seller), listing, options);
    ASSERT_TRUE(broker.ok()) << spec.name << ": " << broker.status();
    auto txn = broker->BuyWithPriceBudget(30.0);
    EXPECT_TRUE(txn.ok()) << spec.name;
  }
}

}  // namespace
}  // namespace mbp::core
