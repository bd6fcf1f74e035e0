#include "core/market.h"

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/arbitrage.h"
#include "core/curves.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "linalg/kernels.h"
#include "ml/metrics.h"

namespace mbp::core {
namespace {

// Shared fixture: one regression market and one classification market,
// built once (broker construction trains models and runs Monte Carlo).
class MarketTest : public ::testing::Test {
 protected:
  static Seller MakeRegressionSeller() {
    data::Simulated1Options data_options;
    data_options.num_examples = 600;
    data_options.num_features = 5;
    data_options.noise_stddev = 0.1;
    data_options.seed = 5;
    data::Dataset dataset = data::GenerateSimulated1(data_options).value();
    random::Rng rng(6);
    data::TrainTestSplit split =
        data::RandomSplit(dataset, 0.25, rng).value();

    MarketCurveOptions curve_options;
    curve_options.num_points = 8;
    curve_options.x_min = 5.0;
    curve_options.x_max = 40.0;
    curve_options.value_shape = ValueShape::kConcave;
    curve_options.demand_shape = DemandShape::kUniform;
    return Seller::Create("acme-data", std::move(split),
                          MakeMarketCurve(curve_options).value())
        .value();
  }

  static Broker MakeRegressionBroker(uint64_t seed = 42) {
    ModelListing listing;
    listing.model = ml::ModelKind::kLinearRegression;
    listing.l2 = 1e-4;
    listing.test_error = ml::LossKind::kSquare;
    Broker::Options options;
    options.seed = seed;
    options.transform.grid_size = 10;
    options.transform.trials_per_delta = 100;
    return Broker::Create(MakeRegressionSeller(), listing, options).value();
  }

  static Seller MakeClassificationSeller() {
    data::Simulated2Options data_options;
    data_options.num_examples = 500;
    data_options.num_features = 4;
    data_options.seed = 12;
    data::Dataset dataset = data::GenerateSimulated2(data_options).value();
    random::Rng rng(13);
    data::TrainTestSplit split =
        data::RandomSplit(dataset, 0.3, rng).value();

    MarketCurveOptions curve_options;
    curve_options.num_points = 6;
    curve_options.x_min = 2.0;
    curve_options.x_max = 12.0;
    return Seller::Create("tweets", std::move(split),
                          MakeMarketCurve(curve_options).value())
        .value();
  }

  // A logistic classifier sold under the Gaussian mechanism with 0/1 test
  // error: its error table is the exact one.
  static Broker MakeClassificationBroker(
      const Broker::Options& options = Broker::Options{}) {
    ModelListing listing;
    listing.model = ml::ModelKind::kLogisticRegression;
    listing.l2 = 0.01;
    listing.test_error = ml::LossKind::kZeroOne;
    return Broker::Create(MakeClassificationSeller(), listing, options)
        .value();
  }
};

TEST_F(MarketTest, SellerValidation) {
  data::Simulated1Options options;
  options.num_examples = 100;
  data::Dataset dataset = data::GenerateSimulated1(options).value();
  random::Rng rng(1);
  data::TrainTestSplit split = data::RandomSplit(dataset, 0.3, rng).value();
  EXPECT_FALSE(Seller::Create("x", std::move(split), {}).ok());
}

TEST_F(MarketTest, BrokerRejectsMismatchedListing) {
  ModelListing listing;
  listing.model = ml::ModelKind::kLogisticRegression;  // regression data
  EXPECT_FALSE(Broker::Create(MakeRegressionSeller(), listing).ok());
}

TEST_F(MarketTest, BrokerPricingIsCertifiedArbitrageFree) {
  Broker broker = MakeRegressionBroker();
  EXPECT_TRUE(broker.pricing().ValidateArbitrageFree().ok());
}

TEST_F(MarketTest, QuoteCurveIsMonotone) {
  Broker broker = MakeRegressionBroker();
  const std::vector<QuotePoint> quotes = broker.QuoteCurve(15);
  ASSERT_EQ(quotes.size(), 15u);
  for (size_t i = 1; i < quotes.size(); ++i) {
    // Higher x (less noise): lower expected error, higher (or equal) price.
    EXPECT_GT(quotes[i].x, quotes[i - 1].x);
    EXPECT_LE(quotes[i].expected_error, quotes[i - 1].expected_error + 1e-9);
    EXPECT_GE(quotes[i].price + 1e-9, quotes[i - 1].price);
  }
}

TEST_F(MarketTest, BuyAtNcpChargesCurvePrice) {
  Broker broker = MakeRegressionBroker();
  const double delta = 0.1;
  auto txn = broker.BuyAtNcp(delta);
  ASSERT_TRUE(txn.ok());
  EXPECT_DOUBLE_EQ(txn->price, broker.pricing().PriceAtNcp(delta));
  EXPECT_DOUBLE_EQ(txn->delta, delta);
  EXPECT_EQ(txn->instance.num_features(), 5u);
  EXPECT_DOUBLE_EQ(broker.total_revenue(), txn->price);
  EXPECT_EQ(broker.transactions().size(), 1u);
}

TEST_F(MarketTest, BuyAtNcpRejectsBadDelta) {
  Broker broker = MakeRegressionBroker();
  EXPECT_FALSE(broker.BuyAtNcp(0.0).ok());
  EXPECT_FALSE(broker.BuyAtNcp(-1.0).ok());
}

TEST_F(MarketTest, ErrorBudgetPurchaseMeetsTheBudget) {
  Broker broker = MakeRegressionBroker();
  const double budget =
      broker.error_transform().ExpectedError(0.05);
  auto txn = broker.BuyWithErrorBudget(budget);
  ASSERT_TRUE(txn.ok());
  EXPECT_LE(txn->quoted_expected_error, budget + 1e-6);
}

TEST_F(MarketTest, ErrorBudgetBelowOptimalIsInfeasible) {
  Broker broker = MakeRegressionBroker();
  const double impossible = broker.error_transform().MinError() - 1e-3;
  EXPECT_EQ(broker.BuyWithErrorBudget(impossible).status().code(),
            StatusCode::kInfeasible);
}

TEST_F(MarketTest, PriceBudgetPurchaseNeverOvercharges) {
  Broker broker = MakeRegressionBroker();
  for (double budget : {1.0, 10.0, 25.0, 60.0, 1000.0}) {
    auto txn = broker.BuyWithPriceBudget(budget);
    ASSERT_TRUE(txn.ok()) << txn.status();
    EXPECT_LE(txn->price, budget + 1e-9) << "budget " << budget;
  }
}

TEST_F(MarketTest, BiggerPriceBudgetBuysLowerError) {
  Broker broker = MakeRegressionBroker();
  auto cheap = broker.BuyWithPriceBudget(5.0);
  auto expensive = broker.BuyWithPriceBudget(80.0);
  ASSERT_TRUE(cheap.ok() && expensive.ok());
  EXPECT_LE(expensive->quoted_expected_error,
            cheap->quoted_expected_error + 1e-9);
}

TEST_F(MarketTest, HugeBudgetBuysTheOptimalModel) {
  Broker broker = MakeRegressionBroker();
  auto txn = broker.BuyWithPriceBudget(1e9);
  ASSERT_TRUE(txn.ok());
  EXPECT_DOUBLE_EQ(txn->delta, 0.0);
  EXPECT_EQ(txn->instance.coefficients(),
            broker.optimal_model().coefficients());
  // Charged the cap price, not the budget.
  EXPECT_DOUBLE_EQ(txn->price, broker.pricing().points().back().price);
}

TEST_F(MarketTest, RevenueBookkeepingAccumulates) {
  Broker broker = MakeRegressionBroker();
  double expected = 0.0;
  for (double delta : {0.2, 0.1, 0.05}) {
    auto txn = broker.BuyAtNcp(delta);
    ASSERT_TRUE(txn.ok());
    expected += txn->price;
  }
  EXPECT_NEAR(broker.total_revenue(), expected, 1e-9);
  EXPECT_EQ(broker.transactions().size(), 3u);
  EXPECT_EQ(broker.transactions()[2].id, 3u);
}

TEST_F(MarketTest, MoreExpensiveInstancesAreBetterOnAverage) {
  // The product actually delivered matches the SLA: instances bought at a
  // lower delta have lower test MSE on average.
  Broker broker = MakeRegressionBroker(7);
  const data::Dataset& test = broker.seller().test();
  double cheap_mse = 0.0, expensive_mse = 0.0;
  const int purchases = 30;
  for (int i = 0; i < purchases; ++i) {
    auto cheap = broker.BuyAtNcp(0.5);
    auto expensive = broker.BuyAtNcp(0.005);
    ASSERT_TRUE(cheap.ok() && expensive.ok());
    cheap_mse += ml::MeanSquaredError(cheap->instance, test) / purchases;
    expensive_mse +=
        ml::MeanSquaredError(expensive->instance, test) / purchases;
  }
  EXPECT_LT(expensive_mse, cheap_mse);
}

TEST_F(MarketTest, BuyerWalletIsDebited) {
  Broker broker = MakeRegressionBroker();
  Buyer alice("alice", 200.0);
  BuyerRequest request;
  request.mode = BuyerRequest::Mode::kAtNcp;
  request.parameter = 0.1;
  auto txn = alice.Purchase(broker, request);
  ASSERT_TRUE(txn.ok());
  EXPECT_NEAR(alice.wallet(), 200.0 - txn->price, 1e-9);
}

TEST_F(MarketTest, BuyerCannotOverspend) {
  Broker broker = MakeRegressionBroker();
  const double top_price = broker.pricing().points().back().price;
  Buyer poor("bob", top_price * 1e-4);
  BuyerRequest request;
  request.mode = BuyerRequest::Mode::kErrorBudget;
  request.parameter = broker.error_transform().MinError() + 1e-6;
  auto txn = poor.Purchase(broker, request);
  EXPECT_FALSE(txn.ok());
  EXPECT_EQ(broker.transactions().size(), 0u);  // no sale was recorded
}

TEST_F(MarketTest, BuyerPriceBudgetModeCapsAtWallet) {
  Broker broker = MakeRegressionBroker();
  Buyer alice("alice", 10.0);
  BuyerRequest request;
  request.mode = BuyerRequest::Mode::kPriceBudget;
  request.parameter = 1000.0;  // wants more than she can pay
  auto txn = alice.Purchase(broker, request);
  ASSERT_TRUE(txn.ok());
  EXPECT_LE(txn->price, 10.0 + 1e-9);
  EXPECT_GE(alice.wallet(), -1e-9);
}

TEST_F(MarketTest, ExecutedArbitrageAttackIsUnprofitableOnCertifiedCurve) {
  // Definition 3 end to end: buy two instances, combine with
  // inverse-variance weights, and compare against buying the target
  // directly. On a certified arbitrage-free curve the combination costs
  // at least as much as the target.
  Broker broker = MakeRegressionBroker(11);
  ArbitrageAttack attack;
  attack.target_delta = 1.0 / 20.0;            // target x = 20
  attack.purchase_deltas = {1.0 / 10.0, 1.0 / 10.0};  // two x = 10 halves
  attack.combined_delta = CombinedDelta(attack.purchase_deltas);
  // The combination matches the target's effective noise exactly.
  EXPECT_NEAR(attack.combined_delta, attack.target_delta, 1e-12);

  auto executed = ExecuteArbitrageAttack(broker, attack);
  ASSERT_TRUE(executed.ok()) << executed.status();
  // No profit: subadditivity means the parts cost >= the whole.
  EXPECT_GE(executed->total_paid + 1e-9, executed->target_price);
  // And the combined instance genuinely has near-target quality: its
  // measured error is within the error of a direct purchase at the
  // combined delta (sanity bound, generous for one sample).
  EXPECT_LT(executed->combined_error,
            3.0 * executed->target_error + 0.1);
  // The broker collected the money for both purchases.
  EXPECT_NEAR(broker.total_revenue(), executed->total_paid, 1e-9);
}

TEST_F(MarketTest, ExecuteArbitrageAttackRejectsEmptyAttack) {
  Broker broker = MakeRegressionBroker(12);
  EXPECT_FALSE(ExecuteArbitrageAttack(broker, ArbitrageAttack{}).ok());
}

TEST_F(MarketTest, VerifySlaPassesForHonestBroker) {
  Broker broker = MakeRegressionBroker();
  const Status sla = broker.VerifySla(/*trials=*/300,
                                      /*relative_tolerance=*/0.25);
  EXPECT_TRUE(sla.ok()) << sla;
  // The audit must not touch the books.
  EXPECT_EQ(broker.transactions().size(), 0u);
  EXPECT_DOUBLE_EQ(broker.total_revenue(), 0.0);
}

TEST_F(MarketTest, VerifySlaRejectsBadArguments) {
  Broker broker = MakeRegressionBroker();
  EXPECT_FALSE(broker.VerifySla(0).ok());
  EXPECT_FALSE(broker.VerifySla(10, 0.0).ok());
}

TEST_F(MarketTest, CreateWithPricingUsesTheGivenCurve) {
  auto pricing = PiecewiseLinearPricing::Create(
      {{5.0, 10.0}, {20.0, 30.0}, {40.0, 50.0}});
  ASSERT_TRUE(pricing.ok());
  ModelListing listing;
  listing.model = ml::ModelKind::kLinearRegression;
  listing.l2 = 1e-4;
  Broker::Options options;
  options.transform.grid_size = 6;
  options.transform.trials_per_delta = 50;
  auto broker = Broker::CreateWithPricing(MakeRegressionSeller(), listing,
                                          *pricing, options);
  ASSERT_TRUE(broker.ok()) << broker.status();
  EXPECT_DOUBLE_EQ(broker->pricing().PriceAtInverseNcp(20.0), 30.0);
  auto txn = broker->BuyAtNcp(1.0 / 20.0);
  ASSERT_TRUE(txn.ok());
  EXPECT_DOUBLE_EQ(txn->price, 30.0);
}

TEST_F(MarketTest, CreateWithPricingRejectsArbitrageCurves) {
  // price/x increasing: subadditivity fails the SLA check.
  auto pricing =
      PiecewiseLinearPricing::Create({{1.0, 1.0}, {2.0, 4.0}});
  ASSERT_TRUE(pricing.ok());
  ModelListing listing;
  listing.model = ml::ModelKind::kLinearRegression;
  Broker::Options options;
  auto broker = Broker::CreateWithPricing(MakeRegressionSeller(), listing,
                                          *pricing, options);
  EXPECT_EQ(broker.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MarketTest, RefreshPricingSwapsTheCurve) {
  Broker broker = MakeRegressionBroker(13);
  const double old_price = broker.pricing().PriceAtInverseNcp(20.0);
  // New research on the same x range with doubled valuations.
  std::vector<CurvePoint> research = broker.seller().market_research();
  for (CurvePoint& point : research) point.value *= 2.0;
  ASSERT_TRUE(broker.RefreshPricing(research).ok());
  EXPECT_TRUE(broker.pricing().ValidateArbitrageFree().ok());
  EXPECT_GT(broker.pricing().PriceAtInverseNcp(20.0), old_price);
  // Sales continue at the refreshed prices.
  auto txn = broker.BuyAtNcp(1.0 / 20.0);
  ASSERT_TRUE(txn.ok());
  EXPECT_DOUBLE_EQ(txn->price, broker.pricing().PriceAtInverseNcp(20.0));
}

TEST_F(MarketTest, RefreshPricingRejectsWiderRange) {
  Broker broker = MakeRegressionBroker(14);
  std::vector<CurvePoint> research = broker.seller().market_research();
  research.back().x *= 10.0;  // beyond the transform's coverage
  research.back().value += 1.0;
  EXPECT_EQ(broker.RefreshPricing(research).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(broker.RefreshPricing({}).ok());
}

TEST_F(MarketTest, ModelSpaceErrorListingUsesLemma3Exactly) {
  // ε = ε_s (model-space square loss): the quoted expected error IS the
  // NCP, with no Monte Carlo at all (Lemma 3).
  ModelListing listing;
  listing.model = ml::ModelKind::kLinearRegression;
  listing.l2 = 1e-4;
  listing.error_space = ErrorSpace::kModelSquare;
  Broker::Options options;
  auto broker =
      Broker::Create(MakeRegressionSeller(), listing, options);
  ASSERT_TRUE(broker.ok()) << broker.status();
  for (double delta : {0.01, 0.1, 1.0}) {
    EXPECT_DOUBLE_EQ(broker->error_transform().ExpectedError(delta), delta);
  }
  EXPECT_DOUBLE_EQ(broker->error_transform().MinError(), 0.0);
  // An error budget in model space maps straight to delta.
  auto txn = broker->BuyWithErrorBudget(0.05);
  ASSERT_TRUE(txn.ok());
  EXPECT_NEAR(txn->delta, 0.05, 1e-12);
  // The SLA audit covers the model-space clause too.
  EXPECT_TRUE(broker->VerifySla(300, 0.25).ok());
}

// NaN compares false with everything, so a NaN budget used to slip past
// the range checks: into MaxInverseNcpForBudget's MBP_CHECK (price) or
// off the end of the error table (error). Both brokers' transforms, and
// the Buyer path in front of them, now refuse it.
TEST_F(MarketTest, NonNumericBudgetsAreInvalidArguments) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Broker> brokers;
  brokers.push_back(MakeRegressionBroker());
  brokers.push_back(MakeClassificationBroker());
  for (Broker& broker : brokers) {
    SCOPED_TRACE(ml::LossKindToString(broker.listing().test_error));
    EXPECT_EQ(broker.BuyWithPriceBudget(nan).status().code(),
              StatusCode::kInvalidArgument);
    for (double budget : {nan, inf, -inf}) {
      EXPECT_EQ(broker.BuyWithErrorBudget(budget).status().code(),
                StatusCode::kInvalidArgument)
          << budget;
    }
    Buyer buyer("carol", 100.0);
    for (BuyerRequest::Mode mode : {BuyerRequest::Mode::kErrorBudget,
                                    BuyerRequest::Mode::kPriceBudget}) {
      BuyerRequest request;
      request.mode = mode;
      request.parameter = nan;
      EXPECT_EQ(buyer.Purchase(broker, request).status().code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(buyer.wallet(), 100.0);
    EXPECT_TRUE(broker.transactions().empty());
  }
}

// Under K_G the quoted curve is computed, not sampled: the transform's
// seed and thread count leave every quote the same bits. Across SIMD
// levels the table is the same function of h* (see
// ExactGaussianTransformTest.SameBitsAtEverySimdLevel), but training h*
// runs on the dispatched kernels and rounds differently per level, so
// there the quotes agree to rounding only.
TEST_F(MarketTest, GaussianClassifierQuotesAreExactlyReproducible) {
  const auto quotes = [](const Broker& broker) {
    std::vector<double> out;
    for (const QuotePoint& quote : broker.QuoteCurve(25)) {
      out.push_back(quote.expected_error);
    }
    return out;
  };
  Broker::Options options;
  options.transform.seed = 1;
  options.transform.parallel.num_threads = 1;
  const std::vector<double> reference =
      quotes(MakeClassificationBroker(options));
  options.transform.seed = 9001;
  options.transform.parallel.num_threads = 4;
  EXPECT_EQ(quotes(MakeClassificationBroker(options)), reference);
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2Fma}) {
    if (!linalg::kernels::ForceLevelForTesting(level)) continue;
    const std::vector<double> at_level =
        quotes(MakeClassificationBroker(options));
    linalg::kernels::ForceLevelForTesting(std::nullopt);
    ASSERT_EQ(at_level.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_NEAR(at_level[i], reference[i], 1e-12 * reference[i])
          << SimdLevelName(level) << " quote " << i;
    }
  }
}

// The SLA audit measures the mean 0/1 error of fresh K_G draws at three
// NCPs; the exact table quotes it within 2%.
TEST_F(MarketTest, VerifySlaPassesGaussianZeroOneListingAtTwoPercent) {
  const Broker broker = MakeClassificationBroker();
  const Status sla = broker.VerifySla(/*trials=*/4000,
                                      /*relative_tolerance=*/0.02);
  EXPECT_TRUE(sla.ok()) << sla;
}

TEST_F(MarketTest, ClassificationMarketEndToEnd) {
  data::Simulated2Options data_options;
  data_options.num_examples = 500;
  data_options.num_features = 4;
  data_options.seed = 12;
  data::Dataset dataset = data::GenerateSimulated2(data_options).value();
  random::Rng rng(13);
  data::TrainTestSplit split =
      data::RandomSplit(dataset, 0.3, rng).value();

  MarketCurveOptions curve_options;
  curve_options.num_points = 6;
  curve_options.x_min = 2.0;
  curve_options.x_max = 12.0;
  Seller seller = Seller::Create("tweets", std::move(split),
                                 MakeMarketCurve(curve_options).value())
                      .value();

  ModelListing listing;
  listing.model = ml::ModelKind::kLogisticRegression;
  listing.l2 = 0.01;
  listing.test_error = ml::LossKind::kZeroOne;
  Broker::Options options;
  options.transform.grid_size = 8;
  options.transform.trials_per_delta = 100;
  auto broker = Broker::Create(std::move(seller), listing, options);
  ASSERT_TRUE(broker.ok()) << broker.status();

  auto txn = broker->BuyWithPriceBudget(50.0);
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(txn->instance.kind(), ml::ModelKind::kLogisticRegression);
  // The noisy classifier still beats random guessing on test data.
  const double err =
      ml::MisclassificationRate(txn->instance, broker->seller().test());
  EXPECT_LT(err, 0.5);
}

}  // namespace
}  // namespace mbp::core
