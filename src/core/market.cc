#include "core/market.h"

#include <algorithm>
#include <cmath>

#include "core/revenue_opt.h"
#include "linalg/vector_ops.h"
#include "ml/trainer.h"

namespace mbp::core {
namespace {

// The listing's model family must match the dataset's task.
Status ValidateListing(const ModelListing& listing,
                       const data::Dataset& train) {
  const bool classification =
      train.task() == data::TaskType::kBinaryClassification;
  switch (listing.model) {
    case ml::ModelKind::kLinearRegression:
      if (classification) {
        return InvalidArgumentError(
            "linear regression listed on a classification dataset");
      }
      break;
    case ml::ModelKind::kLogisticRegression:
    case ml::ModelKind::kLinearSvm:
      if (!classification) {
        return InvalidArgumentError(
            "classifier listed on a regression dataset");
      }
      break;
  }
  if (listing.l2 < 0.0) {
    return InvalidArgumentError("l2 must be non-negative");
  }
  return Status::OK();
}

}  // namespace

StatusOr<Seller> Seller::Create(std::string name, data::TrainTestSplit data,
                                std::vector<CurvePoint> market_research) {
  if (market_research.empty()) {
    return InvalidArgumentError("seller needs market research curves");
  }
  if (data.train.num_features() != data.test.num_features()) {
    return InvalidArgumentError("train/test feature counts differ");
  }
  if (data.train.task() != data.test.task()) {
    return InvalidArgumentError("train/test task types differ");
  }
  return Seller(std::move(name), std::move(data),
                std::move(market_research));
}

Broker::Broker(Seller seller, ModelListing listing,
               ml::LinearModel optimal_model,
               std::unique_ptr<RandomizedMechanism> mechanism,
               std::unique_ptr<ErrorTransform> transform,
               PiecewiseLinearPricing pricing, uint64_t seed)
    : seller_(std::move(seller)),
      listing_(listing),
      optimal_model_(std::move(optimal_model)),
      mechanism_(std::move(mechanism)),
      transform_(std::move(transform)),
      pricing_(std::move(pricing)),
      rng_(seed) {}

namespace {

// The shared one-time setup of Section 4: train the optimal instance
// h*_λ(D) and build the error<->NCP transform for the listed buyer-facing
// ε over x = 1/δ in [x_lo, x_hi] (with margin). The instance's error is
// reported unregularized (ε measures predictive error, not the training
// objective).
struct BrokerSetup {
  ml::LinearModel model;
  std::unique_ptr<RandomizedMechanism> mechanism;
  std::unique_ptr<ErrorTransform> transform;
};

StatusOr<BrokerSetup> PrepareSetup(const Seller& seller,
                                   const ModelListing& listing,
                                   const Broker::Options& options,
                                   double x_lo, double x_hi) {
  MBP_RETURN_IF_ERROR(ValidateListing(listing, seller.train()));
  MBP_ASSIGN_OR_RETURN(
      ml::TrainResult trained,
      ml::TrainOptimalModel(listing.model, seller.train(), listing.l2));

  std::unique_ptr<RandomizedMechanism> mechanism =
      MakeMechanism(options.mechanism);

  const data::Dataset& eval =
      listing.evaluate_on_test ? seller.test() : seller.train();

  // Square-loss ε under isotropic noise has the exact closed-form
  // transform of Lemma 3's dataset generalization.
  std::unique_ptr<ErrorTransform> transform;
  const bool isotropic =
      options.mechanism != MechanismKind::kUniformMultiplicative;
  if (listing.error_space == ErrorSpace::kModelSquare) {
    // Lemma 3: E[||ĥ - h*||²] = δ exactly (for every normalized
    // mechanism); the transform is the identity.
    transform = std::make_unique<SquareLossTransform>();
  } else if (isotropic && listing.test_error == ml::LossKind::kSquare) {
    MBP_ASSIGN_OR_RETURN(AnalyticSquareLossTransform analytic,
                         AnalyticSquareLossTransform::Build(
                             trained.model.coefficients(), eval));
    transform = std::make_unique<AnalyticSquareLossTransform>(analytic);
  } else {
    EmpiricalErrorTransform::BuildOptions transform_options =
        options.transform;
    transform_options.delta_min = 0.5 / x_hi;
    transform_options.delta_max = 2.0 / x_lo;
    transform_options.seed = options.seed ^ 0x9E3779B97F4A7C15ULL;
    std::unique_ptr<ml::Loss> epsilon =
        ml::MakeLoss(listing.test_error, 0.0);
    // Under K_G a margin ε's table is a sum of 1-D Gaussian expectations,
    // computed exactly; the other mechanisms sample it.
    MBP_ASSIGN_OR_RETURN(
        EmpiricalErrorTransform table,
        options.mechanism == MechanismKind::kGaussian
            ? EmpiricalErrorTransform::BuildExactGaussian(
                  trained.model.coefficients(), *epsilon, eval,
                  transform_options)
            : EmpiricalErrorTransform::Build(*mechanism,
                                             trained.model.coefficients(),
                                             *epsilon, eval,
                                             transform_options));
    transform = std::make_unique<EmpiricalErrorTransform>(std::move(table));
  }
  return BrokerSetup{std::move(trained.model), std::move(mechanism),
                     std::move(transform)};
}

}  // namespace

StatusOr<Broker> Broker::Create(Seller seller, ModelListing listing) {
  return Create(std::move(seller), listing, Options{});
}

StatusOr<Broker> Broker::Create(Seller seller, ModelListing listing,
                                const Options& options) {
  // The δ range is derived from the market research so the transform
  // covers every quotable x = 1/δ.
  const std::vector<CurvePoint>& research = seller.market_research();
  MBP_ASSIGN_OR_RETURN(BrokerSetup setup,
                       PrepareSetup(seller, listing, options,
                                    research.front().x, research.back().x));

  // Revenue-optimize the pricing curve and certify arbitrage-freeness
  // (the market's SLA, Section 3.3).
  MBP_ASSIGN_OR_RETURN(RevenueOptResult optimized,
                       MaximizeRevenueDp(research));
  MBP_ASSIGN_OR_RETURN(PiecewiseLinearPricing pricing,
                       PricingFromKnots(research, optimized.prices));
  MBP_RETURN_IF_ERROR(pricing.ValidateArbitrageFree());

  return Broker(std::move(seller), listing, std::move(setup.model),
                std::move(setup.mechanism), std::move(setup.transform),
                std::move(pricing), options.seed);
}

StatusOr<Broker> Broker::CreateWithPricing(Seller seller,
                                           ModelListing listing,
                                           PiecewiseLinearPricing pricing,
                                           const Options& options) {
  MBP_RETURN_IF_ERROR(pricing.ValidateArbitrageFree());
  MBP_ASSIGN_OR_RETURN(
      BrokerSetup setup,
      PrepareSetup(seller, listing, options, pricing.points().front().x,
                   pricing.points().back().x));
  return Broker(std::move(seller), listing, std::move(setup.model),
                std::move(setup.mechanism), std::move(setup.transform),
                std::move(pricing), options.seed);
}

std::vector<QuotePoint> Broker::QuoteCurve(size_t num_points) const {
  MBP_CHECK_GE(num_points, 2u);
  const double x_lo = pricing_.points().front().x;
  const double x_hi = pricing_.points().back().x;
  std::vector<QuotePoint> quotes(num_points);
  for (size_t i = 0; i < num_points; ++i) {
    const double t =
        static_cast<double>(i) / static_cast<double>(num_points - 1);
    const double x = x_lo + t * (x_hi - x_lo);
    quotes[i].x = x;
    quotes[i].delta = 1.0 / x;
    quotes[i].expected_error = transform_->ExpectedError(quotes[i].delta);
    quotes[i].price = pricing_.PriceAtInverseNcp(x);
  }
  return quotes;
}

Transaction Broker::Sell(double delta) {
  MBP_CHECK_GE(delta, 0.0);
  // δ = 0 sells the optimal instance at the curve's cap price (the price
  // is constant past the last knot).
  Transaction txn{
      .id = next_transaction_id_++,
      .delta = delta,
      .price = (delta == 0.0) ? pricing_.points().back().price
                              : pricing_.PriceAtNcp(delta),
      .quoted_expected_error = transform_->ExpectedError(delta),
      .instance = ml::LinearModel(
          listing_.model,
          mechanism_->Perturb(optimal_model_.coefficients(), delta, rng_))};
  total_revenue_ += txn.price;
  transactions_.push_back(txn);
  return txn;
}

StatusOr<Transaction> Broker::BuyAtNcp(double delta) {
  if (!(delta > 0.0) || !std::isfinite(delta)) {
    return InvalidArgumentError("delta must be positive and finite");
  }
  return Sell(delta);
}

StatusOr<Transaction> Broker::BuyWithErrorBudget(double error_budget) {
  if (!std::isfinite(error_budget)) {
    return InvalidArgumentError("error budget must be finite");
  }
  if (error_budget < transform_->MinError()) {
    return InfeasibleError(
        "error budget is below the optimal instance's error");
  }
  const double delta = transform_->DeltaForError(error_budget);
  return Sell(delta);
}

StatusOr<Transaction> Broker::BuyWithPriceBudget(double price_budget) {
  if (!(price_budget >= 0.0)) {
    return InvalidArgumentError("price budget must be a number >= 0");
  }
  double x = pricing_.MaxInverseNcpForBudget(price_budget);
  if (std::isinf(x)) {
    return Sell(0.0);  // budget covers the whole curve: optimal instance
  }
  // A tiny budget maps to a tiny x (enormous noise); floor it so δ stays
  // finite. The charged price never exceeds the budget.
  const double x_floor = pricing_.points().front().x * 1e-3;
  x = std::max(x, x_floor);
  return Sell(1.0 / x);
}

Status Broker::RefreshPricing(const std::vector<CurvePoint>& research) {
  if (research.empty()) {
    return InvalidArgumentError("empty market research");
  }
  const double covered_lo = pricing_.points().front().x;
  const double covered_hi = pricing_.points().back().x;
  if (research.front().x + 1e-9 < covered_lo ||
      research.back().x > covered_hi + 1e-9) {
    return InvalidArgumentError(
        "new research x range exceeds the error transform's coverage; "
        "create a new broker for a wider quality range");
  }
  MBP_ASSIGN_OR_RETURN(RevenueOptResult optimized,
                       MaximizeRevenueDp(research));
  MBP_ASSIGN_OR_RETURN(PiecewiseLinearPricing pricing,
                       PricingFromKnots(research, optimized.prices));
  MBP_RETURN_IF_ERROR(pricing.ValidateArbitrageFree());
  pricing_ = std::move(pricing);
  return Status::OK();
}

Status Broker::VerifySla(size_t trials, double relative_tolerance) const {
  if (trials == 0) return InvalidArgumentError("trials must be positive");
  if (!(relative_tolerance > 0.0)) {
    return InvalidArgumentError("relative_tolerance must be positive");
  }
  const std::unique_ptr<ml::Loss> epsilon =
      ml::MakeLoss(listing_.test_error, 0.0);
  const data::Dataset& eval =
      listing_.evaluate_on_test ? seller_.test() : seller_.train();
  const linalg::Vector& optimal = optimal_model_.coefficients();
  const size_t d = optimal.size();
  const auto measure_error = [&](const linalg::Vector& h) {
    if (listing_.error_space == ErrorSpace::kModelSquare) {
      return linalg::SquaredDistance(h, optimal);
    }
    return epsilon->Evaluate(h, eval);
  };

  // Probe three quality levels spanning the quotable range.
  const double x_lo = pricing_.points().front().x;
  const double x_hi = pricing_.points().back().x;
  for (double x : {x_lo, std::sqrt(x_lo * x_hi), x_hi}) {
    const double delta = 1.0 / x;
    random::Rng audit_rng(0xA0D17ULL + static_cast<uint64_t>(x * 1e6));
    linalg::Vector mean(d);
    double mean_error = 0.0;
    for (size_t t = 0; t < trials; ++t) {
      const linalg::Vector noisy =
          mechanism_->Perturb(optimal, delta, audit_rng);
      for (size_t j = 0; j < d; ++j) {
        mean[j] += noisy[j] / static_cast<double>(trials);
      }
      mean_error += measure_error(noisy) / static_cast<double>(trials);
    }
    // Clause 1: unbiasedness. The mean-of-trials noise has per-coordinate
    // stddev sqrt(delta / (d * trials)); allow 6 sigma.
    const double allowed_bias =
        6.0 * std::sqrt(delta / (static_cast<double>(d) *
                                 static_cast<double>(trials)));
    for (size_t j = 0; j < d; ++j) {
      if (std::fabs(mean[j] - optimal[j]) > allowed_bias) {
        return FailedPreconditionError(
            "SLA violation: mechanism biased at coordinate " +
            std::to_string(j));
      }
    }
    // Clause 2: the quoted expected error is honest.
    const double quoted = transform_->ExpectedError(delta);
    if (std::fabs(mean_error - quoted) >
        relative_tolerance * (std::fabs(quoted) + 1e-9)) {
      return FailedPreconditionError(
          "SLA violation: measured error " + std::to_string(mean_error) +
          " deviates from quoted " + std::to_string(quoted) +
          " at NCP " + std::to_string(delta));
    }
  }
  return Status::OK();
}

StatusOr<Transaction> Buyer::Purchase(Broker& broker,
                                      const BuyerRequest& request) {
  // Pre-compute the price so the wallet check happens before the sale is
  // recorded on the broker's books.
  double price = 0.0;
  switch (request.mode) {
    case BuyerRequest::Mode::kAtNcp:
      if (!(request.parameter > 0.0)) {
        return InvalidArgumentError("NCP must be positive");
      }
      price = broker.pricing().PriceAtNcp(request.parameter);
      break;
    case BuyerRequest::Mode::kErrorBudget: {
      if (!std::isfinite(request.parameter)) {
        return InvalidArgumentError("error budget must be finite");
      }
      if (request.parameter < broker.error_transform().MinError()) {
        return InfeasibleError("error budget below optimal error");
      }
      const double delta =
          broker.error_transform().DeltaForError(request.parameter);
      price = (delta == 0.0) ? broker.pricing().points().back().price
                             : broker.pricing().PriceAtNcp(delta);
      break;
    }
    case BuyerRequest::Mode::kPriceBudget:
      price = std::min(request.parameter, wallet_);
      break;
  }
  if (price > wallet_) {
    return FailedPreconditionError(name_ + " cannot afford price " +
                                   std::to_string(price));
  }

  StatusOr<Transaction> txn = [&]() -> StatusOr<Transaction> {
    switch (request.mode) {
      case BuyerRequest::Mode::kAtNcp:
        return broker.BuyAtNcp(request.parameter);
      case BuyerRequest::Mode::kErrorBudget:
        return broker.BuyWithErrorBudget(request.parameter);
      case BuyerRequest::Mode::kPriceBudget:
        return broker.BuyWithPriceBudget(
            std::min(request.parameter, wallet_));
    }
    return InvalidArgumentError("unknown purchase mode");
  }();
  if (!txn.ok()) return txn;
  wallet_ -= txn->price;
  return txn;
}

}  // namespace mbp::core
