#ifndef MBP_CORE_MARKET_H_
#define MBP_CORE_MARKET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/curves.h"
#include "core/error_transform.h"
#include "core/mechanism.h"
#include "core/pricing_function.h"
#include "data/dataset.h"
#include "ml/loss.h"
#include "ml/model.h"

namespace mbp::core {

// ------------------------------------------------------------------ Seller

// The agent that owns the dataset for sale (Figure 1A). Supplies the
// train/test pair and the market research (value + demand curves over
// x = 1/NCP) the broker prices from.
class Seller {
 public:
  static StatusOr<Seller> Create(std::string name, data::TrainTestSplit data,
                                 std::vector<CurvePoint> market_research);

  const std::string& name() const { return name_; }
  const data::Dataset& train() const { return data_.train; }
  const data::Dataset& test() const { return data_.test; }
  const std::vector<CurvePoint>& market_research() const {
    return market_research_;
  }

 private:
  Seller(std::string name, data::TrainTestSplit data,
         std::vector<CurvePoint> market_research)
      : name_(std::move(name)),
        data_(std::move(data)),
        market_research_(std::move(market_research)) {}

  std::string name_;
  data::TrainTestSplit data_;
  std::vector<CurvePoint> market_research_;
};

// --------------------------------------------------------------- Listings

// Where the buyer-facing error ε lives.
enum class ErrorSpace {
  // ε is a dataset loss (Table 2): evaluated on D_test or D_train.
  kDataset,
  // ε is the model-space square loss ε_s(h) = ||h - h*||² of Section 4 —
  // the loss under which Lemma 3 gives E[ε_s] = δ exactly and Theorem 5
  // characterizes arbitrage-freeness. `test_error` is ignored.
  kModelSquare,
};

// One entry of the broker's supported-model menu M: the model family (which
// fixes the training loss λ per Table 2) and the buyer-facing error ε.
struct ModelListing {
  ml::ModelKind model = ml::ModelKind::kLinearRegression;
  double l2 = 1e-3;  // coefficient of the L2 term in λ
  // Buyer-facing error function ε and where it is evaluated.
  ErrorSpace error_space = ErrorSpace::kDataset;
  ml::LossKind test_error = ml::LossKind::kSquare;
  bool evaluate_on_test = true;  // ε on D_test (default) or D_train
};

// One point of the price-error curve shown to the buyer (step 2 of the
// broker-buyer interaction).
struct QuotePoint {
  double delta = 0.0;           // NCP
  double x = 0.0;               // 1/NCP
  double expected_error = 0.0;  // E[ε(ĥ^δ)]
  double price = 0.0;
};

// A completed sale (steps 3-4): what was paid and the instance delivered.
struct Transaction {
  uint64_t id = 0;
  double delta = 0.0;
  double price = 0.0;
  double quoted_expected_error = 0.0;
  ml::LinearModel instance;
};

// ------------------------------------------------------------------ Broker

// The market maker (Figure 1B). On construction it performs the one-time
// work of Section 4: trains the optimal instance h*_λ(D), builds the
// error<->NCP transform for the listed ε, optimizes the arbitrage-free
// pricing curve from the seller's market research, and verifies the
// arbitrage-freeness certificate. Each sale then costs only one noise draw.
//
// Thread safety: a Broker is NOT thread-safe — sales mutate the RNG,
// revenue, and transaction log. Serialize access (one selling thread per
// broker); concurrent READS of pricing()/error_transform() between sales
// are fine.
class Broker {
 public:
  struct Options {
    MechanismKind mechanism = MechanismKind::kGaussian;
    // Error-table options for the ε the closed forms do not cover. Its
    // δ range is always derived from the market research. Square-loss
    // listings under an isotropic mechanism (all but the multiplicative
    // one) use AnalyticSquareLossTransform instead. Margin-loss listings
    // under the Gaussian mechanism use
    // EmpiricalErrorTransform::BuildExactGaussian on `grid_size` points,
    // which draws nothing, so `trials_per_delta`, `seed` and `parallel`
    // apply only to the Monte-Carlo table of the other mechanisms.
    EmpiricalErrorTransform::BuildOptions transform;
    uint64_t seed = 42;
  };

  static StatusOr<Broker> Create(Seller seller, ModelListing listing,
                                 const Options& options);
  // Default options: Gaussian mechanism, default transform grid, seed 42.
  static StatusOr<Broker> Create(Seller seller, ModelListing listing);

  // Creates a broker with a seller-chosen pricing curve instead of the
  // revenue-optimized one — the price-interpolation workflow of Section 5
  // (fit seller target prices with interpolation.h, then list here). The
  // curve must pass the arbitrage-freeness certificate; this is the
  // market's SLA and is enforced, not assumed.
  static StatusOr<Broker> CreateWithPricing(Seller seller,
                                            ModelListing listing,
                                            PiecewiseLinearPricing pricing,
                                            const Options& options);

  Broker(Broker&&) = default;
  Broker& operator=(Broker&&) = default;

  const Seller& seller() const { return seller_; }
  const ModelListing& listing() const { return listing_; }
  const ml::LinearModel& optimal_model() const { return optimal_model_; }
  const PiecewiseLinearPricing& pricing() const { return pricing_; }
  const ErrorTransform& error_transform() const { return *transform_; }

  // The price-error curve (step 2): `num_points` quotes spanning the
  // pricing curve's x range.
  std::vector<QuotePoint> QuoteCurve(size_t num_points = 20) const;

  // Purchase option 1: buy at an explicit NCP δ > 0 (a point on the curve).
  StatusOr<Transaction> BuyAtNcp(double delta);

  // Purchase option 2: cheapest instance with expected error <= budget.
  // Infeasible when the budget is below the optimal instance's error.
  StatusOr<Transaction> BuyWithErrorBudget(double error_budget);

  // Purchase option 3: most accurate instance with price <= budget
  // (budget >= 0; a zero budget buys an arbitrarily noisy instance at the
  // smallest positive x the curve quotes).
  StatusOr<Transaction> BuyWithPriceBudget(double price_budget);

  // Re-optimizes the pricing curve against fresh market research (e.g.
  // the ledger-estimated curves of core/demand_estimation.h) without
  // retraining the model or rebuilding the error transform. The new
  // curve's x range must lie within the transform's coverage, i.e. within
  // [first, last] knot x of the current pricing (the quotes stay honest).
  // The arbitrage-freeness certificate is re-checked before swapping.
  Status RefreshPricing(const std::vector<CurvePoint>& research);

  // Empirical audit of the market's SLA (Section 3.3's guarantees as a
  // runnable check): draws `trials` fresh instances at several NCPs and
  // verifies (1) the mean instance matches the optimal model
  // (unbiasedness) and (2) the measured mean ε matches the quoted
  // expected error within `relative_tolerance`. Uses its own RNG stream,
  // so the purchase history is unaffected. Returns FailedPrecondition
  // naming the violated clause.
  Status VerifySla(size_t trials = 200,
                   double relative_tolerance = 0.15) const;

  double total_revenue() const { return total_revenue_; }
  const std::vector<Transaction>& transactions() const {
    return transactions_;
  }

 private:
  Broker(Seller seller, ModelListing listing, ml::LinearModel optimal_model,
         std::unique_ptr<RandomizedMechanism> mechanism,
         std::unique_ptr<ErrorTransform> transform,
         PiecewiseLinearPricing pricing, uint64_t seed);

  // Samples one instance at δ, charges the curve price, records the sale.
  Transaction Sell(double delta);

  Seller seller_;
  ModelListing listing_;
  ml::LinearModel optimal_model_;
  std::unique_ptr<RandomizedMechanism> mechanism_;
  std::unique_ptr<ErrorTransform> transform_;
  PiecewiseLinearPricing pricing_;
  random::Rng rng_;
  uint64_t next_transaction_id_ = 1;
  double total_revenue_ = 0.0;
  std::vector<Transaction> transactions_;
};

// ------------------------------------------------------------------- Buyer

// A scripted buyer (Figure 1C) for simulations and examples: how they pick
// a purchase option against a broker.
struct BuyerRequest {
  enum class Mode { kAtNcp, kErrorBudget, kPriceBudget };
  Mode mode = Mode::kPriceBudget;
  double parameter = 0.0;  // δ, error budget, or price budget per mode
};

class Buyer {
 public:
  Buyer(std::string name, double wallet) : name_(std::move(name)),
                                           wallet_(wallet) {}

  const std::string& name() const { return name_; }
  double wallet() const { return wallet_; }

  // Executes the request against the broker if the wallet covers the
  // price; debits the wallet on success. FailedPrecondition when the
  // charged price would exceed the wallet.
  StatusOr<Transaction> Purchase(Broker& broker, const BuyerRequest& request);

 private:
  std::string name_;
  double wallet_;
};

}  // namespace mbp::core

#endif  // MBP_CORE_MARKET_H_
