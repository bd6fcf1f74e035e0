#include "core/error_transform.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "data/uci_like.h"
#include "linalg/kernels.h"
#include "ml/trainer.h"
#include "optim/pava.h"

namespace mbp::core {
namespace {

TEST(SquareLossTransformTest, IsTheIdentity) {
  // Lemma 3: E[eps_s] = delta exactly.
  SquareLossTransform transform;
  EXPECT_DOUBLE_EQ(transform.ExpectedError(0.7), 0.7);
  EXPECT_DOUBLE_EQ(transform.DeltaForError(2.5), 2.5);
  EXPECT_DOUBLE_EQ(transform.DeltaForError(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(transform.MinError(), 0.0);
}

class EmpiricalTransformTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::Simulated1Options options;
    options.num_examples = 400;
    options.num_features = 6;
    options.noise_stddev = 0.05;
    options.seed = 21;
    data_ = new data::Dataset(data::GenerateSimulated1(options).value());
    optimal_ = new linalg::Vector(
        ml::TrainOptimalModel(ml::ModelKind::kLinearRegression, *data_, 0.0)
            .value()
            .model.coefficients());
  }
  static void TearDownTestSuite() {
    delete data_;
    delete optimal_;
    data_ = nullptr;
    optimal_ = nullptr;
  }

  static EmpiricalErrorTransform BuildDefault() {
    GaussianMechanism mechanism;
    ml::SquareLoss loss(0.0);
    EmpiricalErrorTransform::BuildOptions options;
    options.delta_min = 0.01;
    options.delta_max = 2.0;
    options.grid_size = 15;
    options.trials_per_delta = 300;
    return EmpiricalErrorTransform::Build(mechanism, *optimal_, loss,
                                          *data_, options)
        .value();
  }

  static data::Dataset* data_;
  static linalg::Vector* optimal_;
};

data::Dataset* EmpiricalTransformTest::data_ = nullptr;
linalg::Vector* EmpiricalTransformTest::optimal_ = nullptr;

TEST_F(EmpiricalTransformTest, ErrorGridIsMonotoneNonDecreasing) {
  const EmpiricalErrorTransform transform = BuildDefault();
  const std::vector<double>& errors = transform.error_grid();
  for (size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LE(errors[i - 1], errors[i] + 1e-12);
  }
}

TEST_F(EmpiricalTransformTest, ExpectedErrorInterpolatesGrid) {
  const EmpiricalErrorTransform transform = BuildDefault();
  const std::vector<double>& deltas = transform.delta_grid();
  const std::vector<double>& errors = transform.error_grid();
  for (size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_NEAR(transform.ExpectedError(deltas[i]), errors[i], 1e-12);
  }
}

TEST_F(EmpiricalTransformTest, MinErrorIsOptimalModelError) {
  const EmpiricalErrorTransform transform = BuildDefault();
  ml::SquareLoss loss(0.0);
  EXPECT_DOUBLE_EQ(transform.MinError(), loss.Evaluate(*optimal_, *data_));
  EXPECT_DOUBLE_EQ(transform.ExpectedError(0.0), transform.MinError());
}

TEST_F(EmpiricalTransformTest, DeltaForErrorRoundTrips) {
  const EmpiricalErrorTransform transform = BuildDefault();
  for (double delta : {0.02, 0.1, 0.5, 1.5}) {
    const double error = transform.ExpectedError(delta);
    const double recovered = transform.DeltaForError(error);
    EXPECT_NEAR(transform.ExpectedError(recovered), error, 1e-9);
  }
}

TEST_F(EmpiricalTransformTest, DeltaForErrorClampsAtRangeEnds) {
  const EmpiricalErrorTransform transform = BuildDefault();
  EXPECT_DOUBLE_EQ(transform.DeltaForError(transform.MinError() - 1.0), 0.0);
  const double huge = transform.error_grid().back() + 100.0;
  EXPECT_DOUBLE_EQ(transform.DeltaForError(huge),
                   transform.delta_grid().back());
}

TEST_F(EmpiricalTransformTest, ExpectedErrorGrowsWithDelta) {
  // Theorem 4: for (strictly) convex eps, expected error is monotone in
  // delta. Checked on the fitted transform at off-grid points.
  const EmpiricalErrorTransform transform = BuildDefault();
  double prev = transform.ExpectedError(0.005);
  for (double delta = 0.01; delta <= 2.0; delta += 0.05) {
    const double here = transform.ExpectedError(delta);
    EXPECT_GE(here, prev - 1e-12);
    prev = here;
  }
}

TEST_F(EmpiricalTransformTest, SquareLossErrorTracksLemma3Slope) {
  // For dataset square loss, E[eps(h* + w)] = eps(h*) + quadratic-in-noise
  // term; with standardized Gaussian features the Gram matrix is ~I, so
  // the curve grows roughly linearly in delta with slope ~ E||x||^2-ish.
  // We only assert substantial, monotone growth (shape, not constants).
  const EmpiricalErrorTransform transform = BuildDefault();
  const double low = transform.ExpectedError(0.05);
  const double high = transform.ExpectedError(1.6);
  EXPECT_GT(high, 5.0 * low);
}

TEST_F(EmpiricalTransformTest, RejectsBadOptions) {
  GaussianMechanism mechanism;
  ml::SquareLoss loss(0.0);
  EmpiricalErrorTransform::BuildOptions options;
  options.delta_min = 0.0;
  EXPECT_FALSE(EmpiricalErrorTransform::Build(mechanism, *optimal_, loss,
                                              *data_, options)
                   .ok());
  options.delta_min = 0.5;
  options.delta_max = 0.1;
  EXPECT_FALSE(EmpiricalErrorTransform::Build(mechanism, *optimal_, loss,
                                              *data_, options)
                   .ok());
  options.delta_max = 1.0;
  options.grid_size = 1;
  EXPECT_FALSE(EmpiricalErrorTransform::Build(mechanism, *optimal_, loss,
                                              *data_, options)
                   .ok());
  options.grid_size = 5;
  options.trials_per_delta = 0;
  EXPECT_FALSE(EmpiricalErrorTransform::Build(mechanism, *optimal_, loss,
                                              *data_, options)
                   .ok());
}

TEST_F(EmpiricalTransformTest, RejectsDimensionMismatch) {
  GaussianMechanism mechanism;
  ml::SquareLoss loss(0.0);
  linalg::Vector wrong_dim(3);
  EXPECT_EQ(EmpiricalErrorTransform::Build(mechanism, wrong_dim, loss,
                                           *data_, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EmpiricalTransformTest, DeterministicForSeed) {
  GaussianMechanism mechanism;
  ml::SquareLoss loss(0.0);
  EmpiricalErrorTransform::BuildOptions options;
  options.grid_size = 5;
  options.trials_per_delta = 50;
  options.seed = 99;
  auto a = EmpiricalErrorTransform::Build(mechanism, *optimal_, loss,
                                          *data_, options);
  auto b = EmpiricalErrorTransform::Build(mechanism, *optimal_, loss,
                                          *data_, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->error_grid(), b->error_grid());
}

TEST_F(EmpiricalTransformTest, ThreadCountDoesNotChangeTheResult) {
  GaussianMechanism mechanism;
  ml::SquareLoss loss(0.0);
  EmpiricalErrorTransform::BuildOptions options;
  options.grid_size = 8;
  options.trials_per_delta = 100;
  options.seed = 321;
  options.parallel.num_threads = 1;
  auto serial = EmpiricalErrorTransform::Build(mechanism, *optimal_, loss,
                                               *data_, options);
  options.parallel.num_threads = 4;
  auto parallel = EmpiricalErrorTransform::Build(mechanism, *optimal_,
                                                 loss, *data_, options);
  options.parallel.num_threads = 64;  // more threads than grid points
  auto oversubscribed = EmpiricalErrorTransform::Build(
      mechanism, *optimal_, loss, *data_, options);
  ASSERT_TRUE(serial.ok() && parallel.ok() && oversubscribed.ok());
  EXPECT_EQ(serial->error_grid(), parallel->error_grid());
  EXPECT_EQ(serial->error_grid(), oversubscribed->error_grid());
}

// The Monte-Carlo path (non-square ε scores each 64-trial chunk as one
// model block): the error table must not depend on the thread count
// either. 150 trials per δ leave a partial last chunk of 22 models.
TEST_F(EmpiricalTransformTest, MonteCarloThreadCountDoesNotChangeTheResult) {
  data::Simulated2Options data_options;
  data_options.num_examples = 300;
  data_options.num_features = 7;
  data_options.seed = 17;
  const data::Dataset data =
      data::GenerateSimulated2(data_options).value();
  const linalg::Vector optimal =
      ml::TrainOptimalModel(ml::ModelKind::kLogisticRegression, data, 0.01)
          .value()
          .model.coefficients();
  GaussianMechanism mechanism;
  const ml::ZeroOneLoss zero_one;
  const ml::LogisticLoss logistic(0.0);
  const size_t threads[] = {
      1, 2, std::max<size_t>(1, std::thread::hardware_concurrency())};
  for (const ml::Loss* loss : {static_cast<const ml::Loss*>(&zero_one),
                               static_cast<const ml::Loss*>(&logistic)}) {
    SCOPED_TRACE(loss->name());
    EmpiricalErrorTransform::BuildOptions options;
    options.delta_min = 0.05;
    options.delta_max = 5.0;
    options.grid_size = 6;
    options.trials_per_delta = 150;
    options.seed = 5;
    std::vector<std::vector<double>> grids;
    for (size_t n : threads) {
      options.parallel.num_threads = n;
      auto transform = EmpiricalErrorTransform::Build(mechanism, optimal,
                                                      *loss, data, options);
      ASSERT_TRUE(transform.ok()) << transform.status();
      grids.push_back(transform->error_grid());
    }
    EXPECT_GT(grids[0].back(), grids[0].front());
    for (size_t i = 1; i < grids.size(); ++i) {
      EXPECT_EQ(grids[0], grids[i]) << threads[i] << " threads";
    }
  }
}

// Gaussian noise that also records every instance it hands out, keyed by
// δ, so a test can recompute the Monte-Carlo average model by model.
class RecordingMechanism final : public RandomizedMechanism {
 public:
  std::string name() const override { return "recording"; }
  linalg::Vector Perturb(const linalg::Vector& optimal, double delta,
                         random::Rng& rng) const override {
    linalg::Vector noisy = gaussian_.Perturb(optimal, delta, rng);
    std::lock_guard<std::mutex> lock(mu_);
    drawn_[delta].push_back(noisy);
    return noisy;
  }
  const std::vector<linalg::Vector>& drawn(double delta) const {
    return drawn_.at(delta);
  }

 private:
  GaussianMechanism gaussian_;
  mutable std::mutex mu_;
  mutable std::map<double, std::vector<linalg::Vector>> drawn_;
};

// The blocked sweep must average exactly the instances the mechanism drew:
// each grid point's error equals the mean of per-model Evaluate over them
// (up to summation order), partial last chunk included.
TEST_F(EmpiricalTransformTest, MonteCarloMatchesPerModelEvaluate) {
  data::Simulated2Options data_options;
  data_options.num_examples = 250;
  data_options.num_features = 9;
  data_options.seed = 19;
  const data::Dataset data =
      data::GenerateSimulated2(data_options).value();
  const linalg::Vector optimal =
      ml::TrainOptimalModel(ml::ModelKind::kLogisticRegression, data, 0.01)
          .value()
          .model.coefficients();
  const ml::ZeroOneLoss zero_one;
  const ml::LogisticLoss logistic(0.02);
  const ml::SmoothedHingeLoss hinge(0.02);
  for (const ml::Loss* loss : {static_cast<const ml::Loss*>(&zero_one),
                               static_cast<const ml::Loss*>(&logistic),
                               static_cast<const ml::Loss*>(&hinge)}) {
    SCOPED_TRACE(loss->name());
    RecordingMechanism mechanism;
    EmpiricalErrorTransform::BuildOptions options;
    options.delta_min = 0.05;
    options.delta_max = 5.0;
    options.grid_size = 5;
    options.trials_per_delta = 150;
    options.parallel.num_threads = 2;
    auto transform = EmpiricalErrorTransform::Build(mechanism, optimal,
                                                    *loss, data, options);
    ASSERT_TRUE(transform.ok()) << transform.status();
    std::vector<double> want;
    for (double delta : transform->delta_grid()) {
      const std::vector<linalg::Vector>& drawn = mechanism.drawn(delta);
      ASSERT_EQ(drawn.size(), options.trials_per_delta);
      double total = 0.0;
      for (const linalg::Vector& model : drawn) {
        total += loss->Evaluate(model, data);
      }
      want.push_back(total / static_cast<double>(drawn.size()));
    }
    want = optim::IsotonicNonDecreasing(want);
    const std::vector<double>& got = transform->error_grid();
    ASSERT_EQ(got.size(), want.size());
    for (size_t g = 0; g < want.size(); ++g) {
      EXPECT_NEAR(got[g], want[g], 1e-12 * want[g]) << "grid point " << g;
    }
  }
}

TEST_F(EmpiricalTransformTest, AnalyticSquareTransformSlopeFormula) {
  auto analytic = AnalyticSquareLossTransform::Build(*optimal_, *data_);
  ASSERT_TRUE(analytic.ok());
  // slope = tr(X^T X) / (2 n d), computed by hand.
  double trace = 0.0;
  for (size_t i = 0; i < data_->num_examples(); ++i) {
    const double* row = data_->ExampleFeatures(i);
    for (size_t j = 0; j < data_->num_features(); ++j) {
      trace += row[j] * row[j];
    }
  }
  const double expected =
      trace / (2.0 * data_->num_examples() * data_->num_features());
  EXPECT_NEAR(analytic->slope(), expected, 1e-12);
  // Linear in delta and exactly invertible.
  EXPECT_NEAR(analytic->ExpectedError(2.0),
              analytic->MinError() + 2.0 * analytic->slope(), 1e-12);
  EXPECT_NEAR(analytic->DeltaForError(analytic->ExpectedError(0.37)), 0.37,
              1e-12);
  EXPECT_DOUBLE_EQ(analytic->DeltaForError(analytic->MinError() - 1.0),
                   0.0);
}

TEST_F(EmpiricalTransformTest,
       AnalyticMatchesMonteCarloForIsotropicMechanisms) {
  auto analytic = AnalyticSquareLossTransform::Build(*optimal_, *data_);
  ASSERT_TRUE(analytic.ok());
  ml::SquareLoss loss(0.0);
  EmpiricalErrorTransform::BuildOptions build;
  build.delta_min = 0.05;
  build.delta_max = 1.0;
  build.grid_size = 6;
  build.trials_per_delta = 3000;
  for (MechanismKind kind :
       {MechanismKind::kGaussian, MechanismKind::kLaplace,
        MechanismKind::kUniformAdditive}) {
    const std::unique_ptr<RandomizedMechanism> mechanism =
        MakeMechanism(kind);
    auto empirical = EmpiricalErrorTransform::Build(
        *mechanism, *optimal_, loss, *data_, build);
    ASSERT_TRUE(empirical.ok());
    for (double delta : {0.1, 0.5, 1.0}) {
      const double closed_form = analytic->ExpectedError(delta);
      const double monte_carlo = empirical->ExpectedError(delta);
      EXPECT_NEAR(monte_carlo, closed_form, 0.05 * closed_form)
          << mechanism->name() << " at delta " << delta;
    }
  }
}

TEST_F(EmpiricalTransformTest, AnalyticTransformRejectsBadInputs) {
  linalg::Vector wrong_dim(2);
  EXPECT_FALSE(
      AnalyticSquareLossTransform::Build(wrong_dim, *data_).ok());
  // All-zero features make the transform flat.
  linalg::Matrix zeros(3, 2);
  const data::Dataset degenerate =
      data::Dataset::Create(std::move(zeros),
                            linalg::Vector{1.0, 2.0, 3.0},
                            data::TaskType::kRegression)
          .value();
  EXPECT_FALSE(AnalyticSquareLossTransform::Build(linalg::Vector(2),
                                                  degenerate)
                   .ok());
}

TEST_F(EmpiricalTransformTest, ZeroOneLossTransformIsMonotoneToo) {
  // Figure 6 bottom row: even the non-convex 0/1 error decreases with
  // 1/NCP (i.e. increases with delta) after the isotonic fit.
  data::Simulated2Options options;
  options.num_examples = 500;
  options.num_features = 5;
  options.seed = 31;
  const data::Dataset data = data::GenerateSimulated2(options).value();
  const linalg::Vector optimal =
      ml::TrainOptimalModel(ml::ModelKind::kLogisticRegression, data, 0.01)
          .value()
          .model.coefficients();
  GaussianMechanism mechanism;
  ml::ZeroOneLoss loss;
  EmpiricalErrorTransform::BuildOptions build;
  build.delta_min = 0.01;
  build.delta_max = 5.0;
  build.grid_size = 12;
  build.trials_per_delta = 200;
  auto transform = EmpiricalErrorTransform::Build(mechanism, optimal, loss,
                                                  data, build);
  ASSERT_TRUE(transform.ok());
  const std::vector<double>& errors = transform->error_grid();
  for (size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LE(errors[i - 1], errors[i] + 1e-12);
  }
  // More noise should hurt accuracy substantially across the range.
  EXPECT_GT(errors.back(), errors.front());
}

// ------------------------------------------------- exact Gaussian tables

// The three Table-3 classifier stand-ins at the listing's scale (test
// sets of 1250 x 20, 200 x 54 and 625 x 18), each with its logistic h*.
struct Classifier {
  std::string name;
  data::Dataset test;
  linalg::Vector optimal;
};

class ExactGaussianTransformTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    classifiers_ = new std::vector<Classifier>();
    for (const data::DatasetSpec& spec : data::PaperTable3Specs()) {
      if (spec.task != data::TaskType::kBinaryClassification) continue;
      data::TrainTestSplit split =
          data::GenerateUciLike(spec, 0.0005, /*seed=*/7).value();
      linalg::Vector optimal =
          ml::TrainOptimalModel(ml::ModelKind::kLogisticRegression,
                                split.train, 1e-3)
              .value()
              .model.coefficients();
      classifiers_->push_back(
          {spec.name, std::move(split.test), std::move(optimal)});
    }
  }
  static void TearDownTestSuite() {
    delete classifiers_;
    classifiers_ = nullptr;
  }
  void TearDown() override {
    linalg::kernels::ForceLevelForTesting(std::nullopt);
  }

  // The margin losses, penalized where a penalty exists so the exact
  // l2 (||h*||^2 + δ) term is exercised.
  static std::vector<std::unique_ptr<ml::Loss>> MarginLosses() {
    std::vector<std::unique_ptr<ml::Loss>> losses;
    losses.push_back(std::make_unique<ml::ZeroOneLoss>());
    losses.push_back(std::make_unique<ml::LogisticLoss>(0.01));
    losses.push_back(std::make_unique<ml::SmoothedHingeLoss>(0.01));
    return losses;
  }

  static std::vector<Classifier>* classifiers_;
};

std::vector<Classifier>* ExactGaussianTransformTest::classifiers_ = nullptr;

// Exact against the Monte-Carlo oracle at 20k trials per δ, over the
// listing's δ range and Figure 6's: every grid point within 4 standard
// errors. The standard error of each grid point's Monte-Carlo mean is
// sd / sqrt(20000), with sd the spread of ε over 400 independent K_G
// draws at that δ.
TEST_F(ExactGaussianTransformTest, MatchesMonteCarloAtTable3Shapes) {
  constexpr size_t kTrials = 20000;
  constexpr size_t kSpreadDraws = 400;
  GaussianMechanism mechanism;
  EmpiricalErrorTransform::BuildOptions options;
  options.delta_min = 0.005;
  options.delta_max = 1.0;
  options.grid_size = 5;
  options.trials_per_delta = kTrials;
  options.seed = 2024;
  options.parallel.num_threads = 4;
  for (const Classifier& c : *classifiers_) {
    for (const auto& loss : MarginLosses()) {
      SCOPED_TRACE(c.name + " / " + loss->name());
      auto exact = EmpiricalErrorTransform::BuildExactGaussian(
          c.optimal, *loss, c.test, options);
      auto sampled = EmpiricalErrorTransform::Build(mechanism, c.optimal,
                                                    *loss, c.test, options);
      ASSERT_TRUE(exact.ok()) << exact.status();
      ASSERT_TRUE(sampled.ok()) << sampled.status();
      ASSERT_EQ(exact->delta_grid(), sampled->delta_grid());
      random::Rng rng(77);
      for (size_t g = 0; g < options.grid_size; ++g) {
        const double delta = exact->delta_grid()[g];
        double sum = 0.0, sum_sq = 0.0;
        for (size_t t = 0; t < kSpreadDraws; ++t) {
          const double e =
              loss->Evaluate(mechanism.Perturb(c.optimal, delta, rng), c.test);
          sum += e;
          sum_sq += e * e;
        }
        const double mean = sum / kSpreadDraws;
        const double sd = std::sqrt(
            std::max(0.0, (sum_sq - kSpreadDraws * mean * mean) /
                              (kSpreadDraws - 1)));
        const double standard_error = sd / std::sqrt(double{kTrials});
        EXPECT_NEAR(exact->error_grid()[g], sampled->error_grid()[g],
                    4.0 * standard_error + 1e-12)
            << "delta " << delta << ", standard error " << standard_error;
      }
    }
  }
}

// An all-zero example's score is 0 under every noise draw, so it follows
// ZeroOneLoss's tie rule (score > 0 ? +1 : -1) at every δ: wrong when
// labelled +1, right when labelled -1.
TEST_F(ExactGaussianTransformTest, ZeroNormExampleFollowsTheTieRule) {
  linalg::Matrix features(3, 2);
  features(2, 0) = 1.0;  // rows 0 and 1 stay all-zero
  const data::Dataset data =
      data::Dataset::Create(std::move(features),
                            linalg::Vector{1.0, -1.0, 1.0},
                            data::TaskType::kBinaryClassification)
          .value();
  const linalg::Vector optimal{0.5, 0.0};
  const ml::ZeroOneLoss loss;
  EmpiricalErrorTransform::BuildOptions options;
  options.delta_min = 0.01;
  options.delta_max = 4.0;
  options.grid_size = 7;
  auto exact =
      EmpiricalErrorTransform::BuildExactGaussian(optimal, loss, data, options);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_DOUBLE_EQ(exact->MinError(), 1.0 / 3.0);
  for (size_t g = 0; g < options.grid_size; ++g) {
    // Row 2: score 0.5, spread ||x|| / sqrt(d) = 1 / sqrt(2).
    const double delta = exact->delta_grid()[g];
    const double row2 = 0.5 * std::erfc(0.5 / std::sqrt(delta));
    EXPECT_NEAR(exact->error_grid()[g], (1.0 + 0.0 + row2) / 3.0, 1e-15)
        << "delta " << delta;
  }
}

// At δ = 1e-12 the Φ and φ tails are far out: no NaN or inf, and on data
// without near-ties each loss's table is the optimal instance's error.
TEST_F(ExactGaussianTransformTest, TinyDeltaIsFiniteAndEqualsEvaluate) {
  EmpiricalErrorTransform::BuildOptions options;
  options.delta_min = 1e-12;
  options.delta_max = 2e-12;
  options.grid_size = 3;
  for (const Classifier& c : *classifiers_) {
    // Tie-free: every score lies over 40 of its noise stddevs
    // (||x_i|| / sqrt(d)) sqrt(δ) from 0 on the whole grid, where erfc
    // saturates to 0 or 2.
    for (size_t i = 0; i < c.test.num_examples(); ++i) {
      const double* x = c.test.ExampleFeatures(i);
      double score = 0.0, norm_sq = 0.0;
      for (size_t j = 0; j < c.optimal.size(); ++j) {
        score += x[j] * c.optimal[j];
        norm_sq += x[j] * x[j];
      }
      const double stddev =
          std::sqrt(norm_sq / static_cast<double>(c.optimal.size()) *
                    options.delta_max);
      ASSERT_GT(std::fabs(score), 40.0 * stddev) << c.name;
    }
    for (const auto& loss : MarginLosses()) {
      SCOPED_TRACE(c.name + " / " + loss->name());
      auto exact = EmpiricalErrorTransform::BuildExactGaussian(
          c.optimal, *loss, c.test, options);
      ASSERT_TRUE(exact.ok()) << exact.status();
      const double at_optimum = loss->Evaluate(c.optimal, c.test);
      EXPECT_TRUE(std::isfinite(exact->ExpectedError(1e-12)));
      for (double error : exact->error_grid()) {
        ASSERT_TRUE(std::isfinite(error));
        if (loss->kind() == ml::LossKind::kZeroOne) {
          EXPECT_EQ(error, at_optimum);
        } else {
          EXPECT_NEAR(error, at_optimum, 1e-9);
        }
      }
    }
  }
}

// The table never falls as δ grows, and the error-inverse undoes
// ExpectedError. The convex losses' tables rise strictly, so δ itself
// round-trips; the 0/1 table may pool into flat runs (CovType's does: its
// h* misclassifies enough near-boundary examples that noise does not
// raise the expected 0/1 error), where only the error round-trips.
TEST_F(ExactGaussianTransformTest, IsMonotoneAndInvertsExactly) {
  EmpiricalErrorTransform::BuildOptions options;
  options.delta_min = 0.005;
  options.delta_max = 0.2;
  for (const Classifier& c : *classifiers_) {
    for (const auto& loss : MarginLosses()) {
      SCOPED_TRACE(c.name + " / " + loss->name());
      auto exact = EmpiricalErrorTransform::BuildExactGaussian(
          c.optimal, *loss, c.test, options);
      ASSERT_TRUE(exact.ok()) << exact.status();
      const bool convex = loss->kind() != ml::LossKind::kZeroOne;
      const std::vector<double>& errors = exact->error_grid();
      for (size_t g = 1; g < errors.size(); ++g) {
        if (convex) {
          EXPECT_LT(errors[g - 1], errors[g]) << "grid point " << g;
        } else {
          EXPECT_LE(errors[g - 1], errors[g]) << "grid point " << g;
        }
      }
      for (double delta : {0.005, 0.013, 0.05, 0.11, 0.2}) {
        const double error = exact->ExpectedError(delta);
        const double inverse = exact->DeltaForError(error);
        EXPECT_NEAR(exact->ExpectedError(inverse), error, 1e-12 * error);
        if (convex) {
          EXPECT_NEAR(inverse, delta, 1e-9 * delta);
        }
      }
    }
  }
}

// The table is computed with plain loops, so it does not depend on which
// kernels the process dispatches to.
TEST_F(ExactGaussianTransformTest, SameBitsAtEverySimdLevel) {
  const Classifier& c = classifiers_->front();
  EmpiricalErrorTransform::BuildOptions options;
  options.delta_min = 0.005;
  options.delta_max = 1.0;
  for (const auto& loss : MarginLosses()) {
    SCOPED_TRACE(loss->name());
    ASSERT_TRUE(linalg::kernels::ForceLevelForTesting(SimdLevel::kScalar));
    const std::vector<double> scalar =
        EmpiricalErrorTransform::BuildExactGaussian(c.optimal, *loss, c.test,
                                                    options)
            ->error_grid();
    if (!linalg::kernels::ForceLevelForTesting(SimdLevel::kAvx2Fma)) {
      GTEST_SKIP() << "no AVX2+FMA on this build or CPU";
    }
    EXPECT_EQ(EmpiricalErrorTransform::BuildExactGaussian(c.optimal, *loss,
                                                          c.test, options)
                  ->error_grid(),
              scalar);
  }
}

// NaN compares false with every table entry, so the inverse's search
// would run off the end of the table; it returns NaN instead.
TEST_F(ExactGaussianTransformTest, DeltaForNanErrorIsNan) {
  const Classifier& c = classifiers_->front();
  auto exact = EmpiricalErrorTransform::BuildExactGaussian(
      c.optimal, ml::ZeroOneLoss(), c.test, {});
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_TRUE(std::isnan(
      exact->DeltaForError(std::numeric_limits<double>::quiet_NaN())));
}

TEST_F(ExactGaussianTransformTest, RejectsSquareLossAndRegressionData) {
  const Classifier& c = classifiers_->front();
  EXPECT_EQ(EmpiricalErrorTransform::BuildExactGaussian(
                c.optimal, ml::SquareLoss(0.0), c.test, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  data::Simulated1Options regression;
  regression.num_examples = 50;
  regression.num_features = c.optimal.size();
  EXPECT_EQ(EmpiricalErrorTransform::BuildExactGaussian(
                c.optimal, ml::ZeroOneLoss(),
                data::GenerateSimulated1(regression).value(), {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EmpiricalErrorTransform::BuildExactGaussian(
                linalg::Vector(2), ml::ZeroOneLoss(), c.test, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A NaN or infinite δ bound would make a NaN or infinite grid; both
// factories refuse it.
TEST_F(ExactGaussianTransformTest, BothFactoriesRejectNonFiniteDeltaBounds) {
  const Classifier& c = classifiers_->front();
  GaussianMechanism mechanism;
  const ml::ZeroOneLoss loss;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> bounds[] = {
      {0.01, nan}, {0.01, inf}, {nan, 1.0}, {inf, 1.0}, {-inf, 1.0}};
  for (const auto& [delta_min, delta_max] : bounds) {
    SCOPED_TRACE(std::to_string(delta_min) + ", " + std::to_string(delta_max));
    EmpiricalErrorTransform::BuildOptions options;
    options.delta_min = delta_min;
    options.delta_max = delta_max;
    options.trials_per_delta = 10;
    EXPECT_EQ(EmpiricalErrorTransform::Build(mechanism, c.optimal, loss,
                                             c.test, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EmpiricalErrorTransform::BuildExactGaussian(c.optimal, loss,
                                                          c.test, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace mbp::core
