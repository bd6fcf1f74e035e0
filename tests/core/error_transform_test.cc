#include "core/error_transform.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
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

}  // namespace
}  // namespace mbp::core
