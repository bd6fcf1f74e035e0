#include "ml/loss.h"

#include <cmath>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "linalg/kernels.h"
#include "linalg/vector_ops.h"
#include "random/distributions.h"
#include "random/rng.h"

namespace mbp::ml {
namespace {

data::Dataset TinyRegression() {
  linalg::Matrix features{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  linalg::Vector targets{1.0, 2.0, 3.0};
  return data::Dataset::Create(std::move(features), std::move(targets),
                               data::TaskType::kRegression)
      .value();
}

data::Dataset TinyClassification() {
  linalg::Matrix features{{1.0, 0.5}, {-1.0, 0.2}, {2.0, -1.0},
                          {-1.5, -0.3}};
  linalg::Vector targets{1.0, -1.0, 1.0, -1.0};
  return data::Dataset::Create(std::move(features), std::move(targets),
                               data::TaskType::kBinaryClassification)
      .value();
}

data::Dataset RandomClassification(size_t n, size_t d, uint64_t seed) {
  random::Rng rng(seed);
  linalg::Matrix features(n, d);
  linalg::Vector targets(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      features(i, j) = random::SampleStandardNormal(rng);
    }
    targets[i] = rng.NextDouble() < 0.5 ? -1.0 : 1.0;
  }
  return data::Dataset::Create(std::move(features), std::move(targets),
                               data::TaskType::kBinaryClassification)
      .value();
}

// ------------------------------------------------------------- values

TEST(SquareLossTest, ZeroAtPerfectFit) {
  // Targets realized by h = (1, 2): y = h.x exactly.
  const SquareLoss loss;
  EXPECT_NEAR(loss.Evaluate(linalg::Vector{1.0, 2.0}, TinyRegression()),
              0.0, 1e-15);
}

TEST(SquareLossTest, KnownValue) {
  // h = 0: residuals are the targets; loss = (1+4+9) / (2*3).
  const SquareLoss loss;
  EXPECT_NEAR(loss.Evaluate(linalg::Vector(2), TinyRegression()),
              14.0 / 6.0, 1e-12);
}

TEST(SquareLossTest, RegularizationAddsL2Term) {
  const SquareLoss plain(0.0);
  const SquareLoss regularized(0.5);
  const linalg::Vector h{1.0, 2.0};
  EXPECT_NEAR(regularized.Evaluate(h, TinyRegression()),
              plain.Evaluate(h, TinyRegression()) + 0.5 * 5.0, 1e-12);
}

TEST(LogisticLossTest, ZeroModelGivesLog2) {
  const LogisticLoss loss;
  EXPECT_NEAR(loss.Evaluate(linalg::Vector(2), TinyClassification()),
              std::log(2.0), 1e-12);
}

TEST(LogisticLossTest, ConfidentCorrectModelHasSmallLoss) {
  const LogisticLoss loss;
  // h aligned with the separable structure of TinyClassification.
  EXPECT_LT(loss.Evaluate(linalg::Vector{10.0, 0.0}, TinyClassification()),
            0.01);
}

TEST(SmoothedHingeTest, ZeroLossOutsideMargin) {
  const SmoothedHingeLoss loss(0.0, 1.0);
  EXPECT_NEAR(loss.Evaluate(linalg::Vector{100.0, 0.0},
                            TinyClassification()),
              0.0, 1e-12);
}

TEST(SmoothedHingeTest, LinearRegimeValue) {
  // One example x=(1), y=+1, h=-2: margin -2, gap 3 >= gamma=1
  // -> loss = 3 - 0.5 = 2.5.
  linalg::Matrix features{{1.0}};
  const data::Dataset one =
      data::Dataset::Create(std::move(features), linalg::Vector{1.0},
                            data::TaskType::kBinaryClassification)
          .value();
  const SmoothedHingeLoss loss(0.0, 1.0);
  EXPECT_NEAR(loss.Evaluate(linalg::Vector{-2.0}, one), 2.5, 1e-12);
}

TEST(SmoothedHingeTest, QuadraticRegimeValue) {
  // margin 0.5, gap 0.5 < gamma=1 -> loss = 0.25/2 = 0.125.
  linalg::Matrix features{{0.5}};
  const data::Dataset one =
      data::Dataset::Create(std::move(features), linalg::Vector{1.0},
                            data::TaskType::kBinaryClassification)
          .value();
  const SmoothedHingeLoss loss(0.0, 1.0);
  EXPECT_NEAR(loss.Evaluate(linalg::Vector{1.0}, one), 0.125, 1e-12);
}

TEST(ZeroOneLossTest, CountsMistakes) {
  const ZeroOneLoss loss;
  // h = (1, 0): predictions sign(x0): +,-,+,- -> all correct.
  EXPECT_DOUBLE_EQ(loss.Evaluate(linalg::Vector{1.0, 0.0},
                                 TinyClassification()),
                   0.0);
  // h = (-1, 0): all wrong.
  EXPECT_DOUBLE_EQ(loss.Evaluate(linalg::Vector{-1.0, 0.0},
                                 TinyClassification()),
                   1.0);
}

TEST(ZeroOneLossTest, IsNotDifferentiable) {
  const ZeroOneLoss loss;
  EXPECT_FALSE(loss.differentiable());
  EXPECT_FALSE(loss.strictly_convex());
}

TEST(LossDeathTest, GradientOnNonDifferentiableAborts) {
  const ZeroOneLoss loss;
  EXPECT_DEATH(
      { (void)loss.Gradient(linalg::Vector(2), TinyClassification()); },
      "non-differentiable");
}

TEST(LossFactoryTest, ProducesEveryKind) {
  EXPECT_EQ(MakeLoss(LossKind::kSquare, 0.1)->kind(), LossKind::kSquare);
  EXPECT_EQ(MakeLoss(LossKind::kLogistic)->kind(), LossKind::kLogistic);
  EXPECT_EQ(MakeLoss(LossKind::kSmoothedHinge)->kind(),
            LossKind::kSmoothedHinge);
  EXPECT_EQ(MakeLoss(LossKind::kZeroOne)->kind(), LossKind::kZeroOne);
  EXPECT_DOUBLE_EQ(MakeLoss(LossKind::kSquare, 0.25)->l2_regularization(),
                   0.25);
}

TEST(LossFactoryTest, NamesAreStable) {
  EXPECT_EQ(LossKindToString(LossKind::kSquare), "square");
  EXPECT_EQ(LossKindToString(LossKind::kZeroOne), "zero_one");
}

// ----------------------------------------------- finite-difference checks

struct GradientCase {
  LossKind kind;
  double l2;
};

// Names the instantiations by their fields (the default prints the raw
// bytes, padding included, so the test names would change per build).
void PrintTo(const GradientCase& param, std::ostream* os) {
  *os << LossKindToString(param.kind) << " l2=" << param.l2;
}

class GradientCheckTest : public ::testing::TestWithParam<GradientCase> {};

TEST_P(GradientCheckTest, GradientMatchesFiniteDifferences) {
  const GradientCase param = GetParam();
  const std::unique_ptr<Loss> loss = MakeLoss(param.kind, param.l2);
  const data::Dataset data = RandomClassification(60, 5, 123);
  random::Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const linalg::Vector h = random::SampleNormalVector(rng, 5, 0.0, 1.0);
    const linalg::Vector grad = loss->Gradient(h, data);
    const double eps = 1e-6;
    for (size_t j = 0; j < h.size(); ++j) {
      linalg::Vector plus = h, minus = h;
      plus[j] += eps;
      minus[j] -= eps;
      const double numeric =
          (loss->Evaluate(plus, data) - loss->Evaluate(minus, data)) /
          (2.0 * eps);
      EXPECT_NEAR(grad[j], numeric, 1e-5)
          << loss->name() << " coordinate " << j;
    }
  }
}

TEST_P(GradientCheckTest, LossIsConvexAlongRandomSegments) {
  const GradientCase param = GetParam();
  const std::unique_ptr<Loss> loss = MakeLoss(param.kind, param.l2);
  const data::Dataset data = RandomClassification(40, 4, 321);
  random::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const linalg::Vector a = random::SampleNormalVector(rng, 4, 0.0, 2.0);
    const linalg::Vector b = random::SampleNormalVector(rng, 4, 0.0, 2.0);
    const double t = rng.NextDouble();
    const linalg::Vector mid = linalg::AddScaled(
        linalg::Scaled(a, 1.0 - t), t, b);
    EXPECT_LE(loss->Evaluate(mid, data),
              (1.0 - t) * loss->Evaluate(a, data) +
                  t * loss->Evaluate(b, data) + 1e-9)
        << loss->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Losses, GradientCheckTest,
    ::testing::Values(GradientCase{LossKind::kSquare, 0.0},
                      GradientCase{LossKind::kSquare, 0.3},
                      GradientCase{LossKind::kLogistic, 0.0},
                      GradientCase{LossKind::kLogistic, 0.1},
                      GradientCase{LossKind::kSmoothedHinge, 0.0},
                      GradientCase{LossKind::kSmoothedHinge, 0.2}));

// Hessian checks for the Newton-capable losses.
class HessianCheckTest : public ::testing::TestWithParam<GradientCase> {};

TEST_P(HessianCheckTest, HessianMatchesGradientDifferences) {
  const GradientCase param = GetParam();
  const std::unique_ptr<Loss> loss = MakeLoss(param.kind, param.l2);
  const data::Dataset data = RandomClassification(50, 4, 55);
  random::Rng rng(3);
  const linalg::Vector h = random::SampleNormalVector(rng, 4, 0.0, 0.5);
  const linalg::Matrix hessian = loss->Hessian(h, data);
  const double eps = 1e-5;
  for (size_t j = 0; j < 4; ++j) {
    linalg::Vector plus = h, minus = h;
    plus[j] += eps;
    minus[j] -= eps;
    const linalg::Vector grad_diff = linalg::Scaled(
        linalg::Subtract(loss->Gradient(plus, data),
                         loss->Gradient(minus, data)),
        1.0 / (2.0 * eps));
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(hessian(i, j), grad_diff[i], 1e-4) << loss->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NewtonLosses, HessianCheckTest,
    ::testing::Values(GradientCase{LossKind::kSquare, 0.0},
                      GradientCase{LossKind::kSquare, 0.2},
                      GradientCase{LossKind::kLogistic, 0.0},
                      GradientCase{LossKind::kLogistic, 0.3}));

// ------------------------------------------------ block evaluation

// EvaluateBlock against Evaluate, model column by model column: the block
// path must return what the per-model loop would, for every block width
// (one lane, sub-vector, 63 and a full 64), feature counts on both sides of
// the kernel's register tile, an example count that leaves a partial row
// tile, and at every dispatch level.
TEST(LossBlockTest, EvaluateBlockMatchesEvaluatePerModel) {
  using linalg::kernels::kBlockLanes;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (linalg::kernels::Avx2Funcs() != nullptr) {
    levels.push_back(SimdLevel::kAvx2Fma);
  }
  const LogisticLoss logistic(0.05);
  const SmoothedHingeLoss hinge(0.05, 0.5);
  const ZeroOneLoss zero_one;
  const Loss* const losses[] = {&logistic, &hinge, &zero_one};
  for (SimdLevel level : levels) {
    ASSERT_TRUE(linalg::kernels::ForceLevelForTesting(level));
    for (size_t d : {5ul, 18ul, 54ul}) {
      const data::Dataset data = RandomClassification(37, d, 40 + d);
      random::Rng rng(7 * d);
      std::vector<double> block(d * kBlockLanes);
      for (double& v : block) v = random::SampleNormal(rng, 0.0, 0.7);
      for (size_t k : {1ul, 5ul, 63ul, 64ul}) {
        for (const Loss* loss : losses) {
          SCOPED_TRACE(loss->name() + " level " + SimdLevelName(level) +
                       " d " + std::to_string(d) + " k " +
                       std::to_string(k));
          double out[kBlockLanes];
          loss->EvaluateBlock(block.data(), k, data, out);
          for (size_t t = 0; t < k; ++t) {
            linalg::Vector model(d);
            for (size_t j = 0; j < d; ++j) {
              model[j] = block[j * kBlockLanes + t];
            }
            const double want = loss->Evaluate(model, data);
            if (loss->kind() == LossKind::kZeroOne) {
              EXPECT_EQ(out[t], want) << "model " << t;
            } else {
              EXPECT_NEAR(out[t], want, 1e-12 * std::abs(want))
                  << "model " << t;
            }
          }
        }
      }
    }
  }
  ASSERT_TRUE(linalg::kernels::ForceLevelForTesting(std::nullopt));
}

TEST(LossBlockTest, SquareLossHasNoBlockPath) {
  const SquareLoss loss;
  double block[2 * linalg::kernels::kBlockLanes] = {};
  double out[1];
  EXPECT_DEATH(loss.EvaluateBlock(block, 1, TinyRegression(), out),
               "EvaluateBlock");
}

TEST(LogisticLossTest, NumericallyStableAtExtremeMargins) {
  linalg::Matrix features{{1.0}};
  const data::Dataset one =
      data::Dataset::Create(std::move(features), linalg::Vector{1.0},
                            data::TaskType::kBinaryClassification)
          .value();
  const LogisticLoss loss;
  // Huge positive margin -> ~0 loss; huge negative margin -> ~|margin|.
  EXPECT_NEAR(loss.Evaluate(linalg::Vector{1000.0}, one), 0.0, 1e-12);
  EXPECT_NEAR(loss.Evaluate(linalg::Vector{-1000.0}, one), 1000.0, 1e-9);
  EXPECT_TRUE(std::isfinite(
      loss.Gradient(linalg::Vector{-1000.0}, one)[0]));
}

}  // namespace
}  // namespace mbp::ml
