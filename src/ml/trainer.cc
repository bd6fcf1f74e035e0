#include "ml/trainer.h"

#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace mbp::ml {
namespace {

// Armijo sufficient-decrease backtracking along `direction` from h.
// Returns the accepted step (possibly 0 when no decrease is found).
double BacktrackingStep(const Loss& loss, const data::Dataset& train,
                        const linalg::Vector& h, double current_loss,
                        const linalg::Vector& gradient,
                        const linalg::Vector& direction,
                        double initial_step) {
  constexpr double kArmijoC = 1e-4;
  constexpr double kShrink = 0.5;
  constexpr int kMaxBacktracks = 50;
  const double directional_derivative = linalg::Dot(gradient, direction);
  double step = initial_step;
  for (int i = 0; i < kMaxBacktracks; ++i) {
    const linalg::Vector candidate = linalg::AddScaled(h, step, direction);
    const double candidate_loss = loss.Evaluate(candidate, train);
    if (candidate_loss <=
        current_loss + kArmijoC * step * directional_derivative) {
      return step;
    }
    step *= kShrink;
  }
  return 0.0;
}

Status ValidateTrainInputs(const Loss& loss, const data::Dataset& train) {
  if (!loss.differentiable()) {
    return InvalidArgumentError("training requires a differentiable loss");
  }
  if (train.num_examples() == 0) {
    return InvalidArgumentError("empty training set");
  }
  return Status::OK();
}

}  // namespace

LossKind TrainingLossKind(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLinearRegression:
      return LossKind::kSquare;
    case ModelKind::kLogisticRegression:
      return LossKind::kLogistic;
    case ModelKind::kLinearSvm:
      return LossKind::kSmoothedHinge;
  }
  MBP_CHECK(false) << "unknown ModelKind";
  return LossKind::kSquare;
}

StatusOr<TrainResult> TrainLinearRegression(const data::Dataset& train,
                                            double l2) {
  if (train.task() != data::TaskType::kRegression) {
    return InvalidArgumentError(
        "linear regression requires a regression dataset");
  }
  auto solved = SolveNormalEquations(SufficientStats::Build(train), l2);
  if (!solved.ok()) return solved.status();
  LinearModel model(ModelKind::kLinearRegression, std::move(solved).value());
  const SquareLoss loss(l2);
  TrainResult result{.model = std::move(model),
                     .final_loss = 0.0,
                     .iterations = 1,
                     .converged = true};
  result.final_loss = loss.Evaluate(result.model.coefficients(), train);
  return result;
}

StatusOr<TrainResult> TrainLinearRegressionFromStats(
    const SufficientStats& stats, double l2) {
  if (stats.n == 0) {
    return InvalidArgumentError("empty sufficient statistics");
  }
  auto solved = SolveNormalEquations(stats, l2);
  if (!solved.ok()) return solved.status();
  LinearModel model(ModelKind::kLinearRegression, std::move(solved).value());
  TrainResult result{.model = std::move(model),
                     .final_loss = 0.0,
                     .iterations = 1,
                     .converged = true};
  result.final_loss =
      SquareLossFromStats(stats, result.model.coefficients(), l2);
  return result;
}

StatusOr<TrainResult> TrainGradientDescent(const Loss& loss,
                                           const data::Dataset& train,
                                           ModelKind kind,
                                           const TrainOptions& options) {
  MBP_RETURN_IF_ERROR(ValidateTrainInputs(loss, train));
  linalg::Vector h(train.num_features());
  double current_loss = loss.Evaluate(h, train);
  size_t iteration = 0;
  bool converged = false;
  for (; iteration < options.max_iterations; ++iteration) {
    const linalg::Vector gradient = loss.Gradient(h, train);
    if (linalg::NormInf(gradient) < options.gradient_tolerance) {
      converged = true;
      break;
    }
    const linalg::Vector direction = linalg::Scaled(gradient, -1.0);
    const double step =
        BacktrackingStep(loss, train, h, current_loss, gradient, direction,
                         options.initial_step);
    if (step == 0.0) break;  // line search failed; we are at numerical floor
    h = linalg::AddScaled(h, step, direction);
    current_loss = loss.Evaluate(h, train);
  }
  return TrainResult{.model = LinearModel(kind, std::move(h)),
                     .final_loss = current_loss,
                     .iterations = iteration,
                     .converged = converged};
}

StatusOr<TrainResult> TrainNewton(const Loss& loss,
                                  const data::Dataset& train, ModelKind kind,
                                  const TrainOptions& options) {
  MBP_RETURN_IF_ERROR(ValidateTrainInputs(loss, train));
  linalg::Vector h(train.num_features());
  double current_loss = loss.Evaluate(h, train);
  size_t iteration = 0;
  bool converged = false;
  for (; iteration < options.max_iterations; ++iteration) {
    const linalg::Vector gradient = loss.Gradient(h, train);
    if (linalg::NormInf(gradient) < options.gradient_tolerance) {
      converged = true;
      break;
    }
    const linalg::Matrix hessian = loss.Hessian(h, train);
    const linalg::Vector neg_gradient = linalg::Scaled(gradient, -1.0);
    // Small diagonal jitter keeps the solve stable near-singular Hessians;
    // on failure fall back to plain gradient descent for this step.
    auto newton = linalg::SolveSpd(hessian, neg_gradient, 1e-10);
    const linalg::Vector direction =
        newton.ok() ? std::move(newton).value() : neg_gradient;
    const double step = BacktrackingStep(loss, train, h, current_loss,
                                         gradient, direction, 1.0);
    if (step == 0.0) break;
    h = linalg::AddScaled(h, step, direction);
    current_loss = loss.Evaluate(h, train);
  }
  return TrainResult{.model = LinearModel(kind, std::move(h)),
                     .final_loss = current_loss,
                     .iterations = iteration,
                     .converged = converged};
}

StatusOr<TrainResult> TrainOptimalModel(ModelKind kind,
                                        const data::Dataset& train,
                                        double l2,
                                        const TrainOptions& options) {
  switch (kind) {
    case ModelKind::kLinearRegression:
      return TrainLinearRegression(train, l2);
    case ModelKind::kLogisticRegression: {
      if (train.task() != data::TaskType::kBinaryClassification) {
        return InvalidArgumentError(
            "logistic regression requires a classification dataset");
      }
      const LogisticLoss loss(l2);
      return TrainNewton(loss, train, kind, options);
    }
    case ModelKind::kLinearSvm: {
      if (train.task() != data::TaskType::kBinaryClassification) {
        return InvalidArgumentError(
            "linear SVM requires a classification dataset");
      }
      const SmoothedHingeLoss loss(l2);
      return TrainGradientDescent(loss, train, kind, options);
    }
  }
  return InvalidArgumentError("unknown model kind");
}

}  // namespace mbp::ml
