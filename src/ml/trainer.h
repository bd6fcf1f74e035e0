#ifndef MBP_ML_TRAINER_H_
#define MBP_ML_TRAINER_H_

#include "common/statusor.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "ml/loss.h"
#include "ml/model.h"
#include "ml/sufficient_stats.h"

namespace mbp::ml {

// Convergence / iteration knobs shared by the iterative trainers.
struct TrainOptions {
  // Stop when the gradient's infinity norm drops below this.
  double gradient_tolerance = 1e-8;
  size_t max_iterations = 500;
  // Initial step size for backtracking line search (gradient descent only).
  double initial_step = 1.0;
};

// Summary of a completed optimization run.
struct TrainResult {
  LinearModel model;
  double final_loss = 0.0;
  size_t iterations = 0;
  bool converged = false;
};

// Exact minimizer of the (regularized) square loss via the normal equations
// (X^T X / n + 2*l2*I) h = X^T y / n, solved with a Cholesky factorization.
// Returns FailedPrecondition when the system is singular and l2 == 0.
//
// Builds the dataset's sufficient statistics (the O(n d^2) pass) for this
// call only and keeps nothing after it returns. A caller that retrains on
// one dataset many times builds SufficientStats once and calls
// TrainLinearRegressionFromStats instead; the coefficients are
// bit-identical.
StatusOr<TrainResult> TrainLinearRegression(const data::Dataset& train,
                                            double l2 = 0.0);

// TrainLinearRegression's solve + loss evaluation from precomputed
// sufficient statistics (e.g. a k-fold downdate), without a Dataset in
// hand. final_loss is the training square loss computed from the stats in
// O(d^2) (equal to SquareLoss::Evaluate up to rounding).
StatusOr<TrainResult> TrainLinearRegressionFromStats(
    const SufficientStats& stats, double l2 = 0.0);

// Full-batch gradient descent with backtracking (Armijo) line search on any
// differentiable loss. Robust default for the SVM's smoothed hinge.
StatusOr<TrainResult> TrainGradientDescent(const Loss& loss,
                                           const data::Dataset& train,
                                           ModelKind kind,
                                           const TrainOptions& options = {});

// Newton's method with Cholesky solves and Armijo damping; the fast path
// for logistic regression (d x d Hessians, d <= a few hundred). Falls back
// to a gradient step when the Hessian solve fails.
StatusOr<TrainResult> TrainNewton(const Loss& loss,
                                  const data::Dataset& train, ModelKind kind,
                                  const TrainOptions& options = {});

// Trains the optimal model instance h*_λ(D) for the given model family,
// dispatching to the most appropriate algorithm:
//   linear regression -> closed form; logistic -> Newton; SVM -> GD.
// `l2` is the coefficient of the ||h||^2 penalty in λ (Table 2).
StatusOr<TrainResult> TrainOptimalModel(ModelKind kind,
                                        const data::Dataset& train,
                                        double l2 = 0.0,
                                        const TrainOptions& options = {});

// The training loss λ that corresponds to each model family (Table 2).
LossKind TrainingLossKind(ModelKind kind);

}  // namespace mbp::ml

#endif  // MBP_ML_TRAINER_H_
