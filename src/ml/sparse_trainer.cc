#include "ml/sparse_trainer.h"

#include <cmath>
#include <functional>

#include "linalg/vector_ops.h"
#include "ml/loss.h"

namespace mbp::ml {
namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// Objective/gradient pair over sparse data; both cost O(nnz).
struct SparseObjective {
  std::function<double(const linalg::Vector&)> value;
  std::function<linalg::Vector(const linalg::Vector&)> gradient;
};

SparseObjective LogisticObjective(const data::SparseDataset& train,
                                  double l2) {
  const size_t n = train.num_examples();
  SparseObjective objective;
  objective.value = [&train, l2, n](const linalg::Vector& h) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double margin =
          train.Target(i) * train.features().RowDot(i, h);
      total += Log1pExp(-margin);
    }
    return total / static_cast<double>(n) + l2 * linalg::SquaredNorm2(h);
  };
  objective.gradient = [&train, l2, n](const linalg::Vector& h) {
    // weights_i = -y_i * sigmoid(-y_i h.x_i) / n; grad = X^T weights + 2*l2*h.
    linalg::Vector weights(n);
    for (size_t i = 0; i < n; ++i) {
      const double y = train.Target(i);
      const double margin = y * train.features().RowDot(i, h);
      weights[i] = -y * Sigmoid(-margin) / static_cast<double>(n);
    }
    linalg::Vector grad = train.features().TransposeMultiply(weights);
    linalg::Axpy(2.0 * l2, h.data(), grad.data(), grad.size());
    return grad;
  };
  return objective;
}

SparseObjective HingeObjective(const data::SparseDataset& train, double l2,
                               double gamma) {
  const size_t n = train.num_examples();
  SparseObjective objective;
  objective.value = [&train, l2, gamma, n](const linalg::Vector& h) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double margin =
          train.Target(i) * train.features().RowDot(i, h);
      if (margin >= 1.0) continue;
      const double gap = 1.0 - margin;
      total += gap < gamma ? gap * gap / (2.0 * gamma) : gap - gamma / 2.0;
    }
    return total / static_cast<double>(n) + l2 * linalg::SquaredNorm2(h);
  };
  objective.gradient = [&train, l2, gamma, n](const linalg::Vector& h) {
    linalg::Vector weights(n);
    for (size_t i = 0; i < n; ++i) {
      const double y = train.Target(i);
      const double margin = y * train.features().RowDot(i, h);
      if (margin >= 1.0) continue;
      const double gap = 1.0 - margin;
      const double slope = gap < gamma ? gap / gamma : 1.0;
      weights[i] = -y * slope / static_cast<double>(n);
    }
    linalg::Vector grad = train.features().TransposeMultiply(weights);
    linalg::Axpy(2.0 * l2, h.data(), grad.data(), grad.size());
    return grad;
  };
  return objective;
}

StatusOr<TrainResult> MinimizeSparse(const SparseObjective& objective,
                                     size_t dim, ModelKind kind,
                                     const TrainOptions& options) {
  constexpr double kArmijoC = 1e-4;
  constexpr double kShrink = 0.5;
  constexpr int kMaxBacktracks = 50;

  linalg::Vector h(dim);
  double current = objective.value(h);
  size_t iteration = 0;
  bool converged = false;
  for (; iteration < options.max_iterations; ++iteration) {
    const linalg::Vector gradient = objective.gradient(h);
    if (linalg::NormInf(gradient) < options.gradient_tolerance) {
      converged = true;
      break;
    }
    const double directional = -linalg::SquaredNorm2(gradient);
    double step = options.initial_step;
    bool accepted = false;
    for (int backtrack = 0; backtrack < kMaxBacktracks; ++backtrack) {
      const linalg::Vector candidate =
          linalg::AddScaled(h, -step, gradient);
      const double value = objective.value(candidate);
      if (value <= current + kArmijoC * step * directional) {
        h = candidate;
        current = value;
        accepted = true;
        break;
      }
      step *= kShrink;
    }
    if (!accepted) break;  // numerical floor
  }
  return TrainResult{.model = LinearModel(kind, std::move(h)),
                     .final_loss = current,
                     .iterations = iteration,
                     .converged = converged};
}

Status ValidateSparseTrain(const data::SparseDataset& train) {
  if (train.task() != data::TaskType::kBinaryClassification) {
    return InvalidArgumentError(
        "sparse trainers support classification datasets");
  }
  return Status::OK();
}

}  // namespace

StatusOr<TrainResult> TrainLogisticSparse(const data::SparseDataset& train,
                                          double l2,
                                          const TrainOptions& options) {
  MBP_RETURN_IF_ERROR(ValidateSparseTrain(train));
  return MinimizeSparse(LogisticObjective(train, l2),
                        train.num_features(),
                        ModelKind::kLogisticRegression, options);
}

StatusOr<TrainResult> TrainSvmSparse(const data::SparseDataset& train,
                                     double l2,
                                     const TrainOptions& options) {
  MBP_RETURN_IF_ERROR(ValidateSparseTrain(train));
  return MinimizeSparse(HingeObjective(train, l2, 1.0),
                        train.num_features(), ModelKind::kLinearSvm,
                        options);
}

double SparseLogisticLoss(const linalg::Vector& h,
                          const data::SparseDataset& data, double l2) {
  return LogisticObjective(data, l2).value(h);
}

double SparseMisclassificationRate(const linalg::Vector& h,
                                   const data::SparseDataset& data) {
  size_t errors = 0;
  for (size_t i = 0; i < data.num_examples(); ++i) {
    const double score = data.features().RowDot(i, h);
    const double predicted = score > 0.0 ? 1.0 : -1.0;
    if (predicted != data.Target(i)) ++errors;
  }
  return static_cast<double>(errors) /
         static_cast<double>(data.num_examples());
}

}  // namespace mbp::ml
