#include "ml/loss.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/kernels.h"
#include "linalg/vector_ops.h"

namespace mbp::ml {

double Log1pExp(double z) {
  if (z > 35.0) return z;
  if (z < -35.0) return std::exp(z);
  return std::log1p(std::exp(z));
}

namespace {

// Stable logistic sigmoid 1 / (1 + exp(-z)).
double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

using linalg::kernels::kBlockLanes;

// Examples per score_block call (a multiple of the AVX2 kernel's 3-row
// register tile). One tile's scores (6 KiB) are folded into the per-model
// sums before the next tile is scored, so the block path never holds an
// n x kBlockLanes score matrix.
constexpr size_t kTileRows = 12;

// sums[t] = the sum, over the examples in order, of
// per_example(x_i . h_t, y_i) for the k model columns h_t of `models` —
// Evaluate's loop, 64 models at a time.
template <typename PerExample>
void SumBlockScores(const double* models, size_t k, const data::Dataset& data,
                    PerExample per_example, double* sums) {
  MBP_CHECK_LE(k, kBlockLanes);
  const auto score_block = linalg::kernels::Active().score_block;
  const size_t n = data.num_examples();
  const size_t d = data.num_features();
  double scores[kTileRows * kBlockLanes];
  std::fill(sums, sums + k, 0.0);
  for (size_t i = 0; i < n; i += kTileRows) {
    const size_t rows = std::min(kTileRows, n - i);
    score_block(data.ExampleFeatures(i), d, rows, d, models, k, scores);
    for (size_t r = 0; r < rows; ++r) {
      const double y = data.Target(i + r);
      const double* s = scores + r * kBlockLanes;
      for (size_t t = 0; t < k; ++t) sums[t] += per_example(s[t], y);
    }
  }
}

// out[t] = sums[t] / n + l2 * ||h_t||^2, Evaluate's closing expression.
void AverageAndPenalize(const double* sums, const double* models, size_t k,
                        const data::Dataset& data, double l2, double* out) {
  const size_t d = data.num_features();
  const double n = static_cast<double>(data.num_examples());
  linalg::Vector column(d);
  for (size_t t = 0; t < k; ++t) {
    for (size_t j = 0; j < d; ++j) {
      column.data()[j] = models[j * kBlockLanes + t];
    }
    out[t] = sums[t] / n + l2 * linalg::SquaredNorm2(column);
  }
}

}  // namespace

std::string LossKindToString(LossKind kind) {
  switch (kind) {
    case LossKind::kSquare:
      return "square";
    case LossKind::kLogistic:
      return "logistic";
    case LossKind::kSmoothedHinge:
      return "smoothed_hinge";
    case LossKind::kZeroOne:
      return "zero_one";
  }
  return "unknown";
}

linalg::Vector Loss::Gradient(const linalg::Vector&,
                              const data::Dataset&) const {
  MBP_CHECK(false) << "Gradient() called on non-differentiable loss "
                   << name();
  return linalg::Vector();
}

linalg::Matrix Loss::Hessian(const linalg::Vector&,
                             const data::Dataset&) const {
  MBP_CHECK(false) << "Hessian() not implemented for loss " << name();
  return linalg::Matrix();
}

void Loss::EvaluateBlock(const double*, size_t, const data::Dataset&,
                         double*) const {
  MBP_CHECK(false) << "EvaluateBlock() not implemented for loss " << name();
}

void Loss::AccumulateExampleGradient(const linalg::Vector&, const double*,
                                     double, double,
                                     linalg::Vector&) const {
  MBP_CHECK(false)
      << "AccumulateExampleGradient() called on non-differentiable loss "
      << name();
}

// ---------------------------------------------------------------- Square

double SquareLoss::Evaluate(const linalg::Vector& h,
                            const data::Dataset& data) const {
  MBP_CHECK_EQ(h.size(), data.num_features());
  const size_t n = data.num_examples();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double residual =
        data.Target(i) -
        linalg::Dot(data.ExampleFeatures(i), h.data(), h.size());
    total += residual * residual;
  }
  return total / (2.0 * static_cast<double>(n)) +
         l2_ * linalg::SquaredNorm2(h);
}

linalg::Vector SquareLoss::Gradient(const linalg::Vector& h,
                                    const data::Dataset& data) const {
  MBP_CHECK_EQ(h.size(), data.num_features());
  const size_t n = data.num_examples();
  linalg::Vector grad(h.size());
  for (size_t i = 0; i < n; ++i) {
    const double* x = data.ExampleFeatures(i);
    const double residual =
        linalg::Dot(x, h.data(), h.size()) - data.Target(i);
    linalg::Axpy(residual, x, grad.data(), h.size());
  }
  linalg::Scale(1.0 / static_cast<double>(n), grad.data(), grad.size());
  linalg::Axpy(2.0 * l2_, h.data(), grad.data(), h.size());
  return grad;
}

linalg::Matrix SquareLoss::Hessian(const linalg::Vector& h,
                                   const data::Dataset& data) const {
  MBP_CHECK_EQ(h.size(), data.num_features());
  const size_t n = data.num_examples();
  linalg::Matrix hessian = linalg::GramMatrix(data.features());
  for (size_t i = 0; i < hessian.rows(); ++i) {
    for (size_t j = 0; j < hessian.cols(); ++j) {
      hessian(i, j) /= static_cast<double>(n);
    }
    hessian(i, i) += 2.0 * l2_;
  }
  return hessian;
}

void SquareLoss::AccumulateExampleGradient(const linalg::Vector& h,
                                           const double* x, double y,
                                           double weight,
                                           linalg::Vector& grad) const {
  // Per-example loss (h.x - y)^2 / 2; gradient (h.x - y) x.
  const double residual = linalg::Dot(x, h.data(), h.size()) - y;
  linalg::Axpy(weight * residual, x, grad.data(), h.size());
}

// -------------------------------------------------------------- Logistic

double LogisticLoss::Evaluate(const linalg::Vector& h,
                              const data::Dataset& data) const {
  MBP_CHECK_EQ(h.size(), data.num_features());
  const size_t n = data.num_examples();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double margin =
        data.Target(i) *
        linalg::Dot(data.ExampleFeatures(i), h.data(), h.size());
    total += Log1pExp(-margin);
  }
  return total / static_cast<double>(n) + l2_ * linalg::SquaredNorm2(h);
}

void LogisticLoss::EvaluateBlock(const double* models, size_t k,
                                 const data::Dataset& data,
                                 double* out) const {
  double sums[kBlockLanes];
  SumBlockScores(
      models, k, data,
      [](double score, double y) { return Log1pExp(-(y * score)); }, sums);
  AverageAndPenalize(sums, models, k, data, l2_, out);
}

linalg::Vector LogisticLoss::Gradient(const linalg::Vector& h,
                                      const data::Dataset& data) const {
  MBP_CHECK_EQ(h.size(), data.num_features());
  const size_t n = data.num_examples();
  linalg::Vector grad(h.size());
  for (size_t i = 0; i < n; ++i) {
    const double* x = data.ExampleFeatures(i);
    const double y = data.Target(i);
    const double margin = y * linalg::Dot(x, h.data(), h.size());
    // d/dh log(1+e^{-m}) = -y * sigmoid(-m) * x.
    linalg::Axpy(-y * Sigmoid(-margin), x, grad.data(), h.size());
  }
  linalg::Scale(1.0 / static_cast<double>(n), grad.data(), grad.size());
  linalg::Axpy(2.0 * l2_, h.data(), grad.data(), h.size());
  return grad;
}

linalg::Matrix LogisticLoss::Hessian(const linalg::Vector& h,
                                     const data::Dataset& data) const {
  MBP_CHECK_EQ(h.size(), data.num_features());
  const size_t n = data.num_examples();
  const size_t d = h.size();
  linalg::Matrix hessian(d, d);
  for (size_t i = 0; i < n; ++i) {
    const double* x = data.ExampleFeatures(i);
    const double margin =
        data.Target(i) * linalg::Dot(x, h.data(), d);
    const double p = Sigmoid(margin);
    const double weight = p * (1.0 - p) / static_cast<double>(n);
    if (weight == 0.0) continue;
    // Lower-triangle rank-1 update weight * x x^T.
    for (size_t a = 0; a < d; ++a) {
      const double wa = weight * x[a];
      if (wa == 0.0) continue;
      double* row = hessian.RowData(a);
      for (size_t b = 0; b <= a; ++b) row[b] += wa * x[b];
    }
  }
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b) hessian(a, b) = hessian(b, a);
    hessian(a, a) += 2.0 * l2_;
  }
  return hessian;
}

void LogisticLoss::AccumulateExampleGradient(const linalg::Vector& h,
                                             const double* x, double y,
                                             double weight,
                                             linalg::Vector& grad) const {
  const double margin = y * linalg::Dot(x, h.data(), h.size());
  linalg::Axpy(-weight * y * Sigmoid(-margin), x, grad.data(), h.size());
}

// -------------------------------------------------------- Smoothed hinge

SmoothedHingeLoss::SmoothedHingeLoss(double l2, double gamma)
    : Loss(l2), gamma_(gamma) {
  MBP_CHECK_GT(gamma_, 0.0);
}

double SmoothedHingeLoss::Evaluate(const linalg::Vector& h,
                                   const data::Dataset& data) const {
  MBP_CHECK_EQ(h.size(), data.num_features());
  const size_t n = data.num_examples();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double margin =
        data.Target(i) *
        linalg::Dot(data.ExampleFeatures(i), h.data(), h.size());
    if (margin >= 1.0) continue;
    const double gap = 1.0 - margin;
    if (gap < gamma_) {
      total += gap * gap / (2.0 * gamma_);
    } else {
      total += gap - gamma_ / 2.0;
    }
  }
  return total / static_cast<double>(n) + l2_ * linalg::SquaredNorm2(h);
}

void SmoothedHingeLoss::EvaluateBlock(const double* models, size_t k,
                                      const data::Dataset& data,
                                      double* out) const {
  double sums[kBlockLanes];
  SumBlockScores(
      models, k, data,
      [gamma = gamma_](double score, double y) {
        const double margin = y * score;
        if (margin >= 1.0) return 0.0;
        const double gap = 1.0 - margin;
        return gap < gamma ? gap * gap / (2.0 * gamma) : gap - gamma / 2.0;
      },
      sums);
  AverageAndPenalize(sums, models, k, data, l2_, out);
}

linalg::Vector SmoothedHingeLoss::Gradient(const linalg::Vector& h,
                                           const data::Dataset& data) const {
  MBP_CHECK_EQ(h.size(), data.num_features());
  const size_t n = data.num_examples();
  linalg::Vector grad(h.size());
  for (size_t i = 0; i < n; ++i) {
    const double* x = data.ExampleFeatures(i);
    const double y = data.Target(i);
    const double margin = y * linalg::Dot(x, h.data(), h.size());
    if (margin >= 1.0) continue;
    const double gap = 1.0 - margin;
    const double slope = (gap < gamma_) ? gap / gamma_ : 1.0;
    linalg::Axpy(-y * slope, x, grad.data(), h.size());
  }
  linalg::Scale(1.0 / static_cast<double>(n), grad.data(), grad.size());
  linalg::Axpy(2.0 * l2_, h.data(), grad.data(), h.size());
  return grad;
}

void SmoothedHingeLoss::AccumulateExampleGradient(
    const linalg::Vector& h, const double* x, double y, double weight,
    linalg::Vector& grad) const {
  const double margin = y * linalg::Dot(x, h.data(), h.size());
  if (margin >= 1.0) return;
  const double gap = 1.0 - margin;
  const double slope = (gap < gamma_) ? gap / gamma_ : 1.0;
  linalg::Axpy(-weight * y * slope, x, grad.data(), h.size());
}

// --------------------------------------------------------------- 0/1

double ZeroOneLoss::Evaluate(const linalg::Vector& h,
                             const data::Dataset& data) const {
  MBP_CHECK_EQ(h.size(), data.num_features());
  const size_t n = data.num_examples();
  size_t errors = 0;
  for (size_t i = 0; i < n; ++i) {
    const double score =
        linalg::Dot(data.ExampleFeatures(i), h.data(), h.size());
    const double predicted = score > 0.0 ? 1.0 : -1.0;
    if (predicted != data.Target(i)) ++errors;
  }
  return static_cast<double>(errors) / static_cast<double>(n);
}

void ZeroOneLoss::EvaluateBlock(const double* models, size_t k,
                                const data::Dataset& data,
                                double* out) const {
  // Mistake counts are small integers, exact in a double sum, so the
  // average is bit-for-bit Evaluate's errors / n given the same signs.
  double sums[kBlockLanes];
  SumBlockScores(
      models, k, data,
      [](double score, double y) {
        return (score > 0.0 ? 1.0 : -1.0) != y ? 1.0 : 0.0;
      },
      sums);
  const double n = static_cast<double>(data.num_examples());
  for (size_t t = 0; t < k; ++t) out[t] = sums[t] / n;
}

std::unique_ptr<Loss> MakeLoss(LossKind kind, double l2) {
  switch (kind) {
    case LossKind::kSquare:
      return std::make_unique<SquareLoss>(l2);
    case LossKind::kLogistic:
      return std::make_unique<LogisticLoss>(l2);
    case LossKind::kSmoothedHinge:
      return std::make_unique<SmoothedHingeLoss>(l2);
    case LossKind::kZeroOne:
      return std::make_unique<ZeroOneLoss>();
  }
  MBP_CHECK(false) << "unknown LossKind";
  return nullptr;
}

}  // namespace mbp::ml
