#ifndef MBP_ML_LOSS_H_
#define MBP_ML_LOSS_H_

#include <memory>
#include <string>

#include "data/dataset.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mbp::ml {

// Identifiers for the error functions of the paper's Table 2.
enum class LossKind {
  kSquare,         // least squares (regression), optionally L2-regularized
  kLogistic,       // logistic loss (classification), optionally L2
  kSmoothedHinge,  // smoothed L2-SVM hinge loss
  kZeroOne,        // misclassification rate (evaluation only)
};

std::string LossKindToString(LossKind kind);

// An error function λ or ε from the paper: maps a hypothesis h (a linear
// model's coefficient vector) and a dataset to a non-negative average loss.
//
// Hypotheses are vectors in R^d where d is the dataset's feature count, per
// the paper's fixed-hypothesis-space setting (Section 3.4). All losses are
// averaged over the examples. The L2 penalty, when present, adds
// l2 * ||h||^2 exactly as in Table 2.
class Loss {
 public:
  virtual ~Loss() = default;

  virtual std::string name() const = 0;
  virtual LossKind kind() const = 0;

  // Whether Gradient()/Hessian() are implemented.
  virtual bool differentiable() const = 0;

  // Whether the loss is strictly convex in h. (True for square loss with
  // full-rank data, and for logistic/hinge whenever l2 > 0; the error
  // transformation theory of Theorem 4 requires this for invertibility.)
  virtual bool strictly_convex() const = 0;

  // Average loss of hypothesis h on `data`. Requires
  // h.size() == data.num_features().
  virtual double Evaluate(const linalg::Vector& h,
                          const data::Dataset& data) const = 0;

  // Evaluate() for k <= linalg::kernels::kBlockLanes models at once, the
  // Monte-Carlo error sweep's path: `models` is a d x kBlockLanes
  // row-major block (d = data.num_features()) whose column t is model t,
  // and out[t] receives Evaluate(model t, data) for t < k. The margin
  // losses score the block with the dispatched score_block kernel, whose
  // per-score chain differs from Evaluate's dot only in rounding, and
  // fold each score into its model's sum in example order, as Evaluate
  // does. Checked programming error for losses without a block path
  // (square loss; the sweep scores it from sufficient statistics).
  virtual void EvaluateBlock(const double* models, size_t k,
                             const data::Dataset& data, double* out) const;

  // Gradient of Evaluate w.r.t. h. Checked programming error if
  // !differentiable().
  virtual linalg::Vector Gradient(const linalg::Vector& h,
                                  const data::Dataset& data) const;

  // Hessian of Evaluate w.r.t. h (d x d). Checked programming error if
  // !differentiable().
  virtual linalg::Matrix Hessian(const linalg::Vector& h,
                                 const data::Dataset& data) const;

  // Adds `weight` times the gradient of the UNREGULARIZED per-example
  // loss at (x, y) into `grad` (x has h.size() entries). The mini-batch
  // SGD trainer builds stochastic gradients from this without copying
  // rows. Checked programming error if !differentiable().
  virtual void AccumulateExampleGradient(const linalg::Vector& h,
                                         const double* x, double y,
                                         double weight,
                                         linalg::Vector& grad) const;

  double l2_regularization() const { return l2_; }

 protected:
  explicit Loss(double l2) : l2_(l2) {}

  double l2_;
};

// (1/2n) sum_i (y_i - h.x_i)^2 + l2 * ||h||^2.
class SquareLoss final : public Loss {
 public:
  explicit SquareLoss(double l2 = 0.0) : Loss(l2) {}

  std::string name() const override { return "square"; }
  LossKind kind() const override { return LossKind::kSquare; }
  bool differentiable() const override { return true; }
  bool strictly_convex() const override { return true; }

  double Evaluate(const linalg::Vector& h,
                  const data::Dataset& data) const override;
  linalg::Vector Gradient(const linalg::Vector& h,
                          const data::Dataset& data) const override;
  linalg::Matrix Hessian(const linalg::Vector& h,
                         const data::Dataset& data) const override;
  void AccumulateExampleGradient(const linalg::Vector& h, const double* x,
                                 double y, double weight,
                                 linalg::Vector& grad) const override;
};

// (1/n) sum_i log(1 + exp(-y_i h.x_i)) + l2 * ||h||^2, labels in {-1,+1}.
class LogisticLoss final : public Loss {
 public:
  explicit LogisticLoss(double l2 = 0.0) : Loss(l2) {}

  std::string name() const override { return "logistic"; }
  LossKind kind() const override { return LossKind::kLogistic; }
  bool differentiable() const override { return true; }
  bool strictly_convex() const override { return l2_ > 0.0; }

  double Evaluate(const linalg::Vector& h,
                  const data::Dataset& data) const override;
  void EvaluateBlock(const double* models, size_t k,
                     const data::Dataset& data, double* out) const override;
  linalg::Vector Gradient(const linalg::Vector& h,
                          const data::Dataset& data) const override;
  linalg::Matrix Hessian(const linalg::Vector& h,
                         const data::Dataset& data) const override;
  void AccumulateExampleGradient(const linalg::Vector& h, const double* x,
                                 double y, double weight,
                                 linalg::Vector& grad) const override;
};

// Quadratically smoothed hinge (the differentiable surrogate for the L2
// linear SVM of Table 2): per-example loss on margin m = y_i h.x_i is
//   0                      if m >= 1
//   (1 - m)^2 / (2*gamma)  if 1 - gamma < m < 1
//   1 - m - gamma/2        if m <= 1 - gamma
// averaged, plus l2 * ||h||^2.
class SmoothedHingeLoss final : public Loss {
 public:
  explicit SmoothedHingeLoss(double l2 = 0.0, double gamma = 1.0);

  std::string name() const override { return "smoothed_hinge"; }
  LossKind kind() const override { return LossKind::kSmoothedHinge; }
  bool differentiable() const override { return true; }
  bool strictly_convex() const override { return l2_ > 0.0; }

  double Evaluate(const linalg::Vector& h,
                  const data::Dataset& data) const override;
  void EvaluateBlock(const double* models, size_t k,
                     const data::Dataset& data, double* out) const override;
  linalg::Vector Gradient(const linalg::Vector& h,
                          const data::Dataset& data) const override;
  void AccumulateExampleGradient(const linalg::Vector& h, const double* x,
                                 double y, double weight,
                                 linalg::Vector& grad) const override;

  double gamma() const { return gamma_; }

 private:
  double gamma_;
};

// (1/n) sum_i 1[sign(h.x_i) != y_i]. Evaluation-only (not differentiable,
// not convex); the paper uses it as a buyer-facing ε for classifiers.
class ZeroOneLoss final : public Loss {
 public:
  ZeroOneLoss() : Loss(0.0) {}

  std::string name() const override { return "zero_one"; }
  LossKind kind() const override { return LossKind::kZeroOne; }
  bool differentiable() const override { return false; }
  bool strictly_convex() const override { return false; }

  double Evaluate(const linalg::Vector& h,
                  const data::Dataset& data) const override;
  void EvaluateBlock(const double* models, size_t k,
                     const data::Dataset& data, double* out) const override;
};

// Numerically stable log(1 + exp(z)): the logistic loss at margin -z.
double Log1pExp(double z);

// Factory keyed by LossKind. `l2` is ignored for kZeroOne.
std::unique_ptr<Loss> MakeLoss(LossKind kind, double l2 = 0.0);

}  // namespace mbp::ml

#endif  // MBP_ML_LOSS_H_
