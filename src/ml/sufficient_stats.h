#ifndef MBP_ML_SUFFICIENT_STATS_H_
#define MBP_ML_SUFFICIENT_STATS_H_

#include <cstddef>
#include <vector>

#include "common/statusor.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mbp::ml {

// The sufficient statistics of least-squares training on a dataset
// (X, y): everything the closed-form trainer, the square loss, and the
// analytic error transform need, with the O(n d^2) pass over the examples
// paid exactly once. A plain value: a caller that reuses one dataset (the
// k-fold CV fold contexts across l2 candidates, the Monte-Carlo error
// transform across noise draws) builds it once and passes it down, so each
// retrain is an O(d^3) solve and each loss an O(d^2) evaluation instead of
// a fresh pass over the n examples. Nothing keeps these statistics alive
// beyond their owner.
struct SufficientStats {
  linalg::Matrix gram;  // X^T X (d x d)
  linalg::Vector xty;   // X^T y (d)
  double yty = 0.0;     // y^T y
  size_t n = 0;         // examples the stats were accumulated over

  // One pass over `dataset` with the dispatched SIMD kernels. Bit-identical
  // for any `parallel` (GramMatrix / MatTVec determinism contract).
  static SufficientStats Build(const data::Dataset& dataset,
                               const ParallelConfig& parallel = {});

  // Statistics of `full` (the dataset these stats were built from) with the
  // rows listed in `removed` taken out — the leave-fold-out rank-k
  // downdate used by k-fold cross-validation:
  //   gram' = gram - sum_r x_r x_r^T,  xty' = xty - sum_r y_r x_r.
  // The removed block's own statistics are accumulated first (in `removed`
  // order) and subtracted in one step, so each entry pays a single
  // cancellation. Cost O(|removed| d^2) against O((n - |removed|) d^2) for
  // rebuilding from scratch.
  SufficientStats Downdate(const data::Dataset& full,
                           const std::vector<size_t>& removed) const;
};

// Solves the regularized normal equations
//   (gram / n + 2 l2 I) h = xty / n
// — the system TrainLinearRegression poses — from precomputed statistics.
// FailedPrecondition when the system is not positive definite (singular
// Gram with l2 == 0).
StatusOr<linalg::Vector> SolveNormalEquations(const SufficientStats& stats,
                                              double l2);

// The square loss (1 / 2n) ||y - X h||^2 + l2 ||h||^2 evaluated from the
// statistics in O(d^2), via
//   ||y - X h||^2 = y^T y - 2 h . (X^T y) + h . (gram h).
// Equal to SquareLoss::Evaluate on the source dataset up to rounding (the
// expansion sums in a different order), NOT bitwise.
double SquareLossFromStats(const SufficientStats& stats,
                           const linalg::Vector& h, double l2);

}  // namespace mbp::ml

#endif  // MBP_ML_SUFFICIENT_STATS_H_
