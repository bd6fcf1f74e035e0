#include "ml/sufficient_stats.h"

#include "linalg/cholesky.h"
#include "linalg/vector_ops.h"

namespace mbp::ml {

SufficientStats SufficientStats::Build(const data::Dataset& dataset,
                                       const ParallelConfig& parallel) {
  SufficientStats stats;
  stats.gram = linalg::GramMatrix(dataset.features(), parallel);
  stats.xty = linalg::MatTVec(dataset.features(), dataset.targets(), parallel);
  stats.yty = linalg::Dot(dataset.targets(), dataset.targets());
  stats.n = dataset.num_examples();
  return stats;
}

SufficientStats SufficientStats::Downdate(
    const data::Dataset& full, const std::vector<size_t>& removed) const {
  const size_t d = gram.rows();
  MBP_CHECK_EQ(d, full.num_features());
  MBP_CHECK_EQ(n, full.num_examples());

  // Accumulate the removed block's statistics first, then subtract once:
  // each Gram entry pays a single cancellation instead of |removed| of them.
  linalg::Matrix block_gram(d, d);
  linalg::Vector block_xty(d);
  double block_yty = 0.0;
  for (const size_t r : removed) {
    MBP_CHECK_LT(r, full.num_examples());
    const double* x = full.ExampleFeatures(r);
    const double y = full.Target(r);
    for (size_t i = 0; i < d; ++i) {
      double* row = block_gram.RowData(i);
      const double xi = x[i];
      for (size_t j = 0; j <= i; ++j) row[j] += xi * x[j];
      block_xty[i] += y * xi;
    }
    block_yty += y * y;
  }

  SufficientStats out;
  out.gram = linalg::Matrix(d, d);
  out.xty = linalg::Vector(d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      const double v = gram(i, j) - block_gram(i, j);
      out.gram(i, j) = v;
      out.gram(j, i) = v;
    }
    out.xty[i] = xty[i] - block_xty[i];
  }
  out.yty = yty - block_yty;
  out.n = n - removed.size();
  return out;
}

namespace {

// The regularized normal-equation matrix gram / n + 2 l2 I, exactly as
// TrainLinearRegression forms it (same per-entry divide, same diagonal add).
linalg::Matrix NormalMatrix(const SufficientStats& stats, double l2) {
  const double n = static_cast<double>(stats.n);
  linalg::Matrix normal = stats.gram;
  for (size_t i = 0; i < normal.rows(); ++i) {
    for (size_t j = 0; j < normal.cols(); ++j) normal(i, j) /= n;
    normal(i, i) += 2.0 * l2;
  }
  return normal;
}

linalg::Vector NormalRhs(const SufficientStats& stats) {
  linalg::Vector rhs = stats.xty;
  linalg::Scale(1.0 / static_cast<double>(stats.n), rhs.data(), rhs.size());
  return rhs;
}

}  // namespace

StatusOr<linalg::Vector> SolveNormalEquations(const SufficientStats& stats,
                                              double l2) {
  auto factored = linalg::Cholesky::Factorize(NormalMatrix(stats, l2));
  if (!factored.ok()) {
    return FailedPreconditionError(
        "normal equations are singular; add L2 regularization (" +
        factored.status().ToString() + ")");
  }
  return factored.value().Solve(NormalRhs(stats));
}

double SquareLossFromStats(const SufficientStats& stats,
                           const linalg::Vector& h, double l2) {
  const size_t d = stats.gram.rows();
  MBP_CHECK_EQ(h.size(), d);
  double hGh = 0.0;
  for (size_t i = 0; i < d; ++i) {
    hGh += h[i] * linalg::Dot(stats.gram.RowData(i), h.data(), d);
  }
  const double residual_sq =
      stats.yty - 2.0 * linalg::Dot(h, stats.xty) + hGh;
  return residual_sq / (2.0 * static_cast<double>(stats.n)) +
         l2 * linalg::Dot(h, h);
}

}  // namespace mbp::ml
