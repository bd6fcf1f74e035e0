#ifndef MBP_CORE_ERROR_TRANSFORM_H_
#define MBP_CORE_ERROR_TRANSFORM_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "common/thread_pool.h"
#include "core/mechanism.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "ml/loss.h"

namespace mbp::core {

// A monotone map between the noise control parameter δ and the expected
// buyer-facing error E[ε(ĥ^δ_λ(D), D)] (Section 4.2 / Figure 2's "error
// curve transformation"). Both directions are exposed: the broker quotes
// expected error per δ, and the error-inverse ϕ turns a buyer error budget
// back into a δ (Theorem 6).
class ErrorTransform {
 public:
  virtual ~ErrorTransform() = default;

  // Expected error at the given NCP (delta >= 0).
  virtual double ExpectedError(double delta) const = 0;

  // The error-inverse ϕ: the δ whose expected error equals `error`.
  // Values outside the transform's error range clamp to the range ends.
  virtual double DeltaForError(double error) const = 0;

  // Error at δ = 0, i.e. the optimal instance's error.
  virtual double MinError() const = 0;
};

// Analytic transform for the model-space square loss
// ε_s(h, D) = ||h - h*||^2: Lemma 3 gives E[ε_s] = δ exactly, for every
// mechanism normalized as in mechanism.h.
class SquareLossTransform final : public ErrorTransform {
 public:
  double ExpectedError(double delta) const override { return delta; }
  double DeltaForError(double error) const override {
    return error < 0.0 ? 0.0 : error;
  }
  double MinError() const override { return 0.0; }
};

// Closed-form transform for the DATASET square loss
// ε(h, D) = (1/2n) Σ (y_i - h.x_i)^2 under any mechanism with isotropic
// noise covariance E[w w^T] = (δ/d) I (Gaussian, Laplace, uniform
// additive — all mechanisms here except the multiplicative one). Exact:
//   E[ε(h* + w, D)] = ε(h*, D) + δ * tr(X^T X) / (2 n d),
// because the cross term vanishes by unbiasedness and
// E[(w.x_i)^2] = (δ/d) ||x_i||^2. No Monte Carlo needed; the broker can
// use this instead of EmpiricalErrorTransform for square-loss listings
// (see the analytic-vs-empirical ablation bench).
class AnalyticSquareLossTransform final : public ErrorTransform {
 public:
  // `optimal` is h*_λ(D); `eval` is the dataset ε operates on.
  static StatusOr<AnalyticSquareLossTransform> Build(
      const linalg::Vector& optimal, const data::Dataset& eval);

  double ExpectedError(double delta) const override {
    return min_error_ + slope_ * (delta < 0.0 ? 0.0 : delta);
  }
  double DeltaForError(double error) const override {
    if (error <= min_error_) return 0.0;
    return (error - min_error_) / slope_;
  }
  double MinError() const override { return min_error_; }

  // The exact linear coefficient tr(X^T X) / (2 n d).
  double slope() const { return slope_; }

 private:
  AnalyticSquareLossTransform(double min_error, double slope)
      : min_error_(min_error), slope_(slope) {}

  double min_error_;
  double slope_;
};

// Tabulated transform for arbitrary ε (logistic loss, 0/1 error, ...):
// E[ε] on a geometric δ grid, made monotone with an isotonic fit
// (guaranteed by Theorem 4 for strictly convex ε; enforced numerically for
// losses like 0/1), then interpolated in both directions. Build fills the
// table by Monte Carlo for any mechanism (the Figure 6 procedure);
// BuildExactGaussian fills it exactly for the Gaussian mechanism.
class EmpiricalErrorTransform final : public ErrorTransform {
 public:
  struct BuildOptions {
    // δ grid: `grid_size` geometrically spaced points in
    // [delta_min, delta_max], both finite.
    double delta_min = 0.01;
    double delta_max = 1.0;
    size_t grid_size = 30;
    // Noisy models drawn per grid point (paper uses 2000).
    size_t trials_per_delta = 2000;
    uint64_t seed = 7;
    // Concurrency of the Monte-Carlo sweep. The sweep is decomposed into
    // (grid point, trial chunk) tasks, each owning an RNG substream
    // derived from (seed, grid index, first trial index); per-chunk
    // partial sums are reduced in chunk order, so the fitted table is
    // bit-identical for ANY thread count — threads only change wall time.
    ParallelConfig parallel;
  };

  // Monte Carlo: for each δ on the grid, draws `trials_per_delta` noisy
  // instances from the mechanism and averages ε(ĥ, D). `optimal` is
  // h*_λ(D); `eval` is the dataset ε operates on (test or train, per the
  // buyer's preference).
  static StatusOr<EmpiricalErrorTransform> Build(
      const RandomizedMechanism& mechanism, const linalg::Vector& optimal,
      const ml::Loss& error_function, const data::Dataset& eval,
      const BuildOptions& options);

  // The same table for the Gaussian mechanism K_G, computed instead of
  // sampled. K_G adds w ~ N(0, (δ/d) I), so each example's score
  // x_i.(h*+w) is exactly N(m_i, δ s_i^2) with m_i = x_i.h* and
  // s_i = ||x_i|| / sqrt(d), and E[ε](δ) of a margin loss is a mean of
  // 1-D Gaussian expectations:
  //   0/1:            erfc(y_i m_i / (s_i sqrt(2δ))) / 2, or ZeroOneLoss's
  //                   tie rule when s_i = 0;
  //   smoothed hinge: closed form in Φ and φ over its three pieces;
  //   logistic:       a fixed 32-node Gauss–Hermite rule (per-example
  //                   error <= 3e-14 while s_i sqrt(δ) <= 1, 3e-8 at 2,
  //                   8e-5 at 4);
  // plus the exact l2 (||h*||^2 + δ) penalty term. Only the δ grid of
  // `options` applies (trials_per_delta, seed and parallel do not), and
  // the table is the same bits at every thread count and SIMD level.
  // `eval` must be a classification dataset (labels in {-1, +1}); square
  // loss has AnalyticSquareLossTransform instead.
  static StatusOr<EmpiricalErrorTransform> BuildExactGaussian(
      const linalg::Vector& optimal, const ml::Loss& error_function,
      const data::Dataset& eval, const BuildOptions& options);

  double ExpectedError(double delta) const override;
  double DeltaForError(double error) const override;
  double MinError() const override { return min_error_; }

  // The fitted (δ, expected error) table, ascending in δ; exactly the
  // series Figure 6 plots (against 1/δ).
  const std::vector<double>& delta_grid() const { return deltas_; }
  const std::vector<double>& error_grid() const { return errors_; }

 private:
  EmpiricalErrorTransform(std::vector<double> deltas,
                          std::vector<double> errors, double min_error)
      : deltas_(std::move(deltas)),
        errors_(std::move(errors)),
        min_error_(min_error) {}

  std::vector<double> deltas_;   // ascending
  std::vector<double> errors_;   // non-decreasing (isotonic-fitted)
  double min_error_;             // error of the optimal instance (δ = 0)
};

}  // namespace mbp::core

#endif  // MBP_CORE_ERROR_TRANSFORM_H_
