#include "core/error_transform.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "linalg/kernels.h"
#include "ml/sufficient_stats.h"
#include "optim/pava.h"

namespace mbp::core {
namespace {

// Trials per Monte-Carlo task: one model block. Fixed (never derived from
// the thread count) so the task decomposition — and therefore every RNG
// substream — is identical at any concurrency level.
constexpr size_t kTrialsPerChunk = linalg::kernels::kBlockLanes;

// Piecewise-linear interpolation of ys over ascending xs, clamped to the
// table's range at both ends.
double Interpolate(const std::vector<double>& xs,
                   const std::vector<double>& ys, double x) {
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const size_t hi = static_cast<size_t>(it - xs.begin());
  const size_t lo = hi - 1;
  const double span = xs[hi] - xs[lo];
  if (span <= 0.0) return ys[lo];
  const double t = (x - xs[lo]) / span;
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

}  // namespace

StatusOr<AnalyticSquareLossTransform> AnalyticSquareLossTransform::Build(
    const linalg::Vector& optimal, const data::Dataset& eval) {
  if (optimal.size() != eval.num_features()) {
    return InvalidArgumentError(
        "optimal model dimension must match dataset features");
  }
  const size_t n = eval.num_examples();
  const size_t d = eval.num_features();
  // tr(X^T X) = sum of squared entries = sum_i ||x_i||^2.
  double trace = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double* row = eval.ExampleFeatures(i);
    for (size_t j = 0; j < d; ++j) trace += row[j] * row[j];
  }
  const double slope =
      trace / (2.0 * static_cast<double>(n) * static_cast<double>(d));
  if (!(slope > 0.0)) {
    return InvalidArgumentError(
        "dataset has all-zero features; the square-loss transform would "
        "be flat and non-invertible");
  }
  const ml::SquareLoss epsilon(0.0);
  return AnalyticSquareLossTransform(epsilon.Evaluate(optimal, eval),
                                     slope);
}

StatusOr<EmpiricalErrorTransform> EmpiricalErrorTransform::Build(
    const RandomizedMechanism& mechanism, const linalg::Vector& optimal,
    const ml::Loss& error_function, const data::Dataset& eval,
    const BuildOptions& options) {
  if (optimal.size() != eval.num_features()) {
    return InvalidArgumentError(
        "optimal model dimension must match dataset features");
  }
  if (!(options.delta_min > 0.0) || options.delta_max <= options.delta_min) {
    return InvalidArgumentError("need 0 < delta_min < delta_max");
  }
  if (options.grid_size < 2) {
    return InvalidArgumentError("grid_size must be >= 2");
  }
  if (options.trials_per_delta == 0) {
    return InvalidArgumentError("trials_per_delta must be > 0");
  }

  // Geometric δ grid, ascending.
  std::vector<double> deltas(options.grid_size);
  const double ratio = std::pow(options.delta_max / options.delta_min,
                                1.0 / (options.grid_size - 1));
  double delta = options.delta_min;
  for (size_t g = 0; g < options.grid_size; ++g) {
    deltas[g] = delta;
    delta *= ratio;
  }
  deltas.back() = options.delta_max;  // exact endpoint despite rounding

  // The sweep is a flat list of (grid point g, trial chunk c) tasks so
  // parallelism is available even when the grid is smaller than the
  // thread count. Task (g, c) owns the trials [c*K, min((c+1)*K, T)) of
  // grid point g and an RNG substream derived from (seed, g, c*K); its
  // partial sum lands in a dedicated slot, and slots are reduced in chunk
  // order below — deterministic at every thread count.
  const size_t chunks_per_point =
      (options.trials_per_delta + kTrialsPerChunk - 1) / kTrialsPerChunk;
  std::vector<double> partial_sums(options.grid_size * chunks_per_point);

  // Every trial scores ε on the SAME dataset. Square loss: build its
  // sufficient statistics once for this transform and evaluate each noisy
  // instance in O(d^2) via
  //   ||y - X h||^2 = y^T y - 2 h.(X^T y) + h.(G h)
  // instead of the O(n d) streaming pass. Every other ε: the chunk's
  // noisy instances (kTrialsPerChunk == kBlockLanes) become the columns
  // of one d x 64 block, scored in a single Loss::EvaluateBlock pass.
  std::optional<ml::SufficientStats> eval_stats;
  if (error_function.kind() == ml::LossKind::kSquare) {
    eval_stats = ml::SufficientStats::Build(eval, options.parallel);
  }
  const size_t d = optimal.size();
  MBP_RETURN_IF_ERROR(ParallelFor(
      options.parallel, 0, partial_sums.size(), 1,
      [&](size_t task_begin, size_t task_end) {
        std::vector<double> block(
            eval_stats.has_value() ? 0 : d * linalg::kernels::kBlockLanes);
        double errors[kTrialsPerChunk];
        for (size_t task = task_begin; task < task_end; ++task) {
          const size_t g = task / chunks_per_point;
          const size_t c = task % chunks_per_point;
          const size_t trial_begin = c * kTrialsPerChunk;
          const size_t trials =
              std::min(kTrialsPerChunk,
                       options.trials_per_delta - trial_begin);
          random::Rng rng(options.seed ^
                          (0x9E3779B97F4A7C15ULL * (g + 1)) ^
                          (0xBF58476D1CE4E5B9ULL * (trial_begin + 1)));
          for (size_t t = 0; t < trials; ++t) {
            const linalg::Vector noisy =
                mechanism.Perturb(optimal, deltas[g], rng);
            if (eval_stats.has_value()) {
              errors[t] = ml::SquareLossFromStats(
                  *eval_stats, noisy, error_function.l2_regularization());
              continue;
            }
            for (size_t j = 0; j < d; ++j) {
              block[j * linalg::kernels::kBlockLanes + t] = noisy.data()[j];
            }
          }
          if (!eval_stats.has_value()) {
            error_function.EvaluateBlock(block.data(), trials, eval, errors);
          }
          double total = 0.0;
          for (size_t t = 0; t < trials; ++t) total += errors[t];
          partial_sums[task] = total;
        }
        return Status::OK();
      }));

  std::vector<double> errors(options.grid_size);
  for (size_t g = 0; g < options.grid_size; ++g) {
    double total = 0.0;
    for (size_t c = 0; c < chunks_per_point; ++c) {
      total += partial_sums[g * chunks_per_point + c];
    }
    errors[g] = total / static_cast<double>(options.trials_per_delta);
  }

  // Theorem 4 guarantees monotonicity in expectation for strictly convex ε;
  // Monte-Carlo noise (and non-convex losses like 0/1) can still produce
  // small inversions, so project onto the monotone cone.
  errors = optim::IsotonicNonDecreasing(errors);

  const double min_error = error_function.Evaluate(optimal, eval);
  return EmpiricalErrorTransform(std::move(deltas), std::move(errors),
                                 min_error);
}

double EmpiricalErrorTransform::ExpectedError(double delta) const {
  if (delta <= 0.0) return min_error_;
  if (delta < deltas_.front()) {
    // Linear blend between the optimal instance's error at δ=0 and the
    // first grid point.
    const double t = delta / deltas_.front();
    return min_error_ + t * (errors_.front() - min_error_);
  }
  return Interpolate(deltas_, errors_, delta);
}

double EmpiricalErrorTransform::DeltaForError(double error) const {
  if (error <= min_error_) return 0.0;
  if (error <= errors_.front()) {
    const double span = errors_.front() - min_error_;
    if (span <= 0.0) return deltas_.front();
    return deltas_.front() * (error - min_error_) / span;
  }
  if (error >= errors_.back()) return deltas_.back();
  // The error table is non-decreasing; find the bracketing segment and
  // invert linearly (flat segments return their left endpoint).
  const auto it = std::upper_bound(errors_.begin(), errors_.end(), error);
  const size_t hi = static_cast<size_t>(it - errors_.begin());
  const size_t lo = hi - 1;
  const double span = errors_[hi] - errors_[lo];
  if (span <= 0.0) return deltas_[lo];
  const double t = (error - errors_[lo]) / span;
  return deltas_[lo] + t * (deltas_[hi] - deltas_[lo]);
}

}  // namespace mbp::core
