#include "core/error_transform.h"

#include <algorithm>
#include <cmath>
#include <numbers>
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

// The geometric δ grid both factories tabulate on, ascending.
StatusOr<std::vector<double>> DeltaGrid(
    const EmpiricalErrorTransform::BuildOptions& options) {
  if (!(options.delta_min > 0.0) || options.delta_max <= options.delta_min) {
    return InvalidArgumentError("need 0 < delta_min < delta_max");
  }
  if (!std::isfinite(options.delta_min) ||
      !std::isfinite(options.delta_max)) {
    return InvalidArgumentError("delta_min and delta_max must be finite");
  }
  if (options.grid_size < 2) {
    return InvalidArgumentError("grid_size must be >= 2");
  }
  std::vector<double> deltas(options.grid_size);
  const double ratio = std::pow(options.delta_max / options.delta_min,
                                1.0 / (options.grid_size - 1));
  double delta = options.delta_min;
  for (size_t g = 0; g < options.grid_size; ++g) {
    deltas[g] = delta;
    delta *= ratio;
  }
  deltas.back() = options.delta_max;  // exact endpoint despite rounding
  return deltas;
}

// The probabilists' 32-point Gauss–Hermite rule as its 16 positive nodes
// z_k and weights w_k: E[f(Z)] for Z ~ N(0, 1) is approximated by
// sum_k w_k (f(z_k) + f(-z_k)), exactly for polynomials of degree < 64.
constexpr double kHermiteRule[16][2] = {
    {0.27554641923027579, 0.21170556988047931},
    {0.82728490377976516, 0.15653899375759844},
    {1.3809801992721442, 0.085344808272080755},
    {1.9380049059257174, 0.034109847726092053},
    {2.4998404151873954, 0.0099034617023205911},
    {3.0681351690131211, 0.0020620510513078847},
    {3.644781249880833, 0.00030255702581706247},
    {4.2320211099954097, 3.0559803060896302e-05},
    {4.8326046132444889, 2.0596221039534287e-06},
    {5.4500332736234283, 8.8812907131058956e-08},
    {6.0889643090769869, 2.3125184120742405e-09},
    {6.7559308305407049, 3.3475012398012072e-11},
    {7.4607557541215188, 2.3780648557778086e-13},
    {8.2197287653822446, 6.7552902236701189e-16},
    {9.0643992107024065, 5.2084495919608613e-19},
    {10.077422674229465, 4.1246074890182694e-23},
};

// Standard normal CDF Φ and density φ.
double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }
double NormalPdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

// One eval example as K_G sees it: the optimal score m_i = x_i.h*, the
// label y_i and the score's noise scale s_i = ||x_i|| / sqrt(d), so that
// x_i.(h*+w) ~ N(score, δ spread^2).
struct ExampleScore {
  double score;
  double label;
  double spread;
};

// E[0/1 error] of an example whose score has stddev tau: the score falls
// on the wrong side of 0 with probability Φ(-y m / tau). At tau = 0 the
// score is m itself, classified by ZeroOneLoss's tie rule.
double ExpectedZeroOne(const ExampleScore& e, double tau) {
  if (tau == 0.0) return (e.score > 0.0 ? 1.0 : -1.0) != e.label ? 1.0 : 0.0;
  return 0.5 * std::erfc(e.label * e.score / (tau * std::sqrt(2.0)));
}

// E[logistic loss] of an example whose margin is M ~ N(mu, tau^2), by the
// Gauss–Hermite rule.
double ExpectedLogistic(const ExampleScore& e, double tau) {
  const double mu = e.label * e.score;
  if (tau == 0.0) return ml::Log1pExp(-mu);
  double total = 0.0;
  for (const auto& [z, w] : kHermiteRule) {
    total += w * (ml::Log1pExp(-(mu + tau * z)) +
                  ml::Log1pExp(-(mu - tau * z)));
  }
  return total;
}

// E[smoothed hinge loss] of an example whose margin is M ~ N(mu, tau^2).
// With the gap G = 1 - M ~ N(a, tau^2), a = 1 - mu, the loss is 0 for
// G <= 0, G^2 / (2 gamma) for 0 < G < gamma and G - gamma/2 for
// G >= gamma; the truncated Gaussian moments over z in (z0, z1) and
// (z1, inf) give
//   [(a^2 + tau^2) P + 2 a tau (φ(z0) - φ(z1))
//      + tau^2 (z0 φ(z0) - z1 φ(z1))] / (2 gamma)
//   + (a - gamma/2) Φ(-z1) + tau φ(z1),
// with z0 = -a / tau, z1 = (gamma - a) / tau, P = Φ(z1) - Φ(z0).
double ExpectedSmoothedHinge(const ExampleScore& e, double tau,
                             double gamma) {
  const double a = 1.0 - e.label * e.score;
  if (tau == 0.0) {
    if (a <= 0.0) return 0.0;
    return a < gamma ? a * a / (2.0 * gamma) : a - gamma / 2.0;
  }
  const double z0 = -a / tau;
  const double z1 = (gamma - a) / tau;
  const double pdf0 = NormalPdf(z0);
  const double pdf1 = NormalPdf(z1);
  // z φ(z) -> 0 as |z| -> inf; spelled out so inf * 0 never reaches it.
  const double zpdf0 = pdf0 == 0.0 ? 0.0 : z0 * pdf0;
  const double zpdf1 = pdf1 == 0.0 ? 0.0 : z1 * pdf1;
  const double quadratic =
      ((a * a + tau * tau) * (NormalCdf(z1) - NormalCdf(z0)) +
       2.0 * a * tau * (pdf0 - pdf1) + tau * tau * (zpdf0 - zpdf1)) /
      (2.0 * gamma);
  return quadratic + (a - 0.5 * gamma) * NormalCdf(-z1) + tau * pdf1;
}

// The unpenalized table: at each δ, the mean over the examples of
// expected_loss(example, its score stddev sqrt(δ) s_i).
template <typename ExpectedLoss>
std::vector<double> MeanOverExamples(const std::vector<ExampleScore>& examples,
                                     const std::vector<double>& deltas,
                                     ExpectedLoss expected_loss) {
  std::vector<double> means(deltas.size());
  for (size_t g = 0; g < deltas.size(); ++g) {
    const double root_delta = std::sqrt(deltas[g]);
    double total = 0.0;
    for (const ExampleScore& e : examples) {
      total += expected_loss(e, root_delta * e.spread);
    }
    means[g] = total / static_cast<double>(examples.size());
  }
  return means;
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
  MBP_ASSIGN_OR_RETURN(std::vector<double> deltas, DeltaGrid(options));
  if (options.trials_per_delta == 0) {
    return InvalidArgumentError("trials_per_delta must be > 0");
  }

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

StatusOr<EmpiricalErrorTransform> EmpiricalErrorTransform::BuildExactGaussian(
    const linalg::Vector& optimal, const ml::Loss& error_function,
    const data::Dataset& eval, const BuildOptions& options) {
  if (optimal.size() != eval.num_features()) {
    return InvalidArgumentError(
        "optimal model dimension must match dataset features");
  }
  if (eval.task() != data::TaskType::kBinaryClassification) {
    return InvalidArgumentError(
        "the exact Gaussian error curve needs labels in {-1, +1}");
  }
  MBP_ASSIGN_OR_RETURN(std::vector<double> deltas, DeltaGrid(options));

  // Plain loops, not the dispatched kernels: the table is the same bits
  // at every SIMD level.
  const size_t n = eval.num_examples();
  const size_t d = optimal.size();
  std::vector<ExampleScore> examples(n);
  for (size_t i = 0; i < n; ++i) {
    const double* x = eval.ExampleFeatures(i);
    double score = 0.0;
    double norm_sq = 0.0;
    for (size_t j = 0; j < d; ++j) {
      score += x[j] * optimal[j];
      norm_sq += x[j] * x[j];
    }
    examples[i] = {score, eval.Target(i),
                   std::sqrt(norm_sq / static_cast<double>(d))};
  }
  double optimal_norm_sq = 0.0;
  for (size_t j = 0; j < d; ++j) optimal_norm_sq += optimal[j] * optimal[j];

  std::vector<double> errors;
  switch (error_function.kind()) {
    case ml::LossKind::kZeroOne:
      errors = MeanOverExamples(examples, deltas, ExpectedZeroOne);
      break;
    case ml::LossKind::kSmoothedHinge: {
      const double gamma =
          static_cast<const ml::SmoothedHingeLoss&>(error_function).gamma();
      errors = MeanOverExamples(
          examples, deltas, [gamma](const ExampleScore& e, double tau) {
            return ExpectedSmoothedHinge(e, tau, gamma);
          });
      break;
    }
    case ml::LossKind::kLogistic:
      errors = MeanOverExamples(examples, deltas, ExpectedLogistic);
      break;
    case ml::LossKind::kSquare:
      return InvalidArgumentError(
          "square loss has the closed-form AnalyticSquareLossTransform");
  }
  // The penalty term: E||h* + w||^2 = ||h*||^2 + δ.
  const double l2 = error_function.l2_regularization();
  for (size_t g = 0; g < deltas.size(); ++g) {
    errors[g] += l2 * (optimal_norm_sq + deltas[g]);
  }
  // Exact expectations of convex ε already grow with δ (Theorem 4); the
  // 0/1 error's need not, so the fit is shared with the sampled table.
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
  // NaN is in no range: every comparison below would fail and the search
  // would run off the table.
  if (std::isnan(error)) return error;
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
