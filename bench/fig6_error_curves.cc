// Reproduces Figure 6 (error transformation curves): expected model error
// versus 1/NCP on all six datasets.
//   Row 1: square loss on Simulated1, YearMSD, CASP (linear regression).
//   Row 2: logistic loss on Simulated2, CovType, SUSY (logistic regression).
//   Row 3: 0/1 classification error on the same three datasets.
// Paper shape: every series decreases monotonically as 1/NCP grows.
// Beside each Monte-Carlo row the harness prints the exact curve under the
// Gaussian mechanism (AnalyticSquareLossTransform for square loss,
// EmpiricalErrorTransform::BuildExactGaussian for the margin losses) and
// the largest gap between the two over the Monte-Carlo δ grid.
//
// Usage: fig6_error_curves [--scale=0.0005] [--trials=200]
// The paper uses 2000 random models per NCP on full-size datasets
// (--scale=1 --trials=2000).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "core/error_transform.h"
#include "core/mechanism.h"
#include "data/uci_like.h"
#include "ml/trainer.h"

namespace mbp {
namespace {

// 1/NCP grid matching the paper's x-axis (1..100).
constexpr double kInvNcpMin = 1.0;
constexpr double kInvNcpMax = 100.0;
constexpr size_t kCurvePoints = 12;

void PrintCurve(const std::string& label,
                const core::ErrorTransform& transform) {
  std::printf("%-28s", label.c_str());
  double prev = -1.0;
  bool monotone = true;
  for (size_t i = 0; i < kCurvePoints; ++i) {
    const double t = static_cast<double>(i) / (kCurvePoints - 1);
    const double inv_ncp =
        kInvNcpMin + t * (kInvNcpMax - kInvNcpMin);
    const double error = transform.ExpectedError(1.0 / inv_ncp);
    std::printf(" %9.4f", error);
    if (prev >= 0.0 && error > prev + 1e-9) monotone = false;
    prev = error;
  }
  std::printf("  %s\n", monotone ? "[monotone decreasing]" : "[VIOLATION]");
}

void PrintAxis() {
  std::printf("%-28s", "1/NCP ->");
  for (size_t i = 0; i < kCurvePoints; ++i) {
    const double t = static_cast<double>(i) / (kCurvePoints - 1);
    std::printf(" %9.1f", kInvNcpMin + t * (kInvNcpMax - kInvNcpMin));
  }
  std::printf("\n");
}

void Run(double scale, size_t trials) {
  bench::PrintHeader("Figure 6: Error Transformation Curves");
  std::printf("(expected test error vs 1/NCP; %zu Monte-Carlo models per "
              "point; paper uses 2000)\n\n",
              trials);
  PrintAxis();
  bench::PrintRule(28 + 10 * kCurvePoints);

  core::GaussianMechanism mechanism;
  core::EmpiricalErrorTransform::BuildOptions build;
  build.delta_min = 1.0 / kInvNcpMax;
  build.delta_max = 1.0 / kInvNcpMin;
  build.grid_size = 20;
  build.trials_per_delta = trials;
  build.seed = 99;
  build.parallel.num_threads = 4;  // deterministic regardless of thread count

  double worst_gap = 0.0;
  for (const data::DatasetSpec& spec : data::PaperTable3Specs()) {
    auto split = data::GenerateUciLike(spec, scale, /*seed=*/7, 300);
    MBP_CHECK(split.ok()) << split.status().ToString();
    const bool regression = spec.task == data::TaskType::kRegression;
    auto trained = ml::TrainOptimalModel(
        regression ? ml::ModelKind::kLinearRegression
                   : ml::ModelKind::kLogisticRegression,
        split->train, 1e-3);
    MBP_CHECK(trained.ok()) << trained.status().ToString();
    const linalg::Vector& optimal = trained->model.coefficients();

    // Row-appropriate error functions ε, all evaluated on the test set.
    std::vector<ml::LossKind> epsilons;
    if (regression) {
      epsilons = {ml::LossKind::kSquare};
    } else {
      epsilons = {ml::LossKind::kLogistic, ml::LossKind::kZeroOne};
    }
    for (ml::LossKind kind : epsilons) {
      const std::unique_ptr<ml::Loss> epsilon = ml::MakeLoss(kind, 0.0);
      auto transform = core::EmpiricalErrorTransform::Build(
          mechanism, optimal, *epsilon, split->test, build);
      MBP_CHECK(transform.ok()) << transform.status().ToString();
      const std::string label = spec.name + " / " + epsilon->name();
      PrintCurve(label, *transform);
      std::unique_ptr<core::ErrorTransform> exact;
      if (regression) {
        exact = std::make_unique<core::AnalyticSquareLossTransform>(
            core::AnalyticSquareLossTransform::Build(optimal, split->test)
                .value());
      } else {
        exact = std::make_unique<core::EmpiricalErrorTransform>(
            core::EmpiricalErrorTransform::BuildExactGaussian(
                optimal, *epsilon, split->test, build)
                .value());
      }
      PrintCurve("  exact K_G", *exact);
      double max_gap = 0.0;
      for (size_t g = 0; g < transform->delta_grid().size(); ++g) {
        const double delta = transform->delta_grid()[g];
        max_gap = std::max(max_gap, std::fabs(exact->ExpectedError(delta) -
                                              transform->error_grid()[g]));
      }
      std::printf("%-28s max |exact - Monte Carlo| over the %zu-point grid: "
                  "%.2e\n",
                  "", transform->delta_grid().size(), max_gap);
      worst_gap = std::max(worst_gap, max_gap);
    }
  }
  std::printf("\nLargest exact-vs-Monte-Carlo gap over all rows: %.2e\n",
              worst_gap);
  std::printf(
      "\nPaper shape: every row decreases in 1/NCP (Theorem 4 for convex "
      "losses;\nempirically also for the non-convex 0/1 error).\n");
}

}  // namespace
}  // namespace mbp

int main(int argc, char** argv) {
  const double scale = mbp::bench::FlagValue(argc, argv, "scale", 0.0005);
  const auto trials = static_cast<size_t>(
      mbp::bench::FlagValue(argc, argv, "trials", 200));
  mbp::Run(scale, trials);
  return 0;
}
