#include "ml/sufficient_stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "data/dataset.h"
#include "gtest/gtest.h"
#include "linalg/vector_ops.h"
#include "ml/loss.h"
#include "ml/trainer.h"
#include "random/distributions.h"
#include "random/rng.h"

namespace mbp::ml {
namespace {

data::Dataset MakeRegression(size_t n, size_t d, uint64_t seed) {
  random::Rng rng(seed);
  linalg::Matrix features(n, d);
  linalg::Vector targets(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      features(i, j) = random::SampleNormal(rng, 0.0, 1.0);
    }
    targets[i] = random::SampleNormal(rng, 0.0, 1.0);
  }
  auto dataset = data::Dataset::Create(std::move(features),
                                       std::move(targets),
                                       data::TaskType::kRegression);
  MBP_CHECK(dataset.ok());
  return std::move(dataset).value();
}

TEST(SufficientStatsTest, BuildMatchesDirectKernels) {
  const data::Dataset dataset = MakeRegression(120, 7, 3);
  const SufficientStats stats = SufficientStats::Build(dataset);
  EXPECT_EQ(linalg::GramMatrix(dataset.features()), stats.gram);
  EXPECT_EQ(linalg::MatTVec(dataset.features(), dataset.targets()),
            stats.xty);
  EXPECT_EQ(linalg::Dot(dataset.targets(), dataset.targets()), stats.yty);
  EXPECT_EQ(dataset.num_examples(), stats.n);
}

TEST(SufficientStatsTest, BuildBitIdenticalAcrossThreadCounts) {
  const data::Dataset dataset = MakeRegression(300, 12, 4);
  const SufficientStats serial =
      SufficientStats::Build(dataset, ParallelConfig::Serial());
  const SufficientStats parallel =
      SufficientStats::Build(dataset, ParallelConfig{});
  EXPECT_EQ(serial.gram, parallel.gram);
  EXPECT_EQ(serial.xty, parallel.xty);
  EXPECT_EQ(serial.yty, parallel.yty);
}

TEST(SufficientStatsTest, DowndateMatchesSubsetRebuildClosely) {
  const data::Dataset dataset = MakeRegression(200, 9, 5);
  const SufficientStats full = SufficientStats::Build(dataset);
  // Remove an arbitrary "fold" and compare against stats rebuilt from the
  // complementary subset. (Σ_all − Σ_fold) and Σ_train round differently,
  // so the comparison is tight-tolerance, not bitwise.
  const std::vector<size_t> removed = {3, 17, 42, 55, 108, 199, 0};
  std::vector<size_t> kept;
  for (size_t i = 0; i < dataset.num_examples(); ++i) {
    if (std::find(removed.begin(), removed.end(), i) == removed.end()) {
      kept.push_back(i);
    }
  }
  const SufficientStats down = full.Downdate(dataset, removed);
  const SufficientStats rebuilt =
      SufficientStats::Build(dataset.Subset(kept));
  ASSERT_EQ(rebuilt.n, down.n);
  for (size_t i = 0; i < down.gram.rows(); ++i) {
    for (size_t j = 0; j < down.gram.cols(); ++j) {
      EXPECT_NEAR(rebuilt.gram(i, j), down.gram(i, j),
                  1e-10 * std::max(1.0, std::abs(rebuilt.gram(i, j))));
    }
    EXPECT_NEAR(rebuilt.xty[i], down.xty[i],
                1e-10 * std::max(1.0, std::abs(rebuilt.xty[i])));
  }
  EXPECT_NEAR(rebuilt.yty, down.yty, 1e-10 * std::max(1.0, rebuilt.yty));
  // Symmetry must survive the downdate exactly.
  for (size_t i = 0; i < down.gram.rows(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(down.gram(i, j), down.gram(j, i));
    }
  }
}

TEST(SufficientStatsTest, SquareLossFromStatsMatchesLossEvaluate) {
  const data::Dataset dataset = MakeRegression(150, 6, 6);
  const SufficientStats stats = SufficientStats::Build(dataset);
  random::Rng rng(7);
  linalg::Vector h(dataset.num_features());
  for (size_t j = 0; j < h.size(); ++j) {
    h[j] = random::SampleNormal(rng, 0.0, 1.0);
  }
  for (double l2 : {0.0, 0.05, 1.0}) {
    const SquareLoss loss(l2);
    const double want = loss.Evaluate(h, dataset);
    const double got = SquareLossFromStats(stats, h, l2);
    EXPECT_NEAR(want, got, 1e-10 * std::max(1.0, std::abs(want)));
  }
}

TEST(SufficientStatsCacheTest, SingularSystemReportsFailedPrecondition) {
  // Duplicate column => singular Gram with l2 = 0.
  linalg::Matrix features(10, 2);
  linalg::Vector targets(10);
  random::Rng rng(14);
  for (size_t i = 0; i < 10; ++i) {
    features(i, 0) = random::SampleNormal(rng, 0.0, 1.0);
    features(i, 1) = features(i, 0);
    targets[i] = random::SampleNormal(rng, 0.0, 1.0);
  }
  auto dataset = data::Dataset::Create(std::move(features),
                                       std::move(targets),
                                       data::TaskType::kRegression);
  ASSERT_TRUE(dataset.ok());
  const SufficientStats stats = SufficientStats::Build(dataset.value());
  const auto solved = SolveNormalEquations(stats, 0.0);
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, solved.status().code());
  // Regularization rescues it.
  EXPECT_TRUE(SolveNormalEquations(stats, 0.1).ok());
}

TEST(TrainerStatsCacheTest, FromStatsMatchesDatasetTraining) {
  const data::Dataset dataset = MakeRegression(250, 8, 16);
  const SufficientStats stats = SufficientStats::Build(dataset);
  const auto direct = TrainLinearRegression(dataset, 0.05);
  const auto from_stats = TrainLinearRegressionFromStats(stats, 0.05);
  ASSERT_TRUE(direct.ok() && from_stats.ok());
  const auto& a = direct->model.coefficients();
  const auto& b = from_stats->model.coefficients();
  ASSERT_EQ(a.size(), b.size());
  // Identical solve path => identical coefficients; final_loss differs only
  // by the O(d^2) loss expansion's rounding.
  for (size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  EXPECT_NEAR(direct->final_loss, from_stats->final_loss,
              1e-10 * std::max(1.0, direct->final_loss));
}

#if defined(__GLIBC__)
// Bytes the allocator has handed out and not taken back: in-use arena
// chunks of every arena plus mmap-served chunks.
size_t LiveHeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(TrainerLiveHeapTest, ColdTrainingsKeepNothingAlive) {
  // The fulfillment engine's cold-BUY shape: every purchase trains once on
  // a freshly generated dataset that never recurs. Training must keep no
  // per-dataset state (Gram matrix, Cholesky factor) once it returns.
  constexpr size_t kN = 720;
  constexpr size_t kD = 90;
  constexpr size_t kTrainings = 128;
  // One warm-up call first, so the thread pool and any other lazily
  // created process state exist before the baseline is taken.
  ASSERT_TRUE(TrainLinearRegression(MakeRegression(kN, kD, 99), 0.01).ok());
  const size_t before = LiveHeapBytes();
  for (size_t i = 0; i < kTrainings; ++i) {
    const auto trained =
        TrainLinearRegression(MakeRegression(kN, kD, 1000 + i), 0.01);
    ASSERT_TRUE(trained.ok());
  }
  const size_t after = LiveHeapBytes();
  // One retained d x d matrix alone is ~63 KB; 128 trainings retaining
  // anything per dataset would add megabytes.
  constexpr size_t kSlackBytes = 256 * 1024;
  EXPECT_LE(after, before + kSlackBytes)
      << "live heap grew by " << (after - before) << " bytes over "
      << kTrainings << " cold trainings";
}
#endif  // __GLIBC__

}  // namespace
}  // namespace mbp::ml
