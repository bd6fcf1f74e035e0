#include "ml/cross_validation.h"

#include <cmath>
#include <numeric>
#include <optional>

#include "data/split.h"
#include "ml/sufficient_stats.h"

namespace mbp::ml {
namespace {

// Fold assignment: a permutation chopped into `folds` contiguous ranges.
struct FoldPlan {
  std::vector<size_t> order;
  size_t folds;

  // [begin, end) positions of fold f within `order`.
  std::pair<size_t, size_t> Range(size_t f) const {
    const size_t n = order.size();
    const size_t base = n / folds;
    const size_t extra = n % folds;
    // First `extra` folds get one extra example.
    const size_t begin = f * base + std::min(f, extra);
    const size_t size = base + (f < extra ? 1 : 0);
    return {begin, begin + size};
  }
};

// Per-fold training inputs, built once per plan and reused for every l2
// candidate. Linear regression folds carry downdated sufficient statistics
// (full-dataset stats minus the held-out rows, an O(|fold| d^2) rank-k
// downdate) instead of a materialized (k-1)/k-size training copy; iterative
// models keep the train Subset.
struct FoldContext {
  std::optional<data::Dataset> test;
  std::optional<data::Dataset> train;          // iterative trainers only
  std::optional<SufficientStats> train_stats;  // linear regression only
};

StatusOr<std::vector<FoldContext>> BuildFoldContexts(
    ModelKind model, const data::Dataset& dataset, const FoldPlan& plan,
    const ParallelConfig& parallel) {
  const bool use_stats = model == ModelKind::kLinearRegression &&
                         dataset.task() == data::TaskType::kRegression;
  SufficientStats full_stats;
  if (use_stats) full_stats = SufficientStats::Build(dataset, parallel);
  std::vector<FoldContext> contexts(plan.folds);
  // One fold per task; each task writes only its own context slot.
  MBP_RETURN_IF_ERROR(ParallelFor(
      parallel, 0, plan.folds, 1, [&](size_t fold_begin, size_t fold_end) {
        for (size_t f = fold_begin; f < fold_end; ++f) {
          const auto [begin, end] = plan.Range(f);
          // The fold's test examples are exactly order[begin, end); its
          // train examples are the complementary prefix and suffix.
          const std::vector<size_t> test_idx(plan.order.begin() + begin,
                                             plan.order.begin() + end);
          contexts[f].test = dataset.Subset(test_idx);
          if (use_stats) {
            contexts[f].train_stats = full_stats.Downdate(dataset, test_idx);
          } else {
            std::vector<size_t> train_idx(plan.order.begin(),
                                          plan.order.begin() + begin);
            train_idx.insert(train_idx.end(), plan.order.begin() + end,
                             plan.order.end());
            contexts[f].train = dataset.Subset(train_idx);
          }
        }
        return Status::OK();
      }));
  return contexts;
}

StatusOr<CrossValidationResult> RunFolds(
    ModelKind model, double l2, const Loss& eval_loss,
    const std::vector<FoldContext>& contexts,
    const ParallelConfig& parallel) {
  CrossValidationResult result;
  result.fold_errors.assign(contexts.size(), 0.0);
  // One fold per task: training is deterministic and each fold writes only
  // its own slot, so the result is identical at any thread count.
  MBP_RETURN_IF_ERROR(ParallelFor(
      parallel, 0, contexts.size(), 1,
      [&](size_t fold_begin, size_t fold_end) {
        for (size_t f = fold_begin; f < fold_end; ++f) {
          const FoldContext& ctx = contexts[f];
          StatusOr<TrainResult> trained =
              ctx.train_stats.has_value()
                  ? TrainLinearRegressionFromStats(*ctx.train_stats, l2)
                  : TrainOptimalModel(model, *ctx.train, l2);
          if (!trained.ok()) return trained.status();
          result.fold_errors[f] =
              eval_loss.Evaluate(trained.value().model.coefficients(),
                                 *ctx.test);
        }
        return Status::OK();
      }));
  const double n = static_cast<double>(result.fold_errors.size());
  result.mean_error =
      std::accumulate(result.fold_errors.begin(), result.fold_errors.end(),
                      0.0) /
      n;
  double variance = 0.0;
  for (double error : result.fold_errors) {
    variance += (error - result.mean_error) * (error - result.mean_error);
  }
  result.stddev_error = std::sqrt(variance / n);
  return result;
}

Status ValidateFolds(const data::Dataset& dataset, size_t folds) {
  if (folds < 2) return InvalidArgumentError("need at least 2 folds");
  if (dataset.num_examples() < folds) {
    return InvalidArgumentError("need at least one example per fold");
  }
  return Status::OK();
}

}  // namespace

StatusOr<CrossValidationResult> KFoldCrossValidate(
    ModelKind model, const data::Dataset& dataset, double l2,
    const Loss& eval_loss, size_t folds, random::Rng& rng,
    const ParallelConfig& parallel) {
  MBP_RETURN_IF_ERROR(ValidateFolds(dataset, folds));
  const FoldPlan plan{
      data::RandomPermutation(dataset.num_examples(), rng), folds};
  MBP_ASSIGN_OR_RETURN(std::vector<FoldContext> contexts,
                       BuildFoldContexts(model, dataset, plan, parallel));
  return RunFolds(model, l2, eval_loss, contexts, parallel);
}

StatusOr<double> SelectL2ByCrossValidation(
    ModelKind model, const data::Dataset& dataset,
    const std::vector<double>& candidates, const Loss& eval_loss,
    size_t folds, random::Rng& rng, const ParallelConfig& parallel) {
  if (candidates.empty()) {
    return InvalidArgumentError("need at least one l2 candidate");
  }
  MBP_RETURN_IF_ERROR(ValidateFolds(dataset, folds));
  // One shared fold plan so candidates see identical splits — and one set
  // of fold contexts (test subsets + downdated training statistics), so the
  // per-fold O(n d^2) work is paid once, not once per candidate.
  const FoldPlan plan{
      data::RandomPermutation(dataset.num_examples(), rng), folds};
  MBP_ASSIGN_OR_RETURN(std::vector<FoldContext> contexts,
                       BuildFoldContexts(model, dataset, plan, parallel));
  double best_l2 = candidates.front();
  double best_error = 0.0;
  bool first = true;
  for (double l2 : candidates) {
    if (l2 < 0.0) return InvalidArgumentError("l2 must be non-negative");
    MBP_ASSIGN_OR_RETURN(CrossValidationResult result,
                         RunFolds(model, l2, eval_loss, contexts, parallel));
    if (first || result.mean_error < best_error) {
      best_error = result.mean_error;
      best_l2 = l2;
      first = false;
    }
  }
  return best_l2;
}

}  // namespace mbp::ml
