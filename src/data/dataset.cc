#include "data/dataset.h"

#include <cmath>

namespace mbp::data {

std::string TaskTypeToString(TaskType task) {
  switch (task) {
    case TaskType::kRegression:
      return "regression";
    case TaskType::kBinaryClassification:
      return "classification";
  }
  return "unknown";
}

StatusOr<Dataset> Dataset::Create(linalg::Matrix features,
                                  linalg::Vector targets, TaskType task) {
  if (features.rows() != targets.size()) {
    return InvalidArgumentError("feature rows must match target count");
  }
  if (features.rows() == 0 || features.cols() == 0) {
    return InvalidArgumentError("dataset must be non-empty");
  }
  if (task == TaskType::kBinaryClassification) {
    for (size_t i = 0; i < targets.size(); ++i) {
      if (targets[i] != -1.0 && targets[i] != 1.0) {
        return InvalidArgumentError(
            "classification labels must be -1 or +1");
      }
    }
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    if (!std::isfinite(targets[i])) {
      return InvalidArgumentError("non-finite target value");
    }
  }
  return Dataset(std::move(features), std::move(targets), task);
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  linalg::Matrix features(indices.size(), num_features());
  linalg::Vector targets(indices.size());
  for (size_t out = 0; out < indices.size(); ++out) {
    const size_t in = indices[out];
    MBP_CHECK_LT(in, num_examples());
    for (size_t j = 0; j < num_features(); ++j) {
      features(out, j) = features_(in, j);
    }
    targets[out] = targets_[in];
  }
  return Dataset(std::move(features), std::move(targets), task_);
}

}  // namespace mbp::data
