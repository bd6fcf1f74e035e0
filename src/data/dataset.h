#ifndef MBP_DATA_DATASET_H_
#define MBP_DATA_DATASET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mbp::data {

// Supervised ML task kinds supported by the marketplace broker.
enum class TaskType {
  kRegression,             // real-valued target
  kBinaryClassification,   // target in {-1, +1}
};

std::string TaskTypeToString(TaskType task);

// An in-memory relational dataset for supervised learning: an n x d feature
// matrix plus a length-n target column. This is the unit the seller lists
// for sale (as a train/test pair, see TrainTestSplit below).
class Dataset {
 public:
  // Validates shapes (features.rows() == targets.size()) and, for
  // classification, that every label is -1 or +1.
  static StatusOr<Dataset> Create(linalg::Matrix features,
                                  linalg::Vector targets, TaskType task);

  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  size_t num_examples() const { return features_.rows(); }
  size_t num_features() const { return features_.cols(); }
  TaskType task() const { return task_; }

  const linalg::Matrix& features() const { return features_; }
  const linalg::Vector& targets() const { return targets_; }

  // Feature row of example i (no copy).
  const double* ExampleFeatures(size_t i) const {
    return features_.RowData(i);
  }
  double Target(size_t i) const { return targets_[i]; }

  // New dataset containing the rows listed in `indices` (in that order).
  Dataset Subset(const std::vector<size_t>& indices) const;

 private:
  Dataset(linalg::Matrix features, linalg::Vector targets, TaskType task)
      : features_(std::move(features)),
        targets_(std::move(targets)),
        task_(task) {}

  linalg::Matrix features_;
  linalg::Vector targets_;
  TaskType task_;
};

// The pair (D_train, D_test) the seller provides: D_train is used to fit the
// optimal model instance, D_test to score noisy instances (Section 3.1).
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

}  // namespace mbp::data

#endif  // MBP_DATA_DATASET_H_
