#ifndef MBP_SERVING_PRICING_SNAPSHOT_H_
#define MBP_SERVING_PRICING_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "core/pricing_function.h"

namespace mbp::serving {

// An immutable, query-optimized compilation of a PiecewiseLinearPricing
// curve — the unit a CatalogRegistry publishes and readers share without
// locks.
//
// What compilation buys over querying the research object directly:
//  - Structure-of-arrays knot layout (x[], price[], per-segment dx/dprice)
//    instead of the array-of-structs PricePoint vector, so the bracketing
//    search touches half the cache lines.
//  - A uniform bucket index over [0, x_max]: a point query multiplies into
//    a bucket, then binary-searches only the handful of segments that
//    bucket overlaps — O(1) per query instead of O(log n) for the curves
//    with thousands of knots a production price menu quantizes into.
//  - Budget inversion by binary search over the monotone knot prices.
//  - The arbitrage-freeness certificate (ValidateArbitrageFree) is checked
//    ONCE here, not per query; Compile refuses curves that fail it, so
//    every price a snapshot can ever serve is from a certified curve.
//
// Numerical contract: PriceAt and BudgetToInverseNcp evaluate the exact
// same IEEE expressions as PiecewiseLinearPricing::PriceAtInverseNcp and
// ::MaxInverseNcpForBudget (the precomputed dx/dprice are the identical
// subtractions), so served prices are bit-identical to the research path.
// Tests assert this with exact floating-point equality.
class PricingSnapshot {
 public:
  // Validates the curve (Create invariants hold by construction; the
  // arbitrage-freeness certificate is checked here) and compiles it.
  // Returns shared_ptr because snapshots are published through
  // std::atomic<std::shared_ptr> registry slots.
  static StatusOr<std::shared_ptr<const PricingSnapshot>> Compile(
      const core::PiecewiseLinearPricing& curve);

  // Price at x = 1/delta. Bit-identical to
  // PiecewiseLinearPricing::PriceAtInverseNcp on the source curve.
  double PriceAt(double x) const;

  // Batched evaluation: out[i] = PriceAt(xs[i]) for i in [0, n), through
  // the runtime-dispatched pwl_batch kernel (linalg/kernels.h) — the
  // vectorized hot path behind the net server's micro-batches. Results
  // are bit-identical to per-element PriceAt at every dispatch level,
  // batch length, and remainder; see the kernel's numerical contract (DESIGN.md §5f). The one divergence is
  // the invalid-input policy: PriceAt MBP_CHECKs x >= 0, while the batch
  // path writes quiet NaN for NaN or negative queries, so a malformed
  // remote query degrades to a NaN price instead of aborting the server.
  void PriceAtBatch(const double* xs, double* out, size_t n) const;

  // Largest x affordable with `budget` (+infinity when the budget covers
  // the whole curve). Bit-identical to
  // PiecewiseLinearPricing::MaxInverseNcpForBudget on the source curve.
  double BudgetToInverseNcp(double budget) const;

  // Process-unique, monotonically increasing compilation stamp. Two
  // snapshots never share a version, even for identical curves.
  uint64_t version() const { return version_; }

  size_t num_knots() const { return x_.size(); }
  double x_max() const { return x_.back(); }
  double max_price() const { return price_.back(); }

  // Reconstructs the knot vector (for round-trip tests and introspection).
  std::vector<core::PricePoint> Knots() const;

  // Heap + object footprint of this compiled snapshot in bytes (vector
  // capacities, not sizes — what the allocator actually holds). Feeds the
  // catalog's resident-bytes gauge and eviction accounting (DESIGN.md
  // §5g).
  size_t MemoryBytes() const {
    return sizeof(*this) +
           (x_.capacity() + price_.capacity() + dx_.capacity() +
            dprice_.capacity()) *
               sizeof(double) +
           bucket_hint_.capacity() * sizeof(uint32_t);
  }

 private:
  PricingSnapshot() = default;

  // Index of the bracketing segment's upper knot for x strictly inside
  // (x_[0], x_.back()): the first knot with x_[i] > x.
  size_t UpperKnot(double x) const;

  uint64_t version_ = 0;

  // Structure-of-arrays knots. dx_[i] = x_[i+1] - x_[i] and
  // dprice_[i] = price_[i+1] - price_[i] describe the segment between
  // knots i and i+1 (size num_knots - 1).
  std::vector<double> x_;
  std::vector<double> price_;
  std::vector<double> dx_;
  std::vector<double> dprice_;

  // Uniform bucket index over [0, x_.back()]: bucket_hint_[b] is the first
  // knot index with x_[i] > b * bucket_width_ (bucket_hint_.size() ==
  // num_buckets_ + 1). A query in bucket b bracketed by
  // [bucket_hint_[b], bucket_hint_[b + 1]].
  size_t num_buckets_ = 0;
  double bucket_width_ = 0.0;
  double inv_bucket_width_ = 0.0;
  std::vector<uint32_t> bucket_hint_;
};

}  // namespace mbp::serving

#endif  // MBP_SERVING_PRICING_SNAPSHOT_H_
