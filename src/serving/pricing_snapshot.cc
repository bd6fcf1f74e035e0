#include "serving/pricing_snapshot.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "common/check.h"
#include "linalg/kernels.h"

namespace mbp::serving {
namespace {

// Process-wide compilation stamp; see PricingSnapshot::version().
std::atomic<uint64_t> g_next_version{1};

// Bucket-index size: ~2 buckets per knot makes the expected per-bucket
// window 0-1 segments, capped so a pathological million-knot curve still
// compiles into a bounded index.
size_t BucketCountForKnots(size_t num_knots) {
  const size_t want = std::min<size_t>(2 * num_knots, 1u << 17);
  return std::bit_ceil(std::max<size_t>(want, 1));
}

}  // namespace

StatusOr<std::shared_ptr<const PricingSnapshot>> PricingSnapshot::Compile(
    const core::PiecewiseLinearPricing& curve) {
  // The arbitrage-freeness invariants are certified once here, instead of
  // being the caller's per-query responsibility: a snapshot that exists is
  // a snapshot that is safe to sell from.
  MBP_RETURN_IF_ERROR(curve.ValidateArbitrageFree());

  const std::vector<core::PricePoint>& points = curve.points();
  const size_t n = points.size();
  MBP_CHECK_GT(n, 0u);
  MBP_CHECK_LT(n, std::numeric_limits<uint32_t>::max());

  auto snapshot = std::shared_ptr<PricingSnapshot>(new PricingSnapshot());
  snapshot->version_ =
      g_next_version.fetch_add(1, std::memory_order_relaxed);
  snapshot->x_.resize(n);
  snapshot->price_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    snapshot->x_[i] = points[i].x;
    snapshot->price_[i] = points[i].price;
  }
  if (n > 1) {
    snapshot->dx_.resize(n - 1);
    snapshot->dprice_.resize(n - 1);
    for (size_t i = 0; i + 1 < n; ++i) {
      // The exact subtractions PriceAtInverseNcp evaluates inline; storing
      // them keeps interpolation bit-identical to the research path.
      snapshot->dx_[i] = snapshot->x_[i + 1] - snapshot->x_[i];
      snapshot->dprice_[i] = snapshot->price_[i + 1] - snapshot->price_[i];
    }
  }

  const size_t num_buckets = BucketCountForKnots(n);
  snapshot->num_buckets_ = num_buckets;
  snapshot->bucket_width_ =
      snapshot->x_.back() / static_cast<double>(num_buckets);
  snapshot->inv_bucket_width_ = 1.0 / snapshot->bucket_width_;
  snapshot->bucket_hint_.resize(num_buckets + 1);
  size_t knot = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    // First knot strictly right of the bucket's left edge; the same
    // comparison UpperKnot's window bounds are derived from.
    const double edge = snapshot->bucket_width_ * static_cast<double>(b);
    while (knot < n && !(snapshot->x_[knot] > edge)) ++knot;
    snapshot->bucket_hint_[b] = static_cast<uint32_t>(knot);
  }
  // Sentinel: the last bucket's window always extends to the end, which
  // absorbs any floating-point slack between bucket_width_ * num_buckets_
  // and x_.back().
  snapshot->bucket_hint_[num_buckets] = static_cast<uint32_t>(n);
  return std::shared_ptr<const PricingSnapshot>(std::move(snapshot));
}

size_t PricingSnapshot::UpperKnot(double x) const {
  // Bucket estimate, then exact edge comparisons. The multiply lands
  // within one bucket of the true floor(x / width); the loops (almost
  // always zero iterations) settle x into the bucket whose edges bound it,
  // so the window below provably brackets the answer.
  size_t b = std::min(num_buckets_ - 1,
                      static_cast<size_t>(x * inv_bucket_width_));
  while (b > 0 && x < bucket_width_ * static_cast<double>(b)) --b;
  while (b + 1 < num_buckets_ &&
         x >= bucket_width_ * static_cast<double>(b + 1)) {
    ++b;
  }
  // Every knot <= the left edge sits below bucket_hint_[b]; every knot
  // > the right edge sits at or past bucket_hint_[b + 1] (the last bucket
  // runs to the sentinel). upper_bound over that window equals the global
  // upper_bound.
  const double* first = x_.data() + bucket_hint_[b];
  const double* last = x_.data() + bucket_hint_[b + 1];
  return static_cast<size_t>(std::upper_bound(first, last, x) - x_.data());
}

double PricingSnapshot::PriceAt(double x) const {
  MBP_CHECK_GE(x, 0.0);
  if (x == 0.0) return 0.0;
  if (x <= x_[0]) {
    // Linear from the origin through the first knot (same expression as
    // PiecewiseLinearPricing::PriceAtInverseNcp).
    return price_[0] * (x / x_[0]);
  }
  if (x >= x_.back()) return price_.back();
  const size_t hi = UpperKnot(x);
  const size_t lo = hi - 1;
  const double t = (x - x_[lo]) / dx_[lo];
  return price_[lo] + t * dprice_[lo];
}

void PricingSnapshot::PriceAtBatch(const double* xs, double* out,
                                   size_t n) const {
  if (n == 0) return;
  MBP_CHECK(xs != nullptr);
  MBP_CHECK(out != nullptr);
  linalg::kernels::PwlView view;
  view.x = x_.data();
  view.price = price_.data();
  view.dx = dx_.data();
  view.dprice = dprice_.data();
  view.bucket_hint = bucket_hint_.data();
  view.n = x_.size();
  view.num_buckets = num_buckets_;
  view.bucket_width = bucket_width_;
  view.inv_bucket_width = inv_bucket_width_;
  linalg::kernels::Active().pwl_batch(view, xs, out, n);
}

double PricingSnapshot::BudgetToInverseNcp(double budget) const {
  MBP_CHECK_GE(budget, 0.0);
  if (budget >= price_.back()) {
    return std::numeric_limits<double>::infinity();
  }
  if (budget <= price_[0]) {
    if (price_[0] <= 0.0) return std::numeric_limits<double>::infinity();
    return x_[0] * budget / price_[0];
  }
  // Last knot with price <= budget (prices are monotone: certified at
  // Compile); same arithmetic as MaxInverseNcpForBudget.
  const auto it = std::partition_point(
      price_.begin(), price_.end(),
      [budget](double p) { return p <= budget; });
  const size_t lo = static_cast<size_t>(it - price_.begin()) - 1;
  const double rise = dprice_[lo];
  if (rise <= 0.0) return x_[lo + 1];
  const double t = (budget - price_[lo]) / rise;
  return x_[lo] + t * dx_[lo];
}

std::vector<core::PricePoint> PricingSnapshot::Knots() const {
  std::vector<core::PricePoint> knots(x_.size());
  for (size_t i = 0; i < x_.size(); ++i) {
    knots[i] = core::PricePoint{x_[i], price_[i]};
  }
  return knots;
}

}  // namespace mbp::serving
