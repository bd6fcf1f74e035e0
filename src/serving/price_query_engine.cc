#include "serving/price_query_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace mbp::serving {
namespace {

Status CurveNotServing() {
  return NotFoundError("curve is not being served (withdrawn or never "
                       "published)");
}

// Thread-local pin of the most recently loaded snapshot, keyed by the
// publish stamp. std::atomic<std::shared_ptr> loads are lock-based in
// common standard libraries and bump the refcount twice per query; the pin
// pays that cost once per (thread, publish) instead of once per query.
//
// Why the stamp check is sufficient: a stamp value is allocated process-
// globally and never reused (see catalog_registry.cc), and it is stored
// seq_cst AFTER the snapshot, so once the caller has observed stamp S the
// slot already holds the snapshot published with S — or a newer one, which
// the documented racing-republish semantics allow. At quiescence the stamp
// no longer changes, so a matching pin is exactly the current snapshot.
// The pin keeps at most one old snapshot alive per thread, until that
// thread's next query after a republish.
const PricingSnapshot* PinnedSnapshot(
    const CatalogRegistry::CurveSlot* slot, uint64_t stamp) {
  struct Pin {
    const CatalogRegistry::CurveSlot* slot = nullptr;
    uint64_t stamp = 0;
    std::shared_ptr<const PricingSnapshot> snapshot;
  };
  thread_local Pin pin;
  if (pin.slot != slot || pin.stamp != stamp) {
    pin.snapshot = slot->Load();
    pin.slot = slot;
    pin.stamp = stamp;
  }
  return pin.snapshot.get();
}

}  // namespace

PriceQueryEngine::PriceQueryEngine(const CatalogRegistry* registry,
                                   PriceQueryEngineOptions options)
    : registry_(registry),
      options_(options),
      cache_(options.cache_shards, options.cache_capacity_per_shard) {
  MBP_CHECK(registry != nullptr);
  MBP_CHECK_GE(options_.quantum, 0.0);
  if (options_.batch_grain == 0) options_.batch_grain = 1024;
}

double PriceQueryEngine::Quantize(double x) const {
  if (options_.quantum <= 0.0) return x;
  // Round-to-nearest multiple of the quantum. Always >= 0 for x >= 0.
  return std::round(x / options_.quantum) * options_.quantum;
}

StatusOr<const CatalogRegistry::CurveSlot*> PriceQueryEngine::ResolveSlot(
    const std::string& curve_id) const {
  const CatalogRegistry::CurveSlot* slot = registry_->Find(curve_id);
  if (slot == nullptr) return CurveNotServing();
  return slot;
}

StatusOr<double> PriceQueryEngine::Price(
    const CatalogRegistry::CurveSlot* slot, double x) const {
  MBP_CHECK(slot != nullptr);
  const double qx = Quantize(x);
  // Hot path: one plain stamp load + one shard probe; the snapshot itself
  // is only touched on a miss. Keying on the publish stamp makes every
  // entry of a previous publish unreachable the instant a new snapshot is
  // stamped in — republish IS cache invalidation.
  const uint64_t stamp = slot->stamp();
  const uint64_t key = std::bit_cast<uint64_t>(qx);
  double price = 0.0;
  // The miss fill runs under the stamp read above. If a republish raced
  // us, the entry is either already unreachable (readers now see a newer
  // stamp) or holds the racing publish's price for the rest of this
  // stamp's lifetime — every served value is still the exact price of a
  // curve published for this id. See DESIGN.md §5b.
  const bool served =
      cache_.GetOrCompute(key, stamp, &price, [&](double* out) {
        const PricingSnapshot* snapshot = PinnedSnapshot(slot, stamp);
        if (snapshot == nullptr) return false;
        *out = snapshot->PriceAt(qx);
        return true;
      });
  if (!served) return CurveNotServing();
  return price;
}

StatusOr<double> PriceQueryEngine::Price(const std::string& curve_id,
                                         double x) const {
  MBP_ASSIGN_OR_RETURN(const CatalogRegistry::CurveSlot* slot,
                       ResolveSlot(curve_id));
  return Price(slot, x);
}

StatusOr<double> PriceQueryEngine::BudgetToInverseNcp(
    const CatalogRegistry::CurveSlot* slot, double budget) const {
  MBP_CHECK(slot != nullptr);
  const std::shared_ptr<const PricingSnapshot> snapshot = slot->Load();
  if (snapshot == nullptr) return CurveNotServing();
  return snapshot->BudgetToInverseNcp(budget);
}

StatusOr<double> PriceQueryEngine::BudgetToInverseNcp(
    const std::string& curve_id, double budget) const {
  MBP_ASSIGN_OR_RETURN(const CatalogRegistry::CurveSlot* slot,
                       ResolveSlot(curve_id));
  return BudgetToInverseNcp(slot, budget);
}

Status PriceQueryEngine::PriceBatch(const CatalogRegistry::CurveSlot* slot,
                                    const double* xs, double* out,
                                    size_t count,
                                    const ParallelConfig& parallel) const {
  MBP_CHECK(slot != nullptr);
  if (count > 0 && (xs == nullptr || out == nullptr)) {
    return InvalidArgumentError("PriceBatch needs non-null xs/out buffers");
  }
  // One snapshot for the whole batch: a consistent curve view even if a
  // republish lands mid-batch, and no per-element atomics.
  const std::shared_ptr<const PricingSnapshot> snapshot = slot->Load();
  if (snapshot == nullptr) return CurveNotServing();
  const PricingSnapshot& snap = *snapshot;
  // Memo misses stream through the vectorized PriceAtBatch kernel. With a
  // quantum armed, queries are snapped chunk-wise into a stack buffer
  // first; either way evaluation is per-element pure, so any ParallelFor
  // partition produces the same bits (and the same bits as Price() per
  // element, since PriceAtBatch is bit-identical to PriceAt).
  const auto evaluate = [&](size_t begin, size_t end) {
    if (options_.quantum <= 0.0) {
      snap.PriceAtBatch(xs + begin, out + begin, end - begin);
      return Status::OK();
    }
    constexpr size_t kChunk = 512;
    double quantized[kChunk];
    for (size_t i = begin; i < end; i += kChunk) {
      const size_t m = std::min(kChunk, end - i);
      for (size_t j = 0; j < m; ++j) quantized[j] = Quantize(xs[i + j]);
      snap.PriceAtBatch(quantized, out + i, m);
    }
    return Status::OK();
  };
  if (count < options_.min_parallel_batch ||
      parallel.ResolvedThreads() <= 1) {
    return evaluate(0, count);
  }
  // Disjoint output slots per chunk and a pure per-element evaluation:
  // bit-identical to the serial loop at every thread count.
  return ParallelFor(parallel, 0, count, options_.batch_grain, evaluate);
}

Status PriceQueryEngine::PriceBatch(const std::string& curve_id,
                                    const std::vector<double>& xs,
                                    std::vector<double>* out,
                                    const ParallelConfig& parallel) const {
  MBP_CHECK(out != nullptr);
  MBP_ASSIGN_OR_RETURN(const CatalogRegistry::CurveSlot* slot,
                       ResolveSlot(curve_id));
  out->resize(xs.size());
  return PriceBatch(slot, xs.data(), out->data(), xs.size(), parallel);
}

PriceQueryEngine::CacheStats PriceQueryEngine::cache_stats() const {
  return CacheStats{cache_.hits(), cache_.misses()};
}

}  // namespace mbp::serving
