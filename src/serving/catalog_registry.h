#ifndef MBP_SERVING_CATALOG_REGISTRY_H_
#define MBP_SERVING_CATALOG_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/intern_table.h"
#include "common/metrics.h"
#include "common/statusor.h"
#include "serving/pricing_snapshot.h"

namespace mbp::serving {

// Dense integer handle for a catalog listing: assigned by the interning
// table at first publish, stable for the registry's lifetime, never
// reused. Withdrawing a curve clears its snapshot, not its ref.
using CurveRef = uint32_t;
inline constexpr CurveRef kInvalidCurveRef = InternTable::kNotFound;

struct CatalogRegistryOptions {
  // Cap on listings with a resident compiled snapshot. When publishing a
  // curve that is not already resident would exceed the cap, the
  // least-recently-touched resident listing is evicted (withdrawn) first
  // so a million-listing catalog cannot OOM the server. 0 = unbounded.
  size_t max_resident_listings = 0;
};

// Marketplace-scale successor of the original single-mutex snapshot
// registry: maps curve ids to published PricingSnapshots for catalogs of
// 100k+ listings (DESIGN.md §5g).
//
// What changed versus the single-mutex registry:
//  - Ids are interned into dense CurveRefs (common/intern_table.h), so
//    the per-request heterogeneous lookup is ONE lock-free open-addressed
//    probe plus one array index — Find() never takes a mutex and never
//    allocates, at any catalog size.
//  - Snapshot slots are per-curve RCU: CurveSlot keeps the PR-2 contract
//    (atomic shared_ptr snapshot, process-global seq_cst publish stamp),
//    and the slot directory is a chunked array of atomic chunk pointers,
//    so republishing one listing touches nothing shared with the other
//    listings' read paths.
//  - The registry mutex still exists but guards only publish-side
//    bookkeeping (slot creation, residency accounting, eviction); curve
//    compilation stays outside it and readers never acquire it.
//
// Memory ordering is inherited verbatim from §5b: snapshot store is
// release / Load() acquire; the stamp is stored seq_cst AFTER the
// snapshot, so a reader that observes a stamp observes that publish's
// snapshot or a newer one.
//
// Memory accounting: every resident compiled snapshot's MemoryBytes() is
// summed into a relaxed gauge (resident_bytes()), served via STATS;
// EvictIdle() and max_resident_listings bound the footprint. Eviction
// withdraws the snapshot only — the id binding, ref, and slot survive, so
// in-flight refs stay valid and a later republish revives the listing
// under the same ref.
class CatalogRegistry {
 public:
  class CurveSlot {
   public:
    // The current snapshot, or nullptr if the curve was withdrawn or
    // evicted. Lock-free with respect to publishers.
    std::shared_ptr<const PricingSnapshot> Load() const {
      return snapshot_.load(std::memory_order_acquire);
    }

    // PROCESS-wide unique stamp of the latest (re)publish into this slot
    // (0 before the first publish completes). Monotone per slot and never
    // reused across slots or registries, so (stamp, x) uniquely identifies
    // a cached price across every curve ever served — even when a slot
    // address is recycled by a later registry (the engine's thread-local
    // snapshot pin relies on exactly this). A plain load on x86 — cheap
    // enough for the per-query hot path.
    uint64_t stamp() const { return stamp_.load(std::memory_order_seq_cst); }

    // Records an access for LRU eviction (EvictIdle / max-listings).
    // Relaxed monotone-ish max: the server stamps request-start time per
    // pass; losing a race between two near-simultaneous touches is fine —
    // eviction is approximate by design.
    void Touch(uint64_t now_micros) const {
      last_touch_micros_.store(now_micros, std::memory_order_relaxed);
    }
    uint64_t last_touch_micros() const {
      return last_touch_micros_.load(std::memory_order_relaxed);
    }

    // Default-constructible (empty) so the directory can build chunks of
    // slots in place; only the registry can publish into one.
    CurveSlot() = default;
    CurveSlot(const CurveSlot&) = delete;
    CurveSlot& operator=(const CurveSlot&) = delete;

   private:
    friend class CatalogRegistry;

    std::atomic<std::shared_ptr<const PricingSnapshot>> snapshot_{nullptr};
    std::atomic<uint64_t> stamp_{0};
    mutable std::atomic<uint64_t> last_touch_micros_{0};
    // Resident MemoryBytes() of the current snapshot; 0 when withdrawn.
    // Guarded by the registry mutex (publish-side bookkeeping only).
    size_t resident_bytes_ = 0;
  };

  explicit CatalogRegistry(CatalogRegistryOptions options = {});
  ~CatalogRegistry();
  CatalogRegistry(const CatalogRegistry&) = delete;
  CatalogRegistry& operator=(const CatalogRegistry&) = delete;

  // Compiles `curve` (validating arbitrage-freeness) and publishes it
  // under `curve_id`, interning the id on first publish. On error the
  // previously published snapshot, if any, keeps serving. May evict the
  // least-recently-touched OTHER listing when max_resident_listings would
  // be exceeded. Returns the slot, which stays valid for the registry's
  // lifetime.
  StatusOr<const CurveSlot*> Publish(const std::string& curve_id,
                                     const core::PiecewiseLinearPricing& curve);

  // Marks the curve withdrawn: subsequent Load() returns nullptr and the
  // serving engine reports NotFound. The slot itself stays valid and the
  // id can be republished later.
  Status Withdraw(const std::string& curve_id);

  // Resolves an id to its slot: one lock-free intern-table probe + one
  // chunk index. nullptr for ids never published. Takes a string_view so
  // the server's zero-allocation request path can look up ids that are
  // views into the wire buffer.
  const CurveSlot* Find(std::string_view curve_id) const;

  // Ref-based access for callers that cache the dense handle.
  CurveRef FindRef(std::string_view curve_id) const {
    return interner_.Find(curve_id);
  }
  const CurveSlot* slot(CurveRef ref) const;
  std::string_view KeyOf(CurveRef ref) const { return interner_.KeyOf(ref); }

  // Number of ids ever published (withdrawn ids included).
  size_t size() const { return interner_.size(); }

  // Listings with a resident compiled snapshot right now.
  size_t resident_listings() const {
    return static_cast<size_t>(resident_listings_.Value());
  }
  // Total MemoryBytes() of all resident compiled snapshots.
  size_t resident_bytes() const {
    return static_cast<size_t>(resident_bytes_.Value());
  }

  // Withdraws every resident listing whose last Touch() is at least
  // `idle_micros` older than `now_micros`. O(size()) scan — an operator /
  // maintenance path, not a request path. Returns the count evicted.
  size_t EvictIdle(uint64_t now_micros, uint64_t idle_micros);

  // Microseconds on the steady clock — the time base Touch() and
  // EvictIdle() expect.
  static uint64_t NowMicros();

 private:
  // Slot directory mirroring the intern table's chunking: refs are dense,
  // so chunk c holds refs [c << kChunkShift, (c + 1) << kChunkShift).
  // Chunk pointers are atomic (readers index without the mutex); chunks
  // are allocated under the mutex and never freed or moved before
  // destruction.
  static constexpr size_t kChunkShift = 12;
  static constexpr size_t kChunkSlots = size_t{1} << kChunkShift;
  static constexpr size_t kMaxChunks = 4096;

  // Returns the slot for `ref`, allocating its chunk if needed. Mutex
  // must be held.
  CurveSlot* EnsureSlotLocked(CurveRef ref);
  // Clears `slot`'s snapshot + residency accounting. Mutex must be held.
  void WithdrawSlotLocked(CurveSlot* slot);
  // Evicts the least-recently-touched resident listing other than
  // `keep`. Mutex must be held.
  void EvictLruLocked(const CurveSlot* keep);

  const CatalogRegistryOptions options_;
  InternTable interner_;
  mutable std::mutex mutex_;  // publish-side bookkeeping only
  std::array<std::atomic<CurveSlot*>, kMaxChunks> chunks_{};
  Gauge resident_listings_;
  Gauge resident_bytes_;
};

}  // namespace mbp::serving

#endif  // MBP_SERVING_CATALOG_REGISTRY_H_
