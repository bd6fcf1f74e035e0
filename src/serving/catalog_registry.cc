#include "serving/catalog_registry.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"

namespace mbp::serving {
namespace {

// Publish stamps are allocated process-globally (not per registry) so a
// stamp value is never reused, even when a later registry's slot lands on
// a recycled address: a stamp read back through SNAPSHOT_INFO identifies
// one publish on its own.
std::atomic<uint64_t> g_next_stamp{1};

uint64_t NextStamp() {
  return g_next_stamp.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

CatalogRegistry::CatalogRegistry(CatalogRegistryOptions options)
    : options_(options) {}

CatalogRegistry::~CatalogRegistry() {
  for (auto& chunk : chunks_) {
    delete[] chunk.load(std::memory_order_relaxed);
  }
}

uint64_t CatalogRegistry::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

CatalogRegistry::CurveSlot* CatalogRegistry::EnsureSlotLocked(CurveRef ref) {
  const size_t chunk_index = ref >> kChunkShift;
  MBP_CHECK_LT(chunk_index, kMaxChunks);
  CurveSlot* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new CurveSlot[kChunkSlots];
    // Release: a reader that loads the chunk pointer sees constructed
    // (empty) slots.
    chunks_[chunk_index].store(chunk, std::memory_order_release);
  }
  return &chunk[ref & (kChunkSlots - 1)];
}

const CatalogRegistry::CurveSlot* CatalogRegistry::slot(CurveRef ref) const {
  if (ref == kInvalidCurveRef) return nullptr;
  const size_t chunk_index = ref >> kChunkShift;
  if (chunk_index >= kMaxChunks) return nullptr;
  const CurveSlot* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    // A ref can become Find()-able an instant before its chunk pointer is
    // visible to this thread. Absent chunk == "first publish still in
    // flight": the same transient NotFound a racing reader could have
    // seen a moment earlier.
    return nullptr;
  }
  return &chunk[ref & (kChunkSlots - 1)];
}

const CatalogRegistry::CurveSlot* CatalogRegistry::Find(
    std::string_view curve_id) const {
  return slot(interner_.Find(curve_id));
}

void CatalogRegistry::WithdrawSlotLocked(CurveSlot* slot) {
  const uint64_t stamp = NextStamp();
  slot->snapshot_.store(nullptr, std::memory_order_release);
  slot->stamp_.store(stamp, std::memory_order_seq_cst);
  if (slot->resident_bytes_ != 0) {
    resident_bytes_.Add(-static_cast<int64_t>(slot->resident_bytes_));
    resident_listings_.Add(-1);
    slot->resident_bytes_ = 0;
  }
}

void CatalogRegistry::EvictLruLocked(const CurveSlot* keep) {
  CurveSlot* victim = nullptr;
  uint64_t victim_touch = 0;
  const size_t n = interner_.size();
  for (size_t ref = 0; ref < n; ++ref) {
    CurveSlot* s = EnsureSlotLocked(static_cast<CurveRef>(ref));
    if (s == keep || s->resident_bytes_ == 0) continue;
    const uint64_t touch = s->last_touch_micros();
    if (victim == nullptr || touch < victim_touch) {
      victim = s;
      victim_touch = touch;
    }
  }
  if (victim != nullptr) WithdrawSlotLocked(victim);
}

StatusOr<const CatalogRegistry::CurveSlot*> CatalogRegistry::Publish(
    const std::string& curve_id, const core::PiecewiseLinearPricing& curve) {
  // Fault points at the two failure edges of a publish: snapshot
  // compilation/allocation and the publish step itself. Either way the
  // contract ("on error the old snapshot keeps serving") must hold, which
  // the chaos suite asserts by querying across injected failed
  // republishes.
  if (MBP_FAULT_POINT("serving.compile.alloc")) {
    return ResourceExhaustedError(
        "injected fault: serving.compile.alloc (snapshot allocation)");
  }
  // Compile (and validate) outside any lock: a slow or failing compile
  // never blocks readers or other publishers.
  MBP_ASSIGN_OR_RETURN(std::shared_ptr<const PricingSnapshot> snapshot,
                       PricingSnapshot::Compile(curve));
  if (MBP_FAULT_POINT("serving.publish.fail")) {
    return InternalError("injected fault: serving.publish.fail");
  }
  const size_t bytes = snapshot->MemoryBytes();
  const CurveRef ref = interner_.Intern(curve_id);
  const uint64_t now = NowMicros();

  std::lock_guard<std::mutex> lock(mutex_);
  CurveSlot* slot = EnsureSlotLocked(ref);
  if (slot->resident_bytes_ == 0 && options_.max_resident_listings > 0 &&
      resident_listings() >= options_.max_resident_listings) {
    EvictLruLocked(slot);
  }
  const uint64_t stamp = NextStamp();
  // Order matters: snapshot first (release), stamp second (seq_cst).
  // A reader that sees the new stamp therefore sees this snapshot or a
  // newer one; see the class comment and DESIGN.md §5b/§5g.
  slot->snapshot_.store(std::move(snapshot), std::memory_order_release);
  slot->stamp_.store(stamp, std::memory_order_seq_cst);
  slot->Touch(now);
  resident_bytes_.Add(static_cast<int64_t>(bytes) -
                      static_cast<int64_t>(slot->resident_bytes_));
  if (slot->resident_bytes_ == 0) resident_listings_.Add(1);
  slot->resident_bytes_ = bytes;
  return static_cast<const CurveSlot*>(slot);
}

Status CatalogRegistry::Withdraw(const std::string& curve_id) {
  const CurveRef ref = interner_.Find(curve_id);
  if (ref == kInvalidCurveRef) {
    return NotFoundError("no published curve with id '" + curve_id + "'");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  WithdrawSlotLocked(EnsureSlotLocked(ref));
  return Status::OK();
}

size_t CatalogRegistry::EvictIdle(uint64_t now_micros, uint64_t idle_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t evicted = 0;
  const size_t n = interner_.size();
  for (size_t ref = 0; ref < n; ++ref) {
    CurveSlot* s = EnsureSlotLocked(static_cast<CurveRef>(ref));
    if (s->resident_bytes_ == 0) continue;
    const uint64_t touch = s->last_touch_micros();
    if (touch + idle_micros <= now_micros) {
      WithdrawSlotLocked(s);
      ++evicted;
    }
  }
  return evicted;
}

}  // namespace mbp::serving
