#ifndef MBP_COMMON_SHARDED_CACHE_H_
#define MBP_COMMON_SHARDED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace mbp {

// Rounds v up to the next power of two (returns 1 for v == 0).
constexpr uint64_t NextPowerOfTwo(uint64_t v) {
  if (v <= 1) return 1;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  v |= v >> 32;
  return v + 1;
}

// A concurrent memoization cache sharded over power-of-two `Shard`s, each a
// fixed, direct-mapped slot array. One hash picks both the shard (low bits)
// and the slot within it (high bits); the critical section under the shard
// mutex is a two-word key compare — no node allocation, no rehash, no probe
// loop. Point lookups touch exactly one shard, so readers of distinct
// shards never contend. Designed for the price-query serving hot path but
// generic over any (64-bit key x salt) -> Value memo.
//
// Keys are (primary, salt) pairs; both must match exactly for a hit. The
// serving engine uses primary = bit pattern of the (quantized) query and
// salt = the curve slot's publish stamp, so republishing a curve implicitly
// invalidates every cached entry without any scan. Salt 0 is reserved to
// mark empty slots: Put with salt 0 is dropped and TryGet with salt 0
// always misses (registry stamps start at 1, so the engine never sees
// this).
//
// Eviction is by collision: an insert whose slot is occupied by a different
// key overwrites it. A memo cache tolerates that lossy policy — a displaced
// recurring key is simply re-inserted on its next miss — and it bounds
// memory at shards * capacity * sizeof(slot) with zero bookkeeping on the
// hit path.
template <typename Value>
class ShardedMemoCache {
 public:
  // `num_shards` and `capacity_per_shard` are rounded up to powers of two.
  // A capacity of 0 disables caching entirely (every TryGet misses, Put is
  // a no-op, and no slot memory is allocated).
  ShardedMemoCache(size_t num_shards, size_t capacity_per_shard)
      : shard_mask_(NextPowerOfTwo(num_shards) - 1),
        slot_mask_(capacity_per_shard == 0
                       ? 0
                       : NextPowerOfTwo(capacity_per_shard) - 1),
        enabled_(capacity_per_shard > 0),
        shards_(shard_mask_ + 1) {
    if (enabled_) {
      for (Shard& shard : shards_) shard.slots.resize(slot_mask_ + 1);
    }
  }

  ShardedMemoCache(const ShardedMemoCache&) = delete;
  ShardedMemoCache& operator=(const ShardedMemoCache&) = delete;

  size_t num_shards() const { return shards_.size(); }
  size_t capacity_per_shard() const { return enabled_ ? slot_mask_ + 1 : 0; }

  // True and fills *value on a hit. Counts hits/misses.
  bool TryGet(uint64_t primary, uint64_t salt, Value* value) const {
    if (!enabled_ || salt == 0) {
      disabled_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const uint64_t h = HashMix64(primary ^ HashMix64(salt));
    Shard& shard = shards_[h & shard_mask_];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const Slot& slot = shard.slots[(h >> 32) & slot_mask_];
    if (slot.salt == salt && slot.primary == primary) {
      *value = slot.value;
      ++shard.hits;
      return true;
    }
    ++shard.misses;
    return false;
  }

  // Single-lock lookup-or-fill: on a miss, `miss` is invoked (under the
  // shard mutex — it must be pure and lock-free) to produce the value,
  // which is stored in the slot and returned. Returns false only when
  // `miss` itself returns false (nothing cached then). One hash and one
  // lock acquisition instead of the TryGet + Put pair.
  template <typename MissFn>
  bool GetOrCompute(uint64_t primary, uint64_t salt, Value* value,
                    const MissFn& miss) const {
    if (!enabled_ || salt == 0) {
      disabled_misses_.fetch_add(1, std::memory_order_relaxed);
      return miss(value);
    }
    const uint64_t h = HashMix64(primary ^ HashMix64(salt));
    Shard& shard = shards_[h & shard_mask_];
    std::lock_guard<std::mutex> lock(shard.mutex);
    Slot& slot = shard.slots[(h >> 32) & slot_mask_];
    if (slot.salt == salt && slot.primary == primary) {
      *value = slot.value;
      ++shard.hits;
      return true;
    }
    ++shard.misses;
    if (!miss(value)) return false;
    if (slot.salt == 0) ++shard.occupied;
    slot.primary = primary;
    slot.salt = salt;
    slot.value = *value;
    return true;
  }

  void Put(uint64_t primary, uint64_t salt, const Value& value) {
    if (!enabled_ || salt == 0) return;
    const uint64_t h = HashMix64(primary ^ HashMix64(salt));
    Shard& shard = shards_[h & shard_mask_];
    std::lock_guard<std::mutex> lock(shard.mutex);
    Slot& slot = shard.slots[(h >> 32) & slot_mask_];
    if (slot.salt == 0) ++shard.occupied;
    slot.primary = primary;
    slot.salt = salt;
    slot.value = value;
  }

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (Slot& slot : shard.slots) slot = Slot{};
      shard.occupied = 0;
    }
  }

  // Number of occupied slots across all shards.
  size_t size() const {
    size_t total = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.occupied;
    }
    return total;
  }

  uint64_t hits() const {
    uint64_t total = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.hits;
    }
    return total;
  }

  uint64_t misses() const {
    uint64_t total = disabled_misses_.load(std::memory_order_relaxed);
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.misses;
    }
    return total;
  }

 private:
  struct Slot {
    uint64_t primary = 0;
    uint64_t salt = 0;  // 0 == empty
    Value value{};
  };
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Slot> slots;
    // Stats live under the shard mutex (already held on every cache op),
    // so the hot path pays a plain increment, not an atomic RMW.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t occupied = 0;
  };

  const uint64_t shard_mask_;
  const uint64_t slot_mask_;
  const bool enabled_;
  mutable std::vector<Shard> shards_;
  // Misses recorded while the cache is disabled (no shard mutex to count
  // under — shards hold no slots).
  mutable std::atomic<uint64_t> disabled_misses_{0};
};

}  // namespace mbp

#endif  // MBP_COMMON_SHARDED_CACHE_H_
