#ifndef MBP_COMMON_INTERN_TABLE_H_
#define MBP_COMMON_INTERN_TABLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/arena.h"

namespace mbp {

// Interns byte strings into dense uint32 refs: the first distinct key gets
// ref 0, the next ref 1, and so on. Built for the serving catalog's curve
// ids (DESIGN.md §5g): the request path resolves a wire-buffer
// string_view to a ref with ONE open-addressed probe sequence and no
// lock, no allocation, and no std::string materialization; everything
// downstream then indexes dense arrays by ref.
//
// Concurrency contract:
//  - Find() and KeyOf() are lock-free and wait-free-ish (probe length is
//    bounded by the load factor), safe against any number of concurrent
//    Intern() calls.
//  - Intern() serializes writers on an internal mutex. Keys are
//    insert-only: refs are never reused or removed, so a ref observed
//    once is valid forever (the catalog withdraws *snapshots*, never id
//    bindings).
//  - Entry bytes live in an internal arena that is never Reset, so the
//    string_view returned by KeyOf() is stable for the table's lifetime.
//    When the probe table grows, the old slot array is retired but kept
//    allocated until destruction: a racing reader probing the old array
//    still sees valid entries (it may miss a key interned after the swap
//    and report kNotFound — the same answer it would have gotten a
//    moment earlier, which callers must already tolerate).
//
// Keys are arbitrary bytes: embedded NULs are significant and legal
// (curve ids on the wire are length-prefixed, not NUL-terminated).
//
// Hashing is Fnv1a32 (common/hash.h), the wire checksum's function. 32 bits
// is deliberate: collisions are resolved by a byte compare anyway, and a
// 32-bit space lets the test suite brute-force a real colliding pair in
// ~2^16 birthday draws to pin the collision path.
class InternTable {
 public:
  // Returned by Find() for keys never interned.
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  InternTable();
  ~InternTable();
  InternTable(const InternTable&) = delete;
  InternTable& operator=(const InternTable&) = delete;

  // Returns the ref of `key`, interning it first if new. Refs are dense:
  // size() - 1 after a fresh intern.
  uint32_t Intern(std::string_view key);

  // Lock-free, allocation-free lookup: the ref of `key`, or kNotFound.
  uint32_t Find(std::string_view key) const;

  // The key bytes behind `ref` (stable for the table's lifetime).
  // ref must be < size().
  std::string_view KeyOf(uint32_t ref) const;

  // Number of distinct keys interned. Acquire load: every ref < size()
  // is safe to pass to KeyOf().
  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  struct Entry {
    uint32_t hash = 0;
    uint32_t ref = 0;
    uint32_t len = 0;
    // Key bytes follow the struct in the same arena block.
    const char* bytes() const {
      return reinterpret_cast<const char*>(this) + sizeof(Entry);
    }
    std::string_view key() const { return {bytes(), len}; }
  };

  // Open-addressed probe table: power-of-two slot array of atomic entry
  // pointers, linear probing. Stored behind an atomic pointer so readers
  // can keep probing a retired table across a grow.
  struct Table {
    size_t mask = 0;                    // capacity - 1
    std::atomic<Entry*>* slots = nullptr;
  };

  // Ref -> Entry directory, chunked so it grows without ever moving or
  // reallocating a slot a reader might be loading: a fixed array of
  // atomic chunk pointers, each chunk a fixed array of atomic entry
  // pointers. 4096 chunks x 4096 entries = 16.7M interned keys max.
  static constexpr size_t kChunkShift = 12;
  static constexpr size_t kChunkEntries = size_t{1} << kChunkShift;
  static constexpr size_t kMaxChunks = 4096;

  static Table* NewTable(size_t capacity);
  static void FreeTable(Table* table);
  // Publishes `entry` into `table`'s probe sequence (writer-side only).
  static void InsertIntoTable(Table* table, Entry* entry);
  Table* GrowLocked(Table* old_table);

  mutable std::mutex mutex_;  // serializes Intern() writers only
  std::atomic<Table*> table_;
  std::atomic<uint32_t> size_{0};
  Arena arena_;  // Entry storage; never Reset, so entry addresses are stable
  std::vector<Table*> retired_;  // old probe tables readers may still hold
  std::array<std::atomic<std::atomic<Entry*>*>, kMaxChunks> chunks_{};
};

}  // namespace mbp

#endif  // MBP_COMMON_INTERN_TABLE_H_
