#include "common/intern_table.h"

#include <cstring>

#include "common/check.h"
#include "common/hash.h"

namespace mbp {
namespace {

constexpr size_t kInitialCapacity = 64;

}  // namespace

InternTable::Table* InternTable::NewTable(size_t capacity) {
  MBP_CHECK((capacity & (capacity - 1)) == 0);
  Table* table = new Table;
  table->mask = capacity - 1;
  // Value-initialized: every slot starts null.
  table->slots = new std::atomic<Entry*>[capacity]();
  return table;
}

void InternTable::FreeTable(Table* table) {
  delete[] table->slots;
  delete table;
}

void InternTable::InsertIntoTable(Table* table, Entry* entry) {
  size_t i = static_cast<size_t>(entry->hash) & table->mask;
  while (table->slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & table->mask;
  }
  // Release: a reader that observes the pointer observes the fully
  // written Entry (and its key bytes) behind it.
  table->slots[i].store(entry, std::memory_order_release);
}

InternTable::InternTable() : table_(NewTable(kInitialCapacity)) {}

InternTable::~InternTable() {
  FreeTable(table_.load(std::memory_order_relaxed));
  for (Table* t : retired_) FreeTable(t);
  for (auto& chunk : chunks_) {
    std::atomic<Entry*>* c = chunk.load(std::memory_order_relaxed);
    delete[] c;
  }
}

uint32_t InternTable::Find(std::string_view key) const {
  const uint32_t h = Fnv1a32(key);
  const Table* table = table_.load(std::memory_order_acquire);
  size_t i = static_cast<size_t>(h) & table->mask;
  while (true) {
    const Entry* e = table->slots[i].load(std::memory_order_acquire);
    if (e == nullptr) return kNotFound;
    if (e->hash == h && e->key() == key) return e->ref;
    i = (i + 1) & table->mask;
  }
}

std::string_view InternTable::KeyOf(uint32_t ref) const {
  MBP_CHECK_LT(ref, size());
  const std::atomic<Entry*>* chunk =
      chunks_[ref >> kChunkShift].load(std::memory_order_acquire);
  const Entry* e = chunk[ref & (kChunkEntries - 1)].load(
      std::memory_order_acquire);
  return e->key();
}

InternTable::Table* InternTable::GrowLocked(Table* old_table) {
  Table* fresh = NewTable((old_table->mask + 1) * 2);
  const uint32_t n = size_.load(std::memory_order_relaxed);
  for (uint32_t ref = 0; ref < n; ++ref) {
    std::atomic<Entry*>* chunk =
        chunks_[ref >> kChunkShift].load(std::memory_order_relaxed);
    InsertIntoTable(fresh,
                    chunk[ref & (kChunkEntries - 1)].load(
                        std::memory_order_relaxed));
  }
  // Readers mid-probe keep the old table; it stays allocated (retired_)
  // until destruction.
  table_.store(fresh, std::memory_order_release);
  retired_.push_back(old_table);
  return fresh;
}

uint32_t InternTable::Intern(std::string_view key) {
  // Optimistic lock-free fast path: the common case at steady state is a
  // key already interned.
  {
    const uint32_t ref = Find(key);
    if (ref != kNotFound) return ref;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Re-probe under the lock: another writer may have interned it between
  // the optimistic Find and lock acquisition.
  {
    const uint32_t ref = Find(key);
    if (ref != kNotFound) return ref;
  }
  const uint32_t ref = size_.load(std::memory_order_relaxed);
  MBP_CHECK_LT(ref, kMaxChunks * kChunkEntries);
  Table* table = table_.load(std::memory_order_relaxed);
  // Grow at 2/3 load so reader probe sequences stay short.
  if ((static_cast<size_t>(ref) + 1) * 3 > (table->mask + 1) * 2) {
    table = GrowLocked(table);
  }
  auto* entry = static_cast<Entry*>(
      arena_.Allocate(sizeof(Entry) + key.size(), alignof(Entry)));
  entry->hash = Fnv1a32(key);
  entry->ref = ref;
  entry->len = static_cast<uint32_t>(key.size());
  if (!key.empty()) {
    std::memcpy(const_cast<char*>(entry->bytes()), key.data(), key.size());
  }
  // Directory first, probe table second, size last: once a reader can
  // Find() the ref (via the probe table) or trust it (via size()), the
  // directory entry behind KeyOf() is already visible.
  const size_t chunk_index = ref >> kChunkShift;
  std::atomic<Entry*>* chunk =
      chunks_[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new std::atomic<Entry*>[kChunkEntries]();
    chunks_[chunk_index].store(chunk, std::memory_order_release);
  }
  chunk[ref & (kChunkEntries - 1)].store(entry, std::memory_order_release);
  InsertIntoTable(table, entry);
  size_.store(ref + 1, std::memory_order_release);
  return ref;
}

}  // namespace mbp
