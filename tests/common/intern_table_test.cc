// InternTable (common/intern_table.h): dense ref assignment, adversarial
// keys (embedded NULs, max-length ids, real FNV-1a-32 collisions), grow
// behavior, and the lock-free Find contract under concurrent interning.

#include "common/intern_table.h"

#include <atomic>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"

namespace mbp {
namespace {

TEST(InternTableTest, AssignsDenseRefsInInsertionOrder) {
  InternTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Intern("alpha"), 0u);
  EXPECT_EQ(table.Intern("beta"), 1u);
  EXPECT_EQ(table.Intern("gamma"), 2u);
  EXPECT_EQ(table.size(), 3u);
  // Re-interning is idempotent.
  EXPECT_EQ(table.Intern("beta"), 1u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(InternTableTest, FindMatchesInternAndMissesUnknownKeys) {
  InternTable table;
  table.Intern("alpha");
  table.Intern("beta");
  EXPECT_EQ(table.Find("alpha"), 0u);
  EXPECT_EQ(table.Find("beta"), 1u);
  EXPECT_EQ(table.Find("gamma"), InternTable::kNotFound);
  EXPECT_EQ(table.Find(""), InternTable::kNotFound);
}

TEST(InternTableTest, KeyOfReturnsStableBytes) {
  InternTable table;
  std::vector<std::string_view> views;
  for (int i = 0; i < 1000; ++i) {
    const uint32_t ref = table.Intern("key-" + std::to_string(i));
    views.push_back(table.KeyOf(ref));
  }
  // Growing the table 1000 keys deep must not have moved earlier entries.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(views[i], "key-" + std::to_string(i));
    EXPECT_EQ(table.KeyOf(static_cast<uint32_t>(i)), views[i]);
  }
}

TEST(InternTableTest, EmptyKeyIsALegalDistinctKey) {
  InternTable table;
  const uint32_t ref = table.Intern("");
  EXPECT_EQ(table.Find(""), ref);
  EXPECT_EQ(table.KeyOf(ref), "");
  EXPECT_EQ(table.Intern(""), ref);
}

TEST(InternTableTest, EmbeddedNulBytesAreSignificant) {
  InternTable table;
  const std::string_view with_nul("a\0b", 3);
  const std::string_view with_nul2("a\0c", 3);
  const std::string_view prefix("a", 1);
  const uint32_t r1 = table.Intern(with_nul);
  const uint32_t r2 = table.Intern(with_nul2);
  const uint32_t r3 = table.Intern(prefix);
  EXPECT_NE(r1, r2);
  EXPECT_NE(r1, r3);
  EXPECT_EQ(table.Find(with_nul), r1);
  EXPECT_EQ(table.Find(with_nul2), r2);
  EXPECT_EQ(table.Find(prefix), r3);
  EXPECT_EQ(table.KeyOf(r1), with_nul);
  // NUL-only keys of different lengths are distinct.
  const uint32_t n1 = table.Intern(std::string_view("\0", 1));
  const uint32_t n2 = table.Intern(std::string_view("\0\0", 2));
  EXPECT_NE(n1, n2);
}

TEST(InternTableTest, MaxLengthWireIdsRoundTrip) {
  // The wire protocol caps curve ids at 255 bytes; the table itself has
  // no limit, but the boundary length must round-trip exactly.
  InternTable table;
  std::string id(255, 'x');
  id[0] = 'a';
  id[254] = 'z';
  const uint32_t ref = table.Intern(id);
  EXPECT_EQ(table.Find(id), ref);
  EXPECT_EQ(table.KeyOf(ref), id);
  // One byte shorter is a different key.
  EXPECT_EQ(table.Find(std::string_view(id).substr(0, 254)),
            InternTable::kNotFound);
}

TEST(InternTableTest, RealFnvCollisionsResolveByByteCompare) {
  // Brute-force a genuine FNV-1a-32 colliding pair (birthday bound:
  // ~2^16 draws expected; the 32-bit hash was chosen so this is cheap).
  std::unordered_map<uint32_t, std::string> seen;
  std::string a, b;
  for (size_t i = 0; i < 500000; ++i) {
    std::string key = "collide-" + std::to_string(i);
    const uint32_t h = Fnv1a32(key);
    const auto it = seen.find(h);
    if (it != seen.end()) {
      a = it->second;
      b = key;
      break;
    }
    seen.emplace(h, std::move(key));
  }
  ASSERT_FALSE(b.empty()) << "no FNV-1a-32 collision within 500k draws";
  ASSERT_EQ(Fnv1a32(a), Fnv1a32(b));
  ASSERT_NE(a, b);

  InternTable table;
  const uint32_t ra = table.Intern(a);
  const uint32_t rb = table.Intern(b);
  EXPECT_NE(ra, rb) << "colliding keys must get distinct refs";
  EXPECT_EQ(table.Find(a), ra);
  EXPECT_EQ(table.Find(b), rb);
  EXPECT_EQ(table.KeyOf(ra), a);
  EXPECT_EQ(table.KeyOf(rb), b);
  EXPECT_EQ(table.Intern(a), ra);
  EXPECT_EQ(table.Intern(b), rb);
}

TEST(InternTableTest, ConcurrentInternAndFindAgreeOnRefs) {
  // Writers intern overlapping key ranges while readers Find
  // concurrently; afterwards every key has exactly one ref and Find/KeyOf
  // agree. Run under scripts/tsan.sh this also checks the grow/publish
  // ordering (retired tables, release stores).
  InternTable table;
  constexpr int kKeys = 4000;
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&table, w] {
      // Each writer covers the full range, offset so they contend.
      for (int i = 0; i < kKeys; ++i) {
        const int k = (i * (w + 1)) % kKeys;
        table.Intern("k" + std::to_string(k));
      }
    });
  }
  std::thread reader([&table, &stop] {
    uint64_t hits = 0;
    // do-while: a reader first scheduled after the writers are done still
    // makes one pass, so `hits` cannot read 0 just because it started late.
    do {
      for (int i = 0; i < kKeys; i += 97) {
        const uint32_t ref = table.Find("k" + std::to_string(i));
        if (ref != InternTable::kNotFound) {
          // A found ref must immediately be consistent.
          if (table.KeyOf(ref) == "k" + std::to_string(i)) ++hits;
        }
      }
    } while (!stop.load(std::memory_order_acquire));
    EXPECT_GT(hits, 0u);
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(table.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    const uint32_t ref = table.Find(key);
    ASSERT_NE(ref, InternTable::kNotFound) << key;
    EXPECT_EQ(table.KeyOf(ref), key);
  }
}

}  // namespace
}  // namespace mbp
