#include "common/hash.h"

#include <string_view>

#include <gtest/gtest.h>

namespace mbp {
namespace {

// Published FNV-1a test vectors. These hashes are wire, WAL and ring
// contracts (common/hash.h), so a refactor that changes one must fail here.
TEST(HashTest, Fnv1aKnownAnswers) {
  struct Vector {
    std::string_view input;
    uint32_t fnv32;
    uint64_t fnv64;
  };
  const Vector kVectors[] = {
      {"", 0x811c9dc5u, 0xcbf29ce484222325ull},
      {"a", 0xe40c292cu, 0xaf63dc4c8601ec8cull},
      {"foobar", 0xbf9cf968u, 0x85944171f73967e8ull},
  };
  for (const Vector& v : kVectors) {
    EXPECT_EQ(Fnv1a32(v.input), v.fnv32) << '"' << v.input << '"';
    EXPECT_EQ(Fnv1a32(v.input.data(), v.input.size()), v.fnv32);
    EXPECT_EQ(Fnv1a64(v.input), v.fnv64) << '"' << v.input << '"';
  }
}

TEST(HashTest, Fnv1a64BasisIsTheStartingState) {
  EXPECT_EQ(Fnv1a64("", 42), 42u);
  EXPECT_EQ(Fnv1a64("foobar", kFnv1a64Basis), Fnv1a64("foobar"));
  EXPECT_NE(Fnv1a64("foobar", 1469598103934665603ull), Fnv1a64("foobar"));
}

// HashMix64 is the splitmix64 finalizer: from state 0 it yields
// splitmix64's first published output.
TEST(HashTest, HashMix64MatchesSplitmix64) {
  EXPECT_EQ(HashMix64(0), 0xe220a8397b1dcdafull);
}

}  // namespace
}  // namespace mbp
