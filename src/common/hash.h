#ifndef MBP_COMMON_HASH_H_
#define MBP_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mbp {

// The repo's non-cryptographic hashes, defined once. Their outputs are
// contracts, not implementation details: FNV-1a-32 is the wire-frame and
// WAL-record checksum and the InternTable's bucket hash; FNV-1a-64 derives
// consistent-hash ring points, fault-injection stream selectors and
// fulfillment training-set seeds, all of which must agree across
// processes and releases. Changing any of them is a protocol/WAL version
// bump. tests/common/hash_test.cc pins known answers.

inline constexpr uint32_t kFnv1a32Basis = 2166136261u;
inline constexpr uint64_t kFnv1a64Basis = 14695981039346656037ull;

// FNV-1a-32 over `size` bytes at `data`.
inline uint32_t Fnv1a32(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t hash = kFnv1a32Basis;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 16777619u;
  }
  return hash;
}

inline uint32_t Fnv1a32(std::string_view bytes) {
  return Fnv1a32(bytes.data(), bytes.size());
}

// FNV-1a-64 over `bytes`, starting from `basis` (the standard offset basis
// unless a caller's recorded outputs were defined with another one).
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t basis = kFnv1a64Basis) {
  uint64_t hash = basis;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// splitmix64 finalizer: a cheap full-avalanche mix, so that keys differing
// only in high bits (e.g. bit patterns of nearby doubles) still spread
// across power-of-two shard/slot masks. A bijection — never use it where
// the input must stay secret.
inline uint64_t HashMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace mbp

#endif  // MBP_COMMON_HASH_H_
