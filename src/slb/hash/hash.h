// Hash primitives used across the library.
//
// Greedy-d (Sec. III-B of the paper) assumes d independent hash functions
// F_1..F_d mapping the key space uniformly onto [n]. We provide several
// industrial-strength 64-bit hashes (MurmurHash3 finalizer, xxHash64,
// FNV-1a, tabulation hashing) implemented from scratch; HashFamily composes
// any of them with per-function seeds into the family Greedy-d needs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace slb {

/// MurmurHash3's 64-bit finalizer (fmix64). An excellent mixer for integer
/// keys: bijective, passes avalanche tests. Inline: SeededHash64 runs it
/// twice per candidate on the routing hot path.
inline uint64_t Murmur3Fmix64(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ULL;
  key ^= key >> 33;
  return key;
}

/// Full MurmurHash3 x64-128 over a byte buffer, returning the low 64 bits.
uint64_t Murmur3_x64_64(const void* data, size_t len, uint64_t seed);

/// xxHash64 over a byte buffer.
uint64_t XxHash64(const void* data, size_t len, uint64_t seed);

/// FNV-1a 64-bit over a byte buffer (weak but fast; used in tests as a
/// deliberately lower-quality comparator).
uint64_t Fnv1a64(const void* data, size_t len);

/// Hashes a 64-bit key with a seed: mix of seed and key through fmix64
/// applied twice, giving independent functions for distinct seeds.
inline uint64_t SeededHash64(uint64_t key, uint64_t seed) {
  // XOR-fold the seed in before and between the two mixing rounds so that
  // families {H_seed} behave as independent functions (verified empirically
  // in hash_test.cc via pairwise collision statistics).
  uint64_t h = key ^ (seed * 0x9e3779b97f4a7c15ULL);
  h = Murmur3Fmix64(h);
  h ^= seed;
  return Murmur3Fmix64(h);
}

/// Maps a 64-bit hash onto [0, n) without modulo bias (fixed-point multiply).
inline uint32_t HashToRange(uint64_t hash, uint32_t n) {
  return static_cast<uint32_t>(
      (static_cast<__uint128_t>(hash) * static_cast<__uint128_t>(n)) >> 64);
}

/// Convenience: hash of a string (used to key real-world-style tuples).
uint64_t HashString64(std::string_view text, uint64_t seed = 0);

/// 4-table tabulation hashing over 64-bit keys (processes 16-bit chunks).
/// 3-independent; strong theoretical guarantees for load-balancing
/// applications (Patrascu & Thorup). Tables are filled from a seed.
class TabulationHash {
 public:
  explicit TabulationHash(uint64_t seed);

  uint64_t Hash(uint64_t key) const {
    return tables_[0][key & 0xffff] ^ tables_[1][(key >> 16) & 0xffff] ^
           tables_[2][(key >> 32) & 0xffff] ^ tables_[3][(key >> 48) & 0xffff];
  }

 private:
  uint64_t tables_[4][65536];
};

}  // namespace slb
