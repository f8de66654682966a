#include "slb/hash/hash.h"

#include <cstring>

#include "slb/common/rng.h"

namespace slb {

namespace {

inline uint64_t Rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // Little-endian host assumed (x86-64 / aarch64).
}

inline uint32_t LoadLE32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

uint64_t Murmur3_x64_64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  const size_t nblocks = len / 16;

  uint64_t h1 = seed;
  uint64_t h2 = seed;
  const uint64_t c1 = 0x87c37b91114253d5ULL;
  const uint64_t c2 = 0x4cf5ad432745937fULL;

  for (size_t i = 0; i < nblocks; ++i) {
    uint64_t k1 = LoadLE64(bytes + i * 16);
    uint64_t k2 = LoadLE64(bytes + i * 16 + 8);

    k1 *= c1;
    k1 = Rotl64(k1, 31);
    k1 *= c2;
    h1 ^= k1;
    h1 = Rotl64(h1, 27);
    h1 += h2;
    h1 = h1 * 5 + 0x52dce729;

    k2 *= c2;
    k2 = Rotl64(k2, 33);
    k2 *= c1;
    h2 ^= k2;
    h2 = Rotl64(h2, 31);
    h2 += h1;
    h2 = h2 * 5 + 0x38495ab5;
  }

  const uint8_t* tail = bytes + nblocks * 16;
  uint64_t k1 = 0;
  uint64_t k2 = 0;
  switch (len & 15) {
    case 15: k2 ^= static_cast<uint64_t>(tail[14]) << 48; [[fallthrough]];
    case 14: k2 ^= static_cast<uint64_t>(tail[13]) << 40; [[fallthrough]];
    case 13: k2 ^= static_cast<uint64_t>(tail[12]) << 32; [[fallthrough]];
    case 12: k2 ^= static_cast<uint64_t>(tail[11]) << 24; [[fallthrough]];
    case 11: k2 ^= static_cast<uint64_t>(tail[10]) << 16; [[fallthrough]];
    case 10: k2 ^= static_cast<uint64_t>(tail[9]) << 8; [[fallthrough]];
    case 9:
      k2 ^= static_cast<uint64_t>(tail[8]);
      k2 *= c2;
      k2 = Rotl64(k2, 33);
      k2 *= c1;
      h2 ^= k2;
      [[fallthrough]];
    case 8: k1 ^= static_cast<uint64_t>(tail[7]) << 56; [[fallthrough]];
    case 7: k1 ^= static_cast<uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: k1 ^= static_cast<uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: k1 ^= static_cast<uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: k1 ^= static_cast<uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: k1 ^= static_cast<uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<uint64_t>(tail[0]);
      k1 *= c1;
      k1 = Rotl64(k1, 31);
      k1 *= c2;
      h1 ^= k1;
      break;
    case 0:
      break;
  }

  h1 ^= static_cast<uint64_t>(len);
  h2 ^= static_cast<uint64_t>(len);
  h1 += h2;
  h2 += h1;
  h1 = Murmur3Fmix64(h1);
  h2 = Murmur3Fmix64(h2);
  h1 += h2;
  return h1;
}

uint64_t XxHash64(const void* data, size_t len, uint64_t seed) {
  static constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  static constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  static constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;
  static constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
  static constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* end = p + len;
  uint64_t h;

  if (len >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    const uint8_t* limit = end - 32;
    do {
      v1 = Rotl64(v1 + LoadLE64(p) * kPrime2, 31) * kPrime1;
      v2 = Rotl64(v2 + LoadLE64(p + 8) * kPrime2, 31) * kPrime1;
      v3 = Rotl64(v3 + LoadLE64(p + 16) * kPrime2, 31) * kPrime1;
      v4 = Rotl64(v4 + LoadLE64(p + 24) * kPrime2, 31) * kPrime1;
      p += 32;
    } while (p <= limit);
    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    auto merge = [&h](uint64_t v) {
      h ^= Rotl64(v * kPrime2, 31) * kPrime1;
      h = h * kPrime1 + kPrime4;
    };
    merge(v1);
    merge(v2);
    merge(v3);
    merge(v4);
  } else {
    h = seed + kPrime5;
  }

  h += static_cast<uint64_t>(len);
  while (p + 8 <= end) {
    h ^= Rotl64(LoadLE64(p) * kPrime2, 31) * kPrime1;
    h = Rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(LoadLE32(p)) * kPrime1;
    h = Rotl64(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = Rotl64(h, 11) * kPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t Fnv1a64(const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashString64(std::string_view text, uint64_t seed) {
  return XxHash64(text.data(), text.size(), seed);
}

TabulationHash::TabulationHash(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& table : tables_) {
    for (auto& entry : table) entry = SplitMix64(&sm);
  }
}

}  // namespace slb
