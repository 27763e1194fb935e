// Hash functions used by the storage systems.
//
// - Fnv1a64: the key hash for PRISM-KV / Pilaf / PRISM-TX hash tables.
// - Crc32: Pilaf's self-verifying extents need an application-level checksum
//   to detect reads torn by concurrent server-CPU writes (§6 of the paper;
//   PRISM-KV's out-of-place updates make this unnecessary, which is part of
//   its bandwidth win in Figure 3).
// - Fingerprint64: a word-at-a-time 64-bit hash (four 8-byte lanes, then a
//   final mix) for value fingerprints in the correctness checkers.
// - MixU64: cheap integer finalizer for collision-free bucket placement in
//   benches that model the paper's "collisionless hash function".
#ifndef PRISM_SRC_COMMON_HASH_H_
#define PRISM_SRC_COMMON_HASH_H_

#include <cstdint>

#include "src/common/bytes.h"

namespace prism {

uint64_t Fnv1a64(ByteView data);
uint64_t Fnv1a64(std::string_view data);

// CRC-32 (IEEE 802.3 polynomial, reflected, table-driven, 8 bytes a step).
uint32_t Crc32(ByteView data);
uint32_t Crc32(const uint8_t* data, size_t len);

// Changing any one 8-byte word of the input always changes the state the
// final mix is applied to, so such inputs never collide; the length is
// mixed in too, so zero padding does not alias a shorter input.
uint64_t Fingerprint64(ByteView data);

// Stafford variant 13 of the splitmix64 finalizer: a bijective mixer.
inline uint64_t MixU64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace prism

#endif  // PRISM_SRC_COMMON_HASH_H_
