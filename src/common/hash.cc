#include "src/common/hash.h"

#include <array>
#include <cstring>

namespace prism {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Slicing-by-8 tables: kCrc[0] is the byte-at-a-time table, and kCrc[k][b]
// is the CRC of byte b followed by k zero bytes, so eight table lookups fold
// one 8-byte word.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

const CrcTables& Crc() {
  static const CrcTables tables = BuildCrcTables();
  return tables;
}

constexpr uint64_t kLanePrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kLanePrime2 = 0xc2b2ae3d27d4eb4full;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

// One lane step: a bijection of the lane for a fixed word and of the word
// for a fixed lane, so changing one word always changes its lane.
inline uint64_t LaneStep(uint64_t lane, uint64_t word) {
  return Rotl(lane + word * kLanePrime2, 31) * kLanePrime1;
}

}  // namespace

uint64_t Fnv1a64(ByteView data) {
  uint64_t h = kFnvOffset;
  for (uint8_t byte : data) {
    h ^= byte;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Fnv1a64(std::string_view data) {
  return Fnv1a64(ByteView(reinterpret_cast<const uint8_t*>(data.data()),
                          data.size()));
}

uint32_t Crc32(const uint8_t* data, size_t len) {
  const CrcTables& t = Crc();
  uint32_t c = 0xffffffffu;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = LoadU32(data) ^ c;
    const uint32_t hi = LoadU32(data + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32(ByteView data) { return Crc32(data.data(), data.size()); }

uint64_t Fingerprint64(ByteView data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t lane[4] = {kLanePrime1 + kLanePrime2, kLanePrime2, 0,
                      0 - kLanePrime1};
  for (; n >= 32; p += 32, n -= 32) {
    for (int i = 0; i < 4; ++i) lane[i] = LaneStep(lane[i], LoadU64(p + 8 * i));
  }
  // The tail (under 32 bytes) goes word by word into lanes 0..3, its last
  // partial word zero-padded; the length below tells padding from zeros.
  for (int i = 0; n > 0; ++i) {
    uint64_t word = 0;
    const size_t take = n < 8 ? n : 8;
    std::memcpy(&word, p, take);
    lane[i] = LaneStep(lane[i], word);
    p += take;
    n -= take;
  }
  uint64_t h = Rotl(lane[0], 1) + Rotl(lane[1], 7) + Rotl(lane[2], 12) +
               Rotl(lane[3], 18);
  h += static_cast<uint64_t>(data.size()) * kLanePrime1;
  return MixU64(h);
}

}  // namespace prism
