#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define HDOV_CRC32C_X86 1
#endif

namespace hdov {
namespace {

// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

struct Tables {
  // table[k][b]: CRC of byte b followed by k zero bytes.
  std::array<std::array<uint32_t, 256>, 8> t;

  Tables() {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][b] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

#ifdef HDOV_CRC32C_X86
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli
// CRC as the tables, without the pre/post inversion. Bytes up to an 8-byte
// boundary, then whole words, then the tail.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  uint64_t c64 = c;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
    p += 8;
    n -= 8;
  }
  c = static_cast<uint32_t>(c64);
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  return ~c;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn PickExtend() {
#ifdef HDOV_CRC32C_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return &ExtendSse42;
  }
#endif
  return &Crc32cExtendPortable;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const Tables& tab = tables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = tab.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
    --n;
  }
  while (n >= 8) {
    uint32_t lo = Load32(p) ^ c;
    uint32_t hi = Load32(p + 4);
    c = tab.t[7][lo & 0xFFu] ^ tab.t[6][(lo >> 8) & 0xFFu] ^
        tab.t[5][(lo >> 16) & 0xFFu] ^ tab.t[4][lo >> 24] ^
        tab.t[3][hi & 0xFFu] ^ tab.t[2][(hi >> 8) & 0xFFu] ^
        tab.t[1][(hi >> 16) & 0xFFu] ^ tab.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = tab.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
    --n;
  }
  return ~c;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  // Chosen once, on the first call, from the CPU this process runs on.
  static const ExtendFn kExtend = PickExtend();
  return kExtend(crc, data, n);
}

}  // namespace hdov
