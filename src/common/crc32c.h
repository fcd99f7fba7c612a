// CRC32C (Castagnoli polynomial, iSCSI/ext4 flavour) used to checksum
// on-disk pages and snapshot sections. One function, two paths that give
// identical bits: on x86-64 CPUs with SSE4.2 it runs the `crc32`
// instruction over 8-byte words (picked once at run time), elsewhere a
// slicing-by-8 table loop.

#ifndef HDOV_COMMON_CRC32C_H_
#define HDOV_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hdov {

// Extends `crc` (a previous Crc32c result, or 0 for a fresh run) with `n`
// bytes at `data`.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

// The table fallback of Crc32cExtend, whatever the CPU. Exposed only so
// tests can hold the hardware path to it; call Crc32cExtend instead.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

// Checksum of a whole buffer.
inline uint32_t Crc32c(std::string_view data) {
  return Crc32cExtend(0, data.data(), data.size());
}

}  // namespace hdov

#endif  // HDOV_COMMON_CRC32C_H_
