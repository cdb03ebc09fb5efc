#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace lilsm {
namespace crc32c {

namespace {

// Table for the portable CRC32C loop (polynomial 0x1EDC6F41, reflected
// 0x82F63B78). Built at compile time, so a CRC computed from another
// translation unit's static initializer sees the finished table.
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    t[i] = crc;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

bool DetectHardware() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli CRC
// as the table loop. Words are loaded with memcpy, so any alignment is fine.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const char* data,
                                                          size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  const char* p = data;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; p++, n--) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
  }
  return crc32 ^ 0xFFFFFFFFu;
}
#else
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
  return ExtendPortable(init_crc, data, n);
}
#endif

}  // namespace internal

bool IsHardwareAccelerated() {
  static const bool hardware = DetectHardware();
  return hardware;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  if (IsHardwareAccelerated()) {
    return internal::ExtendHardware(init_crc, data, n);
  }
  return internal::ExtendPortable(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace lilsm
