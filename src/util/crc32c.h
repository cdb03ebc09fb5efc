// CRC32C (Castagnoli) checksums used by the WAL and table footers.
#ifndef LILSM_UTIL_CRC32C_H_
#define LILSM_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lilsm {
namespace crc32c {

/// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the
/// crc32c of some string A. Uses the SSE4.2 crc32 instruction when the
/// CPU has it and a portable table loop otherwise; both give equal values.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// True when Extend runs on the hardware path (decided once, at first use).
bool IsHardwareAccelerated();

namespace internal {
/// The two Extend implementations, exposed for tests and benches.
/// ExtendHardware may be called only when IsHardwareAccelerated(); on
/// non-x86-64 builds it is the portable loop.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);
}  // namespace internal

/// crc32c of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

/// Masked CRCs are stored on disk so that a CRC of data that itself
/// contains embedded CRCs does not degrade (LevelDB convention).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace lilsm

#endif  // LILSM_UTIL_CRC32C_H_
