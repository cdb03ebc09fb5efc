// CRC32C known-answer tests, masking behaviour, and agreement between the
// portable and hardware paths.
#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace lilsm {
namespace crc32c {
namespace {

TEST(Crc32cTest, StandardResults) {
  // Known-answer vectors from the CRC32C specification (iSCSI / RFC 3720,
  // also used by LevelDB's crc32c_test).
  char buf[32];
  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x8a9136aau);
  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x62a8ab43u);
  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x46dd794eu);
  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x113fdb5cu);
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
  EXPECT_NE(Value("a", 1), Value("b", 1));
}

TEST(Crc32cTest, ExtendComposes) {
  std::string hello = "hello ";
  std::string world = "world";
  std::string both = hello + world;
  EXPECT_EQ(Value(both.data(), both.size()),
            Extend(Value(hello.data(), hello.size()), world.data(),
                   world.size()));
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  const uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(Value("", 0), 0u);
}

// A fixed 4 KiB buffer from a xorshift32 stream; its CRC was computed by
// the byte-at-a-time table loop that wrote every existing WAL, table and
// wire frame, so this pins the on-disk format across implementations.
std::string GoldenBuffer() {
  std::string buf(4096, '\0');
  uint32_t x = 0x9E3779B9u;
  for (char& c : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    c = static_cast<char>(x >> 24);
  }
  return buf;
}

TEST(Crc32cTest, GoldenFourKiB) {
  const std::string buf = GoldenBuffer();
  EXPECT_EQ(Value(buf.data(), buf.size()), 0xc8111e83u);
  EXPECT_EQ(internal::ExtendPortable(0, buf.data(), buf.size()), 0xc8111e83u);
  if (IsHardwareAccelerated()) {
    EXPECT_EQ(internal::ExtendHardware(0, buf.data(), buf.size()),
              0xc8111e83u);
  }
}

TEST(Crc32cTest, DispatchPicksHardwareWhenCpuHasIt) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(IsHardwareAccelerated(),
            static_cast<bool>(__builtin_cpu_supports("sse4.2")));
#else
  EXPECT_FALSE(IsHardwareAccelerated());
#endif
}

TEST(Crc32cTest, HardwareMatchesPortable) {
  if (!IsHardwareAccelerated()) GTEST_SKIP() << "no hardware CRC32C path";
  std::mt19937 rng(301);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 300; n++) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(4700);
  // Start offsets 0-7 inside an oversized buffer exercise every alignment
  // of the 8-byte loads; a random initial CRC exercises Extend's chaining.
  std::string storage(4700 + 8, '\0');
  for (size_t n : lengths) {
    for (size_t offset = 0; offset < 8; offset++) {
      for (char& c : storage) c = static_cast<char>(rng());
      const char* p = storage.data() + offset;
      const uint32_t init = rng();
      ASSERT_EQ(internal::ExtendHardware(0, p, n),
                internal::ExtendPortable(0, p, n))
          << "length " << n << " offset " << offset;
      ASSERT_EQ(internal::ExtendHardware(init, p, n),
                internal::ExtendPortable(init, p, n))
          << "length " << n << " offset " << offset << " init " << init;
    }
  }
}

TEST(Crc32cTest, ExtendComposesAtEverySplit) {
  using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);
  std::vector<ExtendFn> paths = {&Extend, &internal::ExtendPortable};
  if (IsHardwareAccelerated()) paths.push_back(&internal::ExtendHardware);
  char buf[64];
  for (int i = 0; i < 64; i++) buf[i] = static_cast<char>(i * 37 + 11);
  const uint32_t whole = internal::ExtendPortable(0, buf, sizeof(buf));
  for (size_t path = 0; path < paths.size(); path++) {
    const ExtendFn extend = paths[path];
    for (size_t split = 0; split <= sizeof(buf); split++) {
      EXPECT_EQ(whole, extend(extend(0, buf, split), buf + split,
                              sizeof(buf) - split))
          << "path " << path << " split " << split;
    }
  }
}

}  // namespace
}  // namespace crc32c
}  // namespace lilsm
