#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define VLOG_CRC32C_SSE42 1
#endif

namespace vlog::common {
namespace {

constexpr uint32_t kPolynomial = 0x82f63b78;  // Reflected CRC-32C polynomial.

// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table; t[k][i] advances byte i
// through k additional zero bytes, so eight input bytes fold into the CRC with eight
// independent table lookups per iteration instead of eight serially dependent ones.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t{};
};

Tables BuildTables() {
  Tables tables;
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

const Tables& T() {
  static const Tables tables = BuildTables();
  return tables;
}

// Both kernels advance the raw (pre-inverted) register `crc` over `n` bytes at `p`.
using Kernel = uint32_t (*)(const std::byte* p, size_t n, uint32_t crc);

uint32_t TableKernel(const std::byte* p, size_t n, uint32_t crc) {
  const auto& t = T().t;
  // The 8-byte inner loop reads two little-endian words; on a big-endian target the byte
  // loop below handles everything (same polynomial, same result).
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
            t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*p++)) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#ifdef VLOG_CRC32C_SSE42
// The SSE4.2 crc32 instruction implements exactly this reflected polynomial, eight bytes per
// step. Compiled for SSE4.2 whatever the build's target flags; called only once the CPU has
// reported the feature.
__attribute__((target("sse4.2"))) uint32_t Sse42Kernel(const std::byte* p, size_t n,
                                                       uint32_t crc) {
  uint64_t wide = crc;
  while (n >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    wide = _mm_crc32_u64(wide, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(wide);
  if (n >= 4) {
    uint32_t word = 0;
    std::memcpy(&word, p, 4);
    crc = _mm_crc32_u32(crc, word);
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = _mm_crc32_u8(crc, static_cast<uint8_t>(*p++));
  }
  return crc;
}
#endif

Kernel ResolveKernel() {
#ifdef VLOG_CRC32C_SSE42
  // Initializing the CPU model first makes the check valid even when the first CRC is taken
  // from another translation unit's static initializer.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return Sse42Kernel;
  }
#endif
  return TableKernel;
}

// Resolved once, on first use; a function-local static is thread-safe to initialize.
Kernel ActiveKernel() {
  static const Kernel kernel = ResolveKernel();
  return kernel;
}

}  // namespace

uint32_t Crc32c(std::span<const std::byte> data, uint32_t seed) {
  return ~ActiveKernel()(data.data(), data.size(), ~seed);
}

uint32_t Crc32cTable(std::span<const std::byte> data, uint32_t seed) {
  return ~TableKernel(data.data(), data.size(), ~seed);
}

bool Crc32cUsesHardware() { return ActiveKernel() != TableKernel; }

}  // namespace vlog::common
