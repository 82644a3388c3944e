// CRC-32C (Castagnoli) used to protect on-disk virtual-log records and the parked log tail.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace vlog::common {

// Computes CRC-32C over `data`, chaining from `seed` (pass the previous result to extend). Runs
// on the SSE4.2 crc32 instruction when the CPU has it (checked once, on first use) and on
// Crc32cTable otherwise; both compute the same polynomial, so the result never depends on the
// CPU.
uint32_t Crc32c(std::span<const std::byte> data, uint32_t seed = 0);

// The portable slicing-by-8 table implementation: Crc32c's fallback and the reference the
// hardware path is tested against.
uint32_t Crc32cTable(std::span<const std::byte> data, uint32_t seed = 0);

// Whether Crc32c runs on the hardware instruction on this CPU.
bool Crc32cUsesHardware();

}  // namespace vlog::common

#endif  // SRC_COMMON_CRC32_H_
