// The narrow device-driver interface shared by every disk in the system.
//
// A regular simulated disk and a Virtual Log Disk both export this interface, which is the
// point of the paper's VLD design: an unmodified file system gets eager writing for free.
#ifndef SRC_SIMDISK_BLOCK_DEVICE_H_
#define SRC_SIMDISK_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "src/common/status.h"
#include "src/simdisk/geometry.h"

namespace vlog::simdisk {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Reads `out.size()` bytes starting at sector `lba`. The size must be a whole number of
  // sectors. Charges simulated time to the device's clock.
  virtual common::Status Read(Lba lba, std::span<std::byte> out) = 0;

  // Writes `in.size()` bytes starting at sector `lba` (whole sectors). Acknowledged: when the
  // call returns the data is readable and, on a device without a volatile write cache,
  // durable. A device with a write-back cache may hold acknowledged writes in volatile state
  // until Flush() — a crash can lose them or destage them out of order.
  virtual common::Status Write(Lba lba, std::span<const std::byte> in) = 0;

  // Durability barrier: when Flush() returns, every write acknowledged before it is on stable
  // media. Devices without a volatile cache are always durable, hence the default no-op.
  virtual common::Status Flush() { return common::OkStatus(); }

  virtual uint64_t SectorCount() const = 0;
  virtual uint32_t SectorBytes() const = 0;

  // Whether [lba, lba + sectors) lies on the device. Written so that lba + sectors cannot wrap.
  bool InRange(Lba lba, uint64_t sectors) const {
    return lba <= SectorCount() && sectors <= SectorCount() - lba;
  }

  // The range check every implementation runs on a transfer of `bytes` at `lba`: a positive
  // whole number of sectors, all on the device. `op` names the call in the error.
  common::Status CheckRange(Lba lba, size_t bytes, const char* op) const {
    const uint32_t sector_bytes = SectorBytes();
    if (bytes == 0 || bytes % sector_bytes != 0) {
      return common::InvalidArgument(std::string(op) + ": size " + std::to_string(bytes) +
                                     " not a positive multiple of " +
                                     std::to_string(sector_bytes));
    }
    if (!InRange(lba, bytes / sector_bytes)) {
      return common::InvalidArgument(std::string(op) + ": range [" + std::to_string(lba) +
                                     ", +" + std::to_string(bytes / sector_bytes) +
                                     ") exceeds device");
    }
    return common::OkStatus();
  }
};

}  // namespace vlog::simdisk

#endif  // SRC_SIMDISK_BLOCK_DEVICE_H_
