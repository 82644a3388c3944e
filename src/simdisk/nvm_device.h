// A byte-addressable non-volatile memory device: the persistence domain for the NVM
// write-ahead staging tier (NVLog-style, see PAPERS.md "Boosting File Systems Elegantly").
//
// Unlike the SimDisk, the NvmDevice has no mechanics: a write costs a fixed per-command
// latency plus a per-cache-line transfer cost, orders of magnitude below a disk access. Its
// persistence semantics also differ from both the platter and DRAM:
//   - Contents survive a crash (they are non-volatile): a crash sweep replays the recorded
//     NVM history alongside the disk trace.
//   - A write in flight at the crash tears at a *cache-line* boundary (64 B), not a sector
//     boundary: the memory controller persists whole lines in order, so a torn append keeps
//     an arbitrary line-aligned prefix. Anything staged on top (per-record CRCs) must detect
//     the torn tail.
// Torn-tail states themselves are modeled offline by the crashsim (which enumerates every
// line-aligned cut); the device only promises that acknowledged writes are durable.
#ifndef SRC_SIMDISK_NVM_DEVICE_H_
#define SRC_SIMDISK_NVM_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/obs/trace.h"

namespace vlog::simdisk {

struct NvmDeviceParams {
  uint64_t size_bytes = 1 << 20;    // Staging capacity (bytes, not sectors).
  uint32_t cache_line_bytes = 64;   // Persistence granule: torn writes cut on this boundary.
  // Latency model: fixed per-command cost plus a per-line cost. Defaults put a one-line
  // persist at ~350 ns and a 4 KB persist at ~3.5 us — far below any mechanical access.
  common::Duration write_latency = common::Nanoseconds(300);
  common::Duration line_write_cost = common::Nanoseconds(50);
  common::Duration read_latency = common::Nanoseconds(150);
  common::Duration line_read_cost = common::Nanoseconds(30);
};

struct NvmDeviceStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
};

class NvmDevice {
 public:
  NvmDevice(NvmDeviceParams params, common::Clock* clock);
  // Adopts `image` as the initial contents (resized to capacity) — crash sweeps rebuild
  // thousands of short-lived devices from reconstructed NVM images.
  NvmDevice(NvmDeviceParams params, common::Clock* clock, std::vector<std::byte> image);

  // Charged accesses: advance the clock by the latency model and (when a tracer is attached)
  // charge the time to the current span as the `nvm` breakdown component. An acknowledged
  // WriteBytes is durable.
  common::Status WriteBytes(uint64_t offset, std::span<const std::byte> in);
  common::Status ReadBytes(uint64_t offset, std::span<std::byte> out);

  // Zero-cost access for recovery scans, test setup, and crash-image reconstruction.
  void Peek(uint64_t offset, std::span<std::byte> out) const;
  void Poke(uint64_t offset, std::span<const std::byte> in);
  std::vector<std::byte> Snapshot() const { return media_; }

  uint64_t size_bytes() const { return params_.size_bytes; }
  uint32_t cache_line_bytes() const { return params_.cache_line_bytes; }
  const NvmDeviceParams& params() const { return params_; }
  common::Clock* clock() { return clock_; }
  const NvmDeviceStats& stats() const { return stats_; }

  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }
  obs::TraceRecorder* tracer() const { return tracer_; }

  // Observer invoked after every acknowledged WriteBytes with the written range — the crashsim
  // recording shim mirrors the NVM history through it. Peek/Poke bypass it.
  using WriteObserver = std::function<void(uint64_t offset, std::span<const std::byte> data)>;
  void set_write_observer(WriteObserver observer) { write_observer_ = std::move(observer); }

 private:
  common::Status CheckRange(uint64_t offset, size_t bytes, const char* op) const;
  // Lines touched by [offset, offset+bytes), for the transfer cost.
  uint64_t Lines(uint64_t offset, size_t bytes) const;

  NvmDeviceParams params_;
  common::Clock* clock_;
  std::vector<std::byte> media_;
  NvmDeviceStats stats_;
  obs::TraceRecorder* tracer_ = nullptr;
  WriteObserver write_observer_;
};

}  // namespace vlog::simdisk

#endif  // SRC_SIMDISK_NVM_DEVICE_H_
