// The NVM write-ahead staging tier (ROADMAP item 3, after NVLog — see PAPERS.md "Boosting
// File Systems Elegantly"): a byte-addressable staging area in front of any BlockDevice that
// absorbs small synchronous writes at NVM latency, acknowledges them immediately, and destages
// coalesced runs to the backing device in the background.
//
// Persistence state machine per staged write:
//
//   acked-in-NVM  --(background destage run + backing Flush)-->  durable-on-disk
//        |                                                            |
//        +--(direct write / trim over the same sectors:                |
//            destage + Flush + invalidate record)---------------------+
//
// Both states are crash-durable: an acknowledged staged write survives every crash point
// because either its NVM record replays through Recover(), or it was destaged to the backing
// device *and flushed* before the log forgot it. The invariants that make that true:
//   1. Ack = one NVM append (header CRC + payload CRC, padded to cache lines). NVM appends
//      are durable at acknowledgement; a crash mid-append tears at a cache-line boundary and
//      the CRCs drop exactly the torn record, never an earlier one.
//   2. The stage destages to the backing device and completes a backing Flush() BEFORE any
//      record leaves the log (head advance or invalidate append). The disk copy is durable
//      before the NVM copy is forgotten — on a write-back-cached disk the Flush is what makes
//      this ordering real.
//   3. Direct-path writes (large writes, queued submits, atomic batches, trims) that overlap
//      staged sectors synchronously destage + Flush + append an invalidate record before
//      touching the backing device, so a replayed overlay can never resurrect stale staged
//      data over a later acknowledged direct write.
// The crash-state matrix {NVM intact, NVM torn-tail} x {disk clean/torn/corrupt/reorder} is
// swept by crashsim with NvmStage::Recover running before the backing recovery.
//
// The log is linear, not a ring: destage advances a persisted head pointer, and when the log
// empties (or a record would overflow the capacity, after a full synchronous drain) the epoch
// increments and head/tail reset — records from a previous epoch fail the epoch check at
// recovery, so stale bytes past the reset point are never replayed.
#ifndef SRC_NVM_NVM_STAGE_H_
#define SRC_NVM_NVM_STAGE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/obs/trace.h"
#include "src/simdisk/block_device.h"
#include "src/simdisk/nvm_device.h"

namespace vlog::obs {
class Timeline;
}  // namespace vlog::obs

namespace vlog::core {

struct NvmStageConfig {
  // Sync writes of at most this many sectors are absorbed by the stage; larger writes go
  // direct to the backing device (they amortize mechanical costs on their own, and staging
  // them would burn NVM capacity for little latency win).
  uint32_t stage_threshold_sectors = 8;
  // Records destaged per background batch (one batch = one coalesced run set + one backing
  // Flush + one persisted head advance).
  uint32_t destage_batch_records = 8;
};

struct NvmStageStats {
  uint64_t staged_writes = 0;       // Host writes absorbed by the stage.
  uint64_t staged_bytes = 0;        // Payload bytes absorbed.
  uint64_t direct_writes = 0;       // Host writes routed around the stage.
  uint64_t read_hit_sectors = 0;    // Read sectors served from the overlay.
  uint64_t destage_batches = 0;     // Background destage batches completed.
  uint64_t destaged_records = 0;    // Log records retired (data + invalidate).
  uint64_t destaged_sectors = 0;    // Live sectors written to the backing device.
  uint64_t invalidates = 0;         // Invalidate records appended by the conflict path.
  uint64_t conflict_destages = 0;   // Staged sectors destaged synchronously by conflicts.
  uint64_t drains = 0;              // Full synchronous drains (explicit or overflow).
  uint64_t overflow_drains = 0;     // Drains forced by log-capacity pressure.
  uint64_t epoch_resets = 0;        // Log resets (epoch bumps) after emptying.
};

struct NvmStageRecoveryInfo {
  uint64_t data_records = 0;        // Valid data records replayed.
  uint64_t invalidate_records = 0;  // Valid invalidate records replayed.
  bool torn_tail_dropped = false;   // Scan stopped at an invalid (torn) record.
  uint64_t staged_sectors = 0;      // Overlay size after replay.
  uint64_t log_bytes = 0;           // Live log bytes (tail - head) after replay.
  uint64_t epoch = 0;
};

// `NvmStage` is itself a BlockDevice, so any file system (UFS, the LFS logical disk) mounts on
// top of it unchanged; the VLD extensions (queued I/O, atomic batches, trim) pass through when
// the backing device is a Vld.
class NvmStage : public simdisk::BlockDevice {
 public:
  // Stage over a VLD: the headline "eager writing + NVM" composition. Queued and atomic
  // extensions are available.
  NvmStage(simdisk::NvmDevice* nvm, Vld* vld, NvmStageConfig config = {});
  // Stage over any block device (e.g. a raw SimDisk): the "NVM over naive placement" leg.
  NvmStage(simdisk::NvmDevice* nvm, simdisk::BlockDevice* backing, NvmStageConfig config = {});

  // Initializes an empty log (fresh NVM). Either Format or Recover must run before I/O.
  common::Status Format();
  // Replays the NVM log: validates the superblock, scans records (stopping at the first torn
  // or stale one), and rebuilds the DRAM overlay. Must run BEFORE the backing device's own
  // recovery reads are trusted at the stage level.
  common::StatusOr<NvmStageRecoveryInfo> Recover();

  // BlockDevice. Write routes small sync writes into the stage (acked at NVM latency) and
  // large ones around it (after resolving staged-sector conflicts). Read serves staged
  // sectors from the overlay and the rest from the backing device. Flush only drains the
  // backing device: acknowledged staged writes are already durable in NVM.
  common::Status Read(simdisk::Lba lba, std::span<std::byte> out) override;
  common::Status Write(simdisk::Lba lba, std::span<const std::byte> in) override;
  common::Status Flush() override { return backing_->Flush(); }
  uint64_t SectorCount() const override { return backing_->SectorCount(); }
  uint32_t SectorBytes() const override { return sector_bytes_; }

  // VLD extensions, forwarded after conflict resolution (staged overlaps are destaged +
  // flushed + invalidated first). Fail when the backing device is not a Vld. FlushQueue returns
  // the Vld's completions unchanged, so a failed read's status reaches the caller.
  common::Status Trim(simdisk::Lba lba, uint64_t sectors);
  common::Status WriteAtomic(std::span<const Vld::AtomicWrite> writes);
  common::StatusOr<uint64_t> SubmitWrite(simdisk::Lba lba, std::span<const std::byte> in);
  common::StatusOr<uint64_t> SubmitRead(simdisk::Lba lba, uint64_t sectors);
  common::StatusOr<std::vector<Vld::QueuedCompletion>> FlushQueue();

  // Destages everything synchronously and resets the log. After Drain() the backing device's
  // contents equal what a stage-off run would have produced (the differential suite's
  // bit-identity check).
  common::Status Drain();
  // Background destage under a time budget (CompactionGovernor-style duty cycling): retires
  // whole batches of oldest records until the budget elapses or the log empties. Returns the
  // number of log records retired.
  common::StatusOr<uint64_t> RunDestageBurst(common::Duration budget);

  uint64_t staged_sectors() const { return overlay_.size(); }
  uint64_t log_bytes() const { return tail_ - head_; }
  uint64_t log_records() const { return records_.size(); }
  uint64_t epoch() const { return epoch_; }
  const NvmStageStats& stats() const { return stats_; }
  simdisk::NvmDevice& nvm() { return *nvm_; }
  Vld* vld() { return vld_; }
  common::Clock* clock() { return nvm_->clock(); }

  void set_tracer(obs::TraceRecorder* tracer) {
    tracer_ = tracer;
    nvm_->set_tracer(tracer);
  }
  // Registers stage occupancy gauges and activity counters under `prefix` (e.g. "nvm.").
  // Closures capture `this`; pure reads, never advance the clock.
  void RegisterTimelineProbes(obs::Timeline& timeline, const std::string& prefix) const;

  // On-NVM layout constants (exposed for the crashsim replayer and the property tests).
  static constexpr uint64_t kSuperblockBytes = 64;
  static constexpr uint64_t kHeaderBytes = 48;
  static constexpr uint32_t kTypeData = 1;
  static constexpr uint32_t kTypeInvalidate = 2;
  // Total log-record footprint for a payload of `payload_bytes`, padded to cache lines.
  static uint64_t RecordBytes(uint64_t payload_bytes, uint32_t cache_line_bytes);

 private:
  struct LogRecord {
    uint64_t seq = 0;
    simdisk::Lba lba = 0;
    uint64_t sectors = 0;     // 0 for invalidate records.
    uint64_t offset = 0;      // NVM byte offset of the record header.
    uint64_t total_bytes = 0; // Header + padded payload.
  };
  struct OverlaySector {
    uint64_t seq = 0;     // Owning record; stale copies in older records are dead.
    uint64_t offset = 0;  // NVM byte offset of this sector's payload bytes.
  };

  // Absorbs one small sync write: one CRC-protected NVM append + overlay update.
  common::Status StagePut(simdisk::Lba lba, std::span<const std::byte> in);
  // Direct-path conflict protocol over [lba, lba+sectors): synchronously destages overlapping
  // staged sectors, flushes the backing device, appends an invalidate record, and drops the
  // overlay entries. No-op when nothing overlaps.
  common::Status ResolveConflicts(simdisk::Lba lba, uint64_t sectors);
  // Writes `live` (sector -> NVM payload offset, ascending) to the backing device as
  // coalesced contiguous runs. Does NOT flush or touch the overlay.
  common::Status DestageSectors(const std::vector<std::pair<simdisk::Lba, uint64_t>>& live);
  // Retires up to destage_batch_records oldest records: destage live sectors, Flush, advance
  // the persisted head (and reset the log when it empties). Returns records retired.
  common::StatusOr<uint64_t> DestageStep();
  common::Status AppendInvalidate(simdisk::Lba lba, uint64_t sectors);
  common::Status AppendRecord(uint32_t type, simdisk::Lba lba, uint64_t arg,
                              std::span<const std::byte> payload);
  common::Status WriteSuperblock();
  // Bumps the epoch and resets head/tail to the log start (records_ must be empty).
  common::Status ResetLog();

  simdisk::NvmDevice* nvm_;
  simdisk::BlockDevice* backing_;
  Vld* vld_;  // Non-null when backing_ is a Vld (enables the queued/atomic/trim passthroughs).
  NvmStageConfig config_;
  uint32_t sector_bytes_;
  obs::TraceRecorder* tracer_ = nullptr;

  uint64_t epoch_ = 0;
  uint64_t seq_ = 0;   // Last assigned record sequence number.
  uint64_t head_ = kSuperblockBytes;  // First live record byte (persisted in the superblock).
  uint64_t tail_ = kSuperblockBytes;  // Next append offset (recovered by scanning from head).
  std::deque<LogRecord> records_;     // Live records, oldest first, contiguous [head_, tail_).
  std::map<simdisk::Lba, OverlaySector> overlay_;  // Staged sector -> newest NVM copy.
  std::vector<std::byte> record_buf_;  // Reused append scratch.
  NvmStageStats stats_;
};

}  // namespace vlog::core

#endif  // SRC_NVM_NVM_STAGE_H_
