// The Virtual Log Disk (§3, §4.2): eager writing behind an unchanged block-device interface.
//
// The VLD manages the disk in fixed physical blocks (4 KB by default, matching the file system
// block size per Appendix A.1). Each host write goes to a free block near the head, followed by
// one virtual-log map-sector write that commits the new logical-to-physical translation — so
// every host write is synchronous *and* atomic. Reads translate through the in-memory
// indirection map. Deletes are inferred by monitoring logical overwrites (plus an explicit
// Trim extension). A free-space compactor runs during idle time, and idle time also takes a
// checkpoint once pinned map sectors pile up (VirtualLog::IdleCheckpointDue): a checkpoint
// rewrites every map piece changed since its slot was last written, so idle time does not spend
// one on a few pins.
//
// Layout: sector 0 is the park sector (the "landing zone" record written by the power-down
// sequence); a double-buffered checkpoint region of 2*(pieces+1) sectors follows; everything
// else is allocatable.
#ifndef SRC_CORE_VLD_H_
#define SRC_CORE_VLD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/compactor.h"
#include "src/core/eager_allocator.h"
#include "src/core/free_space.h"
#include "src/core/virtual_log.h"
#include "src/simdisk/block_device.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {

// How FlushQueue orders a batch's reads (VldConfig::read_policy).
enum class SchedulerPolicy : uint8_t {
  kFcfs,  // Submission order.
  kSptf,  // Shortest positioning time first, by the mechanical model's estimate.
};

struct VldConfig {
  uint32_t block_sectors = 8;           // 4 KB physical blocks on 512 B sectors.
  bool compactor_enabled = true;        // Also selects the allocator's fill-to-threshold mode.
  double track_switch_threshold = 0.25;  // Free fraction reserved per track (fill to 75%).
  uint32_t target_empty_tracks = 4;
  uint32_t slack_blocks = 16;  // Physical blocks withheld from the logical size so eager
                               // writing always has somewhere to go.
  uint32_t queue_depth = 8;  // Maximum outstanding queued requests (SubmitRead/SubmitWrite).
  uint64_t seed = 1;
  // FlushQueue's read-scheduling policy. Writes always service FIFO among themselves — eager
  // placement puts each one where the allocator finds a block, so reordering writes saves
  // nothing — but reads go where the data *is*, so SPTF orders a batch's reads by the
  // mechanical model's positioning estimate, against the oldest write's cost for its next
  // block. kFcfs services the whole batch in submission order (the baseline the scheduler
  // comparison in bench_queue_depth measures against).
  SchedulerPolicy read_policy = SchedulerPolicy::kSptf;
  // Durability barriers around virtual-log commits (see VirtualLogConfig::barriers). Required
  // for crash consistency on a disk with a volatile write-back cache; disable only as the
  // crash sweep's negative control.
  bool barriers = true;
};

struct VldStats {
  uint64_t host_reads = 0;
  uint64_t host_writes = 0;
  uint64_t blocks_written = 0;
  uint64_t read_modify_writes = 0;  // Sub-block host writes needing a merge.
  uint64_t unmapped_reads = 0;      // Logical blocks read before ever being written.
  uint64_t relocations = 0;         // Data blocks moved by the compactor.
  uint64_t trims = 0;
  uint64_t atomic_commits = 0;
  uint64_t queued_writes = 0;   // Host writes accepted through SubmitWrite.
  uint64_t queued_reads = 0;    // Host reads accepted through SubmitRead.
  uint64_t group_commits = 0;   // FlushQueue calls that committed >1 write in one transaction.
  // Read sectors served from an earlier-submitted, same-batch write's pending payload instead
  // of the media (the RAW forwarding path).
  uint64_t forwarded_read_sectors = 0;

  // Snapshot/diff: stats are plain values, so a measurement window is a copy + subtraction.
  VldStats operator-(const VldStats& rhs) const {
    VldStats d;
    d.host_reads = host_reads - rhs.host_reads;
    d.host_writes = host_writes - rhs.host_writes;
    d.blocks_written = blocks_written - rhs.blocks_written;
    d.read_modify_writes = read_modify_writes - rhs.read_modify_writes;
    d.unmapped_reads = unmapped_reads - rhs.unmapped_reads;
    d.relocations = relocations - rhs.relocations;
    d.trims = trims - rhs.trims;
    d.atomic_commits = atomic_commits - rhs.atomic_commits;
    d.queued_writes = queued_writes - rhs.queued_writes;
    d.queued_reads = queued_reads - rhs.queued_reads;
    d.group_commits = group_commits - rhs.group_commits;
    d.forwarded_read_sectors = forwarded_read_sectors - rhs.forwarded_read_sectors;
    return d;
  }
};

struct VldRecoveryInfo {
  bool used_scan = false;
  bool from_checkpoint = false;
  uint64_t log_sectors_read = 0;
  uint64_t mapped_blocks = 0;
  uint32_t repaired_pieces = 0;  // Uncovered pieces re-appended after a scan recovery.
  // Map sectors dropped because they belonged to a trailing incomplete (torn) transaction.
  // Zero means the recovery was clean; nonzero means a crashed commit was rolled back.
  uint64_t discarded_txn_sectors = 0;
};

class Vld : public simdisk::BlockDevice, public CompactionBackend {
 public:
  explicit Vld(simdisk::SimDisk* disk, VldConfig config = {});

  // Initializes an empty VLD (fresh disk). Either Format or Recover must run before I/O.
  common::Status Format();
  // Rebuilds the map from the virtual log after a restart or crash.
  common::StatusOr<VldRecoveryInfo> Recover();
  // Firmware power-down sequence: parks the log tail for O(pieces) recovery.
  common::Status Park();
  // Brings the next checkpoint slot up to the whole map, freeing all log blocks: writes the
  // pieces that slot is missing (those committed since it was last written; every piece after
  // Format, and after Recover every piece but in the slot recovery loaded), then its header.
  common::Status Checkpoint();

  // BlockDevice (the unmodified host interface; sizes in whole 512 B sectors).
  common::Status Read(simdisk::Lba lba, std::span<std::byte> out) override;
  common::Status Write(simdisk::Lba lba, std::span<const std::byte> in) override;
  // Every acknowledged VLD command is already durable (its map commit flushes the underlying
  // cache), so this only drains whatever the physical disk still buffers.
  common::Status Flush() override { return disk_->Flush(); }
  uint64_t SectorCount() const override {
    return static_cast<uint64_t>(logical_blocks_) * config_.block_sectors;
  }
  uint32_t SectorBytes() const override { return disk_->SectorBytes(); }

  // Extensions beyond the classic interface.
  struct AtomicWrite {
    simdisk::Lba lba;  // Must be physical-block aligned.
    std::span<const std::byte> data;  // Whole blocks.
  };
  // All-or-nothing multi-extent write (one command, one transaction in the virtual log).
  common::Status WriteAtomic(std::span<const AtomicWrite> writes);

  // --- Queued I/O (§4.2: one map sector holds many entries, so a queue's worth of eager
  // writes can share a single virtual-log commit; reads join the same queue so the positional
  // scheduler can order them) ---

  // Per-request acknowledgement from FlushQueue, timestamped on the virtual clock.
  struct QueuedCompletion {
    uint64_t id = 0;
    bool is_write = true;
    simdisk::Lba lba = 0;
    common::Time submit_time = 0;    // When SubmitRead/SubmitWrite accepted the request.
    // Writes: when the batch's group commit reached the media, which is as soon as the batch's
    // last write was staged. Reads: when the data was assembled (reads need no commit, so they
    // complete at their own service time, before or after the commit).
    common::Time complete_time = 0;
    common::Time dispatch_time = 0;  // When its controller work finished and media work began.
    uint64_t span_id = 0;            // Trace span (0 when the disk has no tracer attached).
    // A read whose media access failed carries that error (and no data); the rest of its batch
    // is unaffected. Writes complete only with their batch's commit, so theirs is always OK.
    common::Status status;
    std::vector<std::byte> data;     // Read payload (empty for writes).
    common::Duration Latency() const { return complete_time - submit_time; }
    // Time the request spent behind other queue entries before its own controller work began.
    common::Duration QueueDelay() const { return dispatch_time - submit_time; }
  };
  // Enqueues a host write without any media work (the payload is copied); returns a completion
  // id. Fails with kFailedPrecondition when `queue_depth` requests are already outstanding.
  common::StatusOr<uint64_t> SubmitWrite(simdisk::Lba lba, std::span<const std::byte> in);
  // Enqueues a host read of `sectors` sectors; the data arrives in the FlushQueue completion.
  common::StatusOr<uint64_t> SubmitRead(simdisk::Lba lba, uint64_t sectors);
  // Services every queued request. Writes go down eagerly in submission order (controller
  // overhead pipelined with the media); under kSptf the oldest unserviced write competes with
  // the reads, costed at the allocator's estimate for its next block (EstimateLocate), and
  // each read at the positioning time to its first media sector (0 when the track buffer or
  // the write-back cache will serve its first media access). As soon as the last write is
  // staged, ALL the writes' map entries commit in one packed group transaction — one or two
  // log writes instead of one per request — and the writes are acknowledged (complete_time
  // stamped) at that commit, so each acknowledged write is individually all-or-nothing across
  // a crash and none waits for the reads served after it. A read sees exactly the writes
  // submitted before it: sectors an earlier-submitted write of the batch covers come from
  // that write's pending payload (the RAW forwarding path), and every other sector is read
  // through the block it mapped to when the batch began (PreBatchBlock), before or after the
  // commit. Reads acknowledge at their own service time and leave no state behind; a read
  // that fails completes with its own status. A write that fails to stage, or a failed
  // commit, fails the whole call instead, and no write of the batch is acknowledged.
  // Completions are returned in submission order. With a single queued request this is
  // clock-identical to the synchronous path.
  common::StatusOr<std::vector<QueuedCompletion>> FlushQueue();
  size_t QueuedRequests() const { return queue_.size(); }
  size_t QueuedWrites() const;
  size_t QueuedReads() const { return queue_.size() - QueuedWrites(); }
  uint32_t queue_depth() const { return config_.queue_depth; }
  // Explicitly frees whole logical blocks covered by [lba, lba+sectors) — the delete hint the
  // paper notes is missing from the unmodified interface.
  common::Status Trim(simdisk::Lba lba, uint64_t sectors);

  // Gives the in-disk compactor an idle interval of `budget`, after a checkpoint when
  // VirtualLog::IdleCheckpointDue holds.
  void RunIdle(common::Duration budget);

  // Governed compaction burst: like RunIdle, but preemptible — the compactor starts a block
  // move only while one mean move still fits before the deadline, so it may stop mid-track
  // and resume in a later burst. With a budget generous enough that no track is truncated
  // (and the default target), the call sequence (and therefore media and clock) is identical
  // to RunIdle. `target_empty_tracks` overrides the compactor's reserve target for this burst
  // (0 keeps it): the governor chases a deeper reserve under continuous load than the idle
  // compactor needs.
  void RunGovernedBurst(common::Duration budget, uint32_t target_empty_tracks = 0);

  // CompactionBackend:
  common::Status RelocateDataBlock(uint32_t phys_block) override;
  common::Status RewritePiece(uint32_t piece) override;

  double PhysicalUtilization() const { return space_.Utilization(); }
  // The full logical-to-physical translation map (kUnmappedBlock where unmapped). Read-only
  // introspection for invariant checkers such as crashsim.
  const std::vector<uint32_t>& logical_map() const { return map_; }
  uint32_t logical_blocks() const { return logical_blocks_; }
  uint32_t block_sectors() const { return config_.block_sectors; }
  uint32_t target_empty_tracks() const { return config_.target_empty_tracks; }
  simdisk::SimDisk& disk() { return *disk_; }
  const VldStats& stats() const { return stats_; }
  const VirtualLog& vlog() const { return vlog_; }
  const EagerAllocator& allocator() const { return allocator_; }
  const Compactor& compactor() const { return *compactor_; }
  const FreeSpaceMap& space() const { return space_; }

  // Registers this VLD's timeline series under `prefix` — throughput, log, checkpoint and
  // compactor counters plus queue-depth, free-space, utilization, compaction-debt and
  // pinned-sector gauges — and the underlying disk's probes under the same prefix. Closures
  // capture `this`; the timeline must not be polled after the VLD (or its disk) is destroyed.
  // Pure reads: registering and sampling never advance the virtual clock.
  void RegisterTimelineProbes(obs::Timeline& timeline, const std::string& prefix) const;

 private:
  struct Layout {
    uint32_t total_blocks = 0;
    uint32_t system_blocks = 0;
    uint32_t pieces = 0;
    uint32_t logical_blocks = 0;
  };
  static Layout ComputeLayout(const simdisk::DiskGeometry& geometry, const VldConfig& config);

  void MarkSystemBlocks();
  // Piece `piece`'s slice of map_ (the last piece may be short).
  std::span<const uint32_t> PieceEntries(uint32_t piece) const;
  uint32_t PieceOf(uint32_t logical_block) const { return logical_block / kEntriesPerSector; }

  // Stages one logical-block write: allocates and writes the data block; records the map change
  // and the obsoleted physical block without touching the map yet. On failure nothing is
  // staged: the allocated block is freed again. Trim stages writes of kUnmappedBlock.
  struct StagedWrite {
    uint32_t logical_block;
    uint32_t new_phys;  // kUnmappedBlock for a trimmed block.
    uint32_t old_phys;  // kUnmappedBlock if previously unmapped.
  };
  common::Status StageBlockWrite(uint32_t logical_block, std::span<const std::byte> data,
                                 std::vector<StagedWrite>* staged);
  // Frees every block of an operation whose staging failed. None was committed, so no map
  // entry points at one and the blocks they would have replaced stay live.
  void Unstage(const std::vector<StagedWrite>& staged);
  // Splits one host-write extent into block-granularity staged writes (read-modify-write for
  // sub-block edges). Shared by Write and FlushQueue.
  common::Status StageHostWrite(simdisk::Lba lba, std::span<const std::byte> in,
                                std::vector<StagedWrite>* staged);
  // The translate/coalesce/access core of Read: maps each sector through PreBatchBlock,
  // zero-fills unmapped blocks, and issues one InternalRead per physically contiguous run. No
  // span, no command charge — shared by the sync Read (no staged writes, so map_) and the
  // queued read service path.
  common::Status ReadMapped(simdisk::Lba lba, std::span<std::byte> out,
                            std::span<const StagedWrite> staged);
  // The physical block `logical_block` mapped to before `staged` was staged: the old_phys of
  // its first staged write, else its map_ entry. After a batch's commit that is a block the
  // commit freed; it still holds its bytes, because nothing allocates before the batch ends.
  uint32_t PreBatchBlock(uint32_t logical_block, std::span<const StagedWrite> staged) const;
  // Commits staged writes: the affected map pieces go down in one VirtualLog::Commit, then the
  // obsoleted data blocks are freed. The VLD's only map commit: sync and queued writes,
  // WriteAtomic, Trim and relocation all end here. When the map sectors would find no free
  // block, or their commit fails, the map is left as it was and the staged blocks are freed, so
  // the device reads all-old.
  common::Status CommitStaged(const std::vector<StagedWrite>& staged);

  simdisk::SimDisk* disk_;
  VldConfig config_;
  uint32_t logical_blocks_ = 0;
  uint32_t system_blocks_ = 0;
  FreeSpaceMap space_;
  EagerAllocator allocator_;
  VirtualLog vlog_;
  std::unique_ptr<Compactor> compactor_;
  std::vector<uint32_t> map_;      // logical block -> physical block (kUnmappedBlock if none).
  std::vector<uint32_t> reverse_;  // physical block -> logical block (data blocks only).
  // Outstanding queued requests, in submission order.
  struct QueuedRequest {
    uint64_t id = 0;
    bool is_write = true;
    simdisk::Lba lba = 0;
    uint64_t sectors = 0;         // Extent length (for writes, data.size()/sector bytes).
    std::vector<std::byte> data;  // Write payload.
    common::Time submit_time = 0;
    uint64_t span = 0;  // Trace span opened at submission (0 = tracing off).
  };
  // The same-batch visibility rule: the write a read at batch[index] sees for logical sector
  // `sector` is the LAST earlier-submitted write in the batch covering it (later writes
  // overwrite earlier ones); null when none does. Later-submitted writes are invisible.
  static const QueuedRequest* CoveringWrite(const std::vector<QueuedRequest>& batch, size_t index,
                                            simdisk::Lba sector);
  // Serves batch[index] (a read): forwarded sectors come from their CoveringWrite's pending
  // payload, everything else from the media through the pre-batch translation of `staged`
  // (the batch's writes staged so far).
  common::Status ServiceQueuedRead(const std::vector<QueuedRequest>& batch, size_t index,
                                   std::span<const StagedWrite> staged, std::span<std::byte> out,
                                   uint64_t* forwarded_sectors);
  // SPTF positioning cost of batch[index]'s first media access: 0 when every sector is
  // forwarded or unmapped (a pure controller-RAM service) or when the track buffer or the
  // write-back cache will serve that access, else the positioning time to its first sector.
  // `first_media` caches that access per candidate across the batch's dispatches (lba
  // kCostUnknown = not yet scanned, kCostNoMedia = fully forwarded/unmapped): batch coverage
  // and the pre-batch translation are both fixed for the whole batch, commit included, so the
  // scan runs once per candidate instead of once per dispatch.
  static constexpr int64_t kCostUnknown = -2;
  static constexpr int64_t kCostNoMedia = -1;
  struct MediaAccess {
    int64_t lba = kCostUnknown;
    uint64_t sectors = 0;
  };
  common::Duration QueuedReadCost(const std::vector<QueuedRequest>& batch, size_t index,
                                  std::span<const StagedWrite> staged, common::Time now,
                                  std::vector<MediaAccess>& first_media) const;
  // The next unserviced batch index to service under config_.read_policy; `oldest` is the
  // first unserviced index.
  size_t PickNextQueued(const std::vector<QueuedRequest>& batch,
                        const std::vector<bool>& serviced, size_t oldest,
                        std::span<const StagedWrite> staged,
                        std::vector<MediaAccess>& first_media) const;
  std::vector<QueuedRequest> queue_;
  uint64_t next_queued_id_ = 1;
  common::Time ctrl_free_ = 0;  // Controller pipeline state for queued commands.
  VldStats stats_;
};

}  // namespace vlog::core

#endif  // SRC_CORE_VLD_H_
