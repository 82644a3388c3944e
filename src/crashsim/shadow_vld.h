// A BlockDevice wrapper over a Vld that maintains a logical shadow model.
//
// Every acknowledged command is recorded as an Op: the position in the media write trace at
// which it was acknowledged, plus the before/after contents of every logical block it touched.
// A sweep can then decide, for any crash point, which ops were fully persisted (their media
// writes all lie before the cut) and which single op was in flight — and check that the
// recovered device exposes exactly the committed contents, with the in-flight op either wholly
// applied or wholly absent (the VLD commits every command with one atomic map-sector
// transaction, so nothing in between is legal).
//
// Because ShadowVld is itself a BlockDevice, a whole file system (e.g. UFS) can be mounted on
// top of it and its traffic invariant-checked at the device level.
#ifndef SRC_CRASHSIM_SHADOW_VLD_H_
#define SRC_CRASHSIM_SHADOW_VLD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/crashsim/nvm_trace.h"
#include "src/crashsim/write_trace.h"
#include "src/simdisk/block_device.h"

namespace vlog::core {
class NvmStage;
}  // namespace vlog::core

namespace vlog::crashsim {

class ShadowVld : public simdisk::BlockDevice {
 public:
  struct Op {
    uint64_t end_writes = 0;  // Trace length when the command was acknowledged.
    // NVM trace length when the command was acknowledged (0 when no stage is attached). An op
    // whose staged append is the torn one is the sweep's in-flight op for that NVM tear.
    uint64_t nvm_end = 0;
    // Touched logical blocks with their full before/after contents. An empty vector means the
    // block is unmapped and reads back as zeros.
    std::vector<uint32_t> blocks;
    std::vector<std::vector<std::byte>> before;
    std::vector<std::vector<std::byte>> after;
  };

  // `trace` must be the trace attached to the Vld's SimDisk write observer.
  ShadowVld(core::Vld* vld, const WriteTrace* trace);

  // Routes all subsequent traffic through an NVM staging tier layered over the same Vld.
  // `nvm_trace` must be the trace attached to the stage's NvmDevice write observer; ops then
  // record the NVM trace length at acknowledgement alongside the disk trace length.
  void AttachStage(core::NvmStage* stage, const NvmTrace* nvm_trace);

  // BlockDevice. Reads are verified against the shadow (a mismatch during recording is itself
  // a bug worth failing loudly on) and writes are recorded as ops.
  common::Status Read(simdisk::Lba lba, std::span<std::byte> out) override;
  common::Status Write(simdisk::Lba lba, std::span<const std::byte> in) override;
  common::Status Flush() override { return vld_->Flush(); }
  uint64_t SectorCount() const override { return vld_->SectorCount(); }
  uint32_t SectorBytes() const override { return vld_->SectorBytes(); }

  // VLD extensions, passed through with shadow bookkeeping. Trim drops whole covered blocks
  // (mirroring Vld::Trim); Checkpoint/Park/RunIdle touch no logical blocks but still record op
  // boundaries so their media writes are attributed to them rather than to the next command.
  common::Status Trim(simdisk::Lba lba, uint64_t sectors);
  common::Status WriteAtomic(std::span<const core::Vld::AtomicWrite> writes);
  // Queued-write path: submits every extent through SubmitWrite, then FlushQueue group-commits
  // all of their map entries in one packed transaction. The batch shares a single commit point,
  // so across a crash it is all-old-or-all-new; it is recorded as ONE op and the sweep verifies
  // exactly that. Extents must be whole aligned blocks (like WriteAtomic).
  common::Status WriteQueuedBatch(std::span<const core::Vld::AtomicWrite> writes);
  // Mixed queued batch: interleaves SubmitRead with SubmitWrite through one FlushQueue (read i
  // is submitted right after write i, so it must observe this batch's writes 0..i via the
  // same-batch RAW forwarding path and must NOT observe writes i+1.. regardless of SPTF service
  // order). Each read's returned bytes are verified against the shadow with those earlier
  // writes overlaid. Only the writes are recorded (as ONE op, like WriteQueuedBatch): read
  // traffic must leave crash-visible state untouched — a read-only batch that emits any media
  // write fails here, and the sweep then re-verifies the recorded history as if the reads had
  // never happened. Writes must be whole aligned blocks; reads are whole single blocks.
  common::Status QueuedMixedBatch(std::span<const core::Vld::AtomicWrite> writes,
                                  std::span<const uint32_t> read_blocks);
  common::Status Checkpoint();
  common::Status Park();
  void RunIdle(common::Duration budget);
  // Preemptible governed compaction burst (possibly preceded by a checkpoint, like RunIdle).
  // Touches no logical blocks; recorded as an op boundary so its media writes — relocations
  // truncated mid-track included — are attributed to it.
  void RunGovernedBurst(common::Duration budget, uint32_t target_empty_tracks = 0);
  // Staged-mode background maintenance: a duty-cycled destage burst / a full synchronous
  // drain. Both are recorded as op boundaries (their media writes belong to them, not to the
  // next command) and are no-ops when no stage is attached.
  common::Status PumpDestage(common::Duration budget);
  common::Status DrainStage();

  core::NvmStage* stage() { return stage_; }
  core::Vld& vld() { return *vld_; }
  const std::vector<Op>& ops() const { return ops_; }
  std::vector<Op> TakeOps() { return std::move(ops_); }

 private:
  // Records an acknowledged op touching `blocks`, whose new contents are `after`, and folds it
  // into the shadow.
  void RecordOp(std::vector<uint32_t> blocks, std::vector<std::vector<std::byte>> after);
  // RecordOp for whole aligned block extents.
  void RecordExtents(std::span<const core::Vld::AtomicWrite> writes);
  // Shadow contents of block `b` with sectors [first, first+count) replaced from `data`.
  std::vector<std::byte> Overlay(uint32_t block, uint32_t first_sector, uint64_t sector_count,
                                 std::span<const std::byte> data) const;

  core::Vld* vld_;
  const WriteTrace* trace_;
  core::NvmStage* stage_ = nullptr;      // Non-null in staged mode.
  const NvmTrace* nvm_trace_ = nullptr;  // Non-null in staged mode.
  uint32_t block_bytes_;
  std::vector<std::vector<std::byte>> shadow_;  // Per logical block; empty = zeros.
  std::vector<Op> ops_;
};

}  // namespace vlog::crashsim

#endif  // SRC_CRASHSIM_SHADOW_VLD_H_
