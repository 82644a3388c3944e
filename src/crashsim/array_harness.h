// Crash-consistency harness for the multi-disk virtual-log array (src/array).
//
// Recording mirrors VldCrashSim but over N member disks: every member's media writes land in
// ONE global WriteTrace tagged with the member index, and every member's flush observer marks a
// barrier. The global barrier stream is sound because each member VLD runs with barriers on —
// every member commit drains that member's own cache — and the array fans out to members one at
// a time, so any barrier instant has every member's cache clean and each barrier-delimited epoch
// holds a single member's volatile writes. A kReorder point therefore models exactly the
// ISSUE's "subset of disks torn/reordered while the rest are clean": it scrambles one member's
// mid-destage writes while the other members' images sit at their last barrier.
//
// The sweep rebuilds each member's disk (record r replays onto member r.disk's disk),
// recovers a fresh member stack per disk, runs the array's stitched recovery, and checks:
//   1. Array recovery succeeds at every crash point.
//   2. Acknowledged array writes read back exactly; the in-flight array op is atomic per member
//      group — the blocks of the op that live on one member commit all-old-or-all-new together
//      (striped arrays promise per-member-group atomicity, not cross-member; mirrored arrays
//      converge on the authoritative replica's all-old-or-all-new group after resync).
//   3. Every member's recovered map is injective over its physical blocks.
//   4. Every member's free-space accounting matches its recovered map.
//   5. The recovered array still serves a probe write/read.
#ifndef SRC_CRASHSIM_ARRAY_HARNESS_H_
#define SRC_CRASHSIM_ARRAY_HARNESS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/array/vld_array.h"
#include "src/common/status.h"
#include "src/core/vld.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/write_trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::crashsim {

class ArrayCrashSim {
 public:
  // All members run on identical `params` disks with the same `member_config`.
  ArrayCrashSim(simdisk::DiskParams params, core::VldConfig member_config,
                array::VldArrayConfig array_config, uint32_t member_count);

  // The workload's handle: drives the array and maintains the acknowledged-contents shadow the
  // sweep checks against. Reads are verified here at record time and recorded as nothing.
  class Workload {
   public:
    // One synchronous block write (acknowledged at the cross-disk barrier).
    common::Status WriteBlock(uint32_t array_block, std::span<const std::byte> data);
    // Submits every extent then flushes once — one cross-disk group commit, recorded as ONE
    // array op whose member groups the sweep checks atomically. Extents must be block-aligned
    // whole blocks; a block written twice in one batch takes the last payload.
    common::Status QueuedBatch(std::span<const core::Vld::AtomicWrite> writes);
    // Reads through the array and checks against the shadow (empty shadow = zeros).
    common::Status ReadVerify(uint32_t array_block);

    array::VldArray& array() { return *array_; }
    uint32_t array_blocks() const { return sim_->array_blocks_; }
    uint32_t block_sectors() const { return sim_->block_sectors_; }

   private:
    friend class ArrayCrashSim;
    ArrayCrashSim* sim_ = nullptr;
    array::VldArray* array_ = nullptr;
    std::vector<std::vector<std::byte>> shadow_;  // Acknowledged contents per array block.
  };

  // Formats a fresh array, attaches per-member recorders, and runs `workload`. Call once.
  common::Status Record(const std::function<common::Status(Workload&)>& workload);

  CrashSweepReport Sweep(const CrashSweepOptions& options) const;

  const WriteTrace& trace() const { return trace_; }

 private:
  class Target;  // The sweep driver's view of this harness (array_harness.cc).
  // The blocks of one array op that live on one member, with their array-level before/after
  // images. Striped ops have one group per touched member; mirrored ops have one identical
  // group per healthy member (each replica commits the whole op).
  struct Group {
    uint32_t member = 0;
    std::vector<uint32_t> blocks;  // Array-logical block numbers.
    std::vector<std::vector<std::byte>> before;  // Empty vector = all zeros.
    std::vector<std::vector<std::byte>> after;
  };
  struct ArrayOp {
    uint64_t end_writes = 0;  // Global trace length when the array acknowledged the op.
    std::vector<Group> groups;
  };

  // Member indexes that hold array block `block`.
  std::vector<uint32_t> MembersOfBlock(uint32_t block) const;
  void RecordOp(Workload& w, const std::vector<uint32_t>& blocks,
                const std::vector<std::vector<std::byte>>& before,
                const std::vector<std::vector<std::byte>>& after);

  simdisk::DiskParams params_;
  core::VldConfig member_config_;
  array::VldArrayConfig array_config_;
  uint32_t member_count_;
  WriteTrace trace_;                             // Disk-tagged global trace.
  std::vector<simdisk::SimDisk> bases_;          // Each member's disk as recording started.
  std::vector<ArrayOp> ops_;
  uint32_t array_blocks_ = 0;
  uint32_t block_sectors_ = 0;
  uint32_t block_bytes_ = 0;
  uint64_t chunk_sectors_ = 0;
};

}  // namespace vlog::crashsim

#endif  // SRC_CRASHSIM_ARRAY_HARNESS_H_
