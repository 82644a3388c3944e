// The crash-consistency harness: record a workload once, then sweep every enumerated crash
// point — rebuild the media image, run recovery on a fresh instance, and check machine-readable
// invariants against the shadow model.
//
// Invariants checked at every crash point (VLD level):
//   1. Recovery succeeds (a crash must never make the device unrecoverable).
//   2. Every acknowledged write is readable with its exact acknowledged contents; blocks the
//      in-flight command touched read back either all-old or all-new (atomic commit).
//   3. No two logical blocks map to the same physical block.
//   4. Free-space accounting matches the recovered map: live blocks = mapped data blocks +
//      live map-piece blocks + pinned map blocks.
//   5. The recovered device still works: a probe write/read round-trips (allocator sanity).
// At the VLFS level the shadow model is a path -> (type, contents) map and the same
// all-or-nothing rule applies to the file-level operation in flight.
#ifndef SRC_CRASHSIM_HARNESS_H_
#define SRC_CRASHSIM_HARNESS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/crashsim/crash_point.h"
#include "src/crashsim/nvm_trace.h"
#include "src/crashsim/shadow_vld.h"
#include "src/crashsim/write_trace.h"
#include "src/nvm/nvm_stage.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/nvm_device.h"
#include "src/simdisk/sim_disk.h"
#include "src/vlfs/vlfs.h"

namespace vlog::crashsim {

struct CrashSweepOptions {
  EnumerateOptions enumerate;
  // Reordering model for write-back traces (ignored when the trace was recorded without a
  // volatile cache). reorder.seed and enumerate.seed are usually set together from one
  // --seed= value so a failure replays exactly.
  ReorderOptions reorder;
  // After each recovery, write/read one probe block through the recovered instance to
  // smoke-test allocator and map consistency.
  bool probe_after_recovery = true;
  size_t max_violation_details = 8;
  // Replay mode: when >= 0, the sweep still reconstructs its rolling state over every point
  // (ordinals and images are deterministic) but runs recovery and the invariant checks only at
  // the point with this ordinal — the (seed, ordinal) pair a failure message prints.
  int64_t only_ordinal = -1;
  // Worker threads for the sweep. Every crash point's image and seed are fixed at enumeration
  // time, so points shard across workers by contiguous ordinal range and the merged report is
  // byte-identical to workers=1 at any count. 0 means hardware_concurrency.
  uint32_t workers = 1;
};

struct CrashSweepReport {
  uint64_t points = 0;
  uint64_t clean_points = 0;
  uint64_t torn_points = 0;  // Torn prefix/suffix/random variants.
  uint64_t corrupt_points = 0;
  uint64_t reorder_points = 0;  // Write-back destage subset/order variants.
  // Staged sweeps only: points where the NVM stage replayed an intact image, and synthesized
  // torn-NVM-tail variants checked on top of clean points.
  uint64_t nvm_points = 0;
  uint64_t nvm_torn_points = 0;
  uint64_t seed = 1;            // Echo of the sweep's base seed, for replay instructions.

  uint64_t violations = 0;
  std::vector<std::string> violation_details;  // First few, for diagnosis.
  int64_t first_violation_ordinal = -1;        // Ordinal of the first violating point.

  uint64_t park_recoveries = 0;
  uint64_t scan_recoveries = 0;
  uint64_t checkpoint_recoveries = 0;   // Recoveries seeded (partly) from a checkpoint.
  uint64_t rolled_back_recoveries = 0;  // Recoveries that discarded a torn transaction.
  uint64_t repaired_pieces = 0;
  std::vector<common::Duration> recovery_times;  // Simulated time, one entry per crash point.

  bool ok() const { return violations == 0; }
  void AddViolation(const CrashPoint& point, const std::string& what, size_t max_details);
  // Human-readable one-paragraph summary (for test failure messages and the bench).
  std::string Summary() const;
};

// "crash point #<ordinal> n=<writes> kind=..." — the prefix AddViolation puts on details.
std::string CrashPointName(const CrashPoint& point);

// Device-level harness: a workload drives a ShadowVld; the sweep replays its media history.
class VldCrashSim {
 public:
  VldCrashSim(simdisk::DiskParams params, core::VldConfig config);

  // Layers an NVM staging tier over the Vld for the recording AND the sweep. Call before
  // Record. The sweep then runs the full crash-state matrix: at every disk crash point the
  // exact NVM image at that cut is reconstructed and the stage recovered over the recovered
  // Vld (invariant 2 reads THROUGH the stage, so acked-in-NVM writes must survive), and on
  // top of clean points whose final NVM append coincides with the cut, torn-NVM-tail variants
  // are synthesized at cache-line granularity and checked too.
  void EnableStage(core::NvmStageConfig stage_config, simdisk::NvmDeviceParams nvm_params);

  // Formats a fresh VLD, attaches the recorder, and runs `workload`. Call once.
  common::Status Record(const std::function<common::Status(ShadowVld&)>& workload);

  CrashSweepReport Sweep(const CrashSweepOptions& options) const;

  const WriteTrace& trace() const { return trace_; }
  const NvmTrace& nvm_trace() const { return nvm_trace_; }
  const std::vector<ShadowVld::Op>& ops() const { return ops_; }

 private:
  class Target;  // The sweep driver's view of this harness (harness.cc).

  simdisk::DiskParams params_;
  core::VldConfig config_;
  WriteTrace trace_;
  std::vector<simdisk::SimDisk> bases_;  // The disk as recording started (one member).
  std::vector<ShadowVld::Op> ops_;
  uint32_t logical_blocks_ = 0;
  uint32_t block_bytes_ = 0;

  bool staged_ = false;
  core::NvmStageConfig stage_config_;
  simdisk::NvmDeviceParams nvm_params_;
  NvmTrace nvm_trace_;
};

// One scripted VLFS operation. All mutating ops are synchronous, so each is committed (or not)
// as a unit — which is exactly what the sweep's shadow model checks.
struct VlfsOp {
  enum class Kind { kCreate, kMkdir, kRemove, kWriteSync, kCheckpoint, kIdle, kPark };
  Kind kind = Kind::kCreate;
  std::string path;        // Target for kCreate/kMkdir/kRemove/kWriteSync.
  uint64_t offset = 0;     // kWriteSync.
  std::vector<std::byte> data;  // kWriteSync.
  common::Duration idle_budget = 0;  // kIdle.
};

// File-system-level harness over Vlfs::Recover().
class VlfsCrashSim {
 public:
  VlfsCrashSim(simdisk::DiskParams params, vlfs::VlfsConfig config);

  common::Status Record(const std::vector<VlfsOp>& script);

  CrashSweepReport Sweep(const CrashSweepOptions& options) const;

  const WriteTrace& trace() const { return trace_; }

 private:
  class Target;  // The sweep driver's view of this harness (harness.cc).
  struct FileState {
    bool is_dir = false;
    std::vector<std::byte> content;
  };
  // One committed namespace transition: `path` went from `before` to `after` (nullopt =
  // absent) at trace position end_writes. Ops with no namespace effect have an empty path.
  struct FsOpRecord {
    uint64_t end_writes = 0;
    std::string path;
    std::optional<FileState> before;
    std::optional<FileState> after;
  };

  simdisk::DiskParams params_;
  vlfs::VlfsConfig config_;
  WriteTrace trace_;
  std::vector<simdisk::SimDisk> bases_;  // The disk as recording started (one member).
  std::vector<FsOpRecord> ops_;
  std::vector<std::string> all_paths_;  // Every path the script ever named (absence checks).
};

}  // namespace vlog::crashsim

#endif  // SRC_CRASHSIM_HARNESS_H_
