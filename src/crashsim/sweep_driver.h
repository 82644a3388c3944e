// The one crash-sweep loop behind VldCrashSim, VlfsCrashSim and ArrayCrashSim, and the pieces
// their targets share. Private to src/crashsim.
//
// The driver owns everything that is the same for every harness: enumerating the crash points
// and sharding them across workers, one rolling disk per member (record r replays onto disk
// r.disk, so a single-disk sweep is the one-member case), forking each point's crashed disks
// from them, the point-kind counters, and only_ordinal replay. A target owns what differs: its
// shadow model, which ops a point leaves in flight, and the recovery and invariant checks it
// runs over the crashed disks.
#ifndef SRC_CRASHSIM_SWEEP_DRIVER_H_
#define SRC_CRASHSIM_SWEEP_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/vld.h"
#include "src/crashsim/crash_point.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/write_trace.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::crashsim {

// Records one invariant violation at the crash point under check.
using Fail = std::function<void(const std::string& what)>;

class CrashTarget {
 public:
  virtual ~CrashTarget() = default;
  // Folds every op acknowledged at or before trace position `applied` into the shadow model.
  // Called at every crash point, in non-decreasing `applied` order, replay-skipped points too.
  virtual void Fold(uint64_t applied) = 0;
  // Recovers over `disks` (member m crashed as `point` describes), tallies the recovery in
  // `report`, and hands every invariant violation to `fail`. The disks die when this returns.
  virtual void Check(const CrashPoint& point, std::span<simdisk::SimDisk> disks,
                     CrashSweepReport& report, const Fail& fail) = 0;
};

// Sweeps every crash point of `trace` over member disks forked from `bases` (one per member:
// its disk as recording started). `make_target` is called once per worker, so a target's
// rolling state is never shared between threads.
CrashSweepReport RunCrashSweep(const WriteTrace& trace, std::span<const simdisk::SimDisk> bases,
                               const CrashSweepOptions& options,
                               const std::function<std::unique_ptr<CrashTarget>()>& make_target);

// Routes every later media write of `disk` into `trace`, tagged with `member`, and every
// completed flush into a barrier; the trace is write-back when the disk runs a volatile cache.
// Returns a fork of the disk as recording starts: the base those writes replay onto.
simdisk::SimDisk StartRecording(WriteTrace& trace, simdisk::SimDisk& disk, uint32_t member = 0);

// Does `got` equal `expect`, where an empty `expect` means all zeros?
bool ContentMatches(std::span<const std::byte> got, const std::vector<std::byte>& expect);

// Invariants 3 and 4 over one recovered Vld: the map is injective over physical blocks, every
// mapped block is live, and free-space accounting equals mapped data + live map pieces +
// pinned blocks.
void CheckMapInvariants(const core::Vld& vld, const Fail& fail);

}  // namespace vlog::crashsim

#endif  // SRC_CRASHSIM_SWEEP_DRIVER_H_
