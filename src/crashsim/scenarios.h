// Canned crash-consistency workloads, shared by tests/crashsim_test.cc and
// bench/bench_crashsim.cpp.
//
// All scenarios run on a small truncated HP 97560 so that full-disk scan recoveries (the
// common case when the crash precedes any park) stay cheap enough to sweep hundreds of crash
// points. Each scenario stresses a different recovery surface:
//   kUfsOnVld:              an unmodified FFS-style file system generating real mixed traffic
//                           (metadata, data, directory updates) through the device interface;
//   kCompactorActive:       direct device traffic with trims, multi-extent atomic writes, and
//                           idle-time compaction moving both data and map blocks;
//   kCompactionUnderLoad:   queued group-commit batches interleaved with governed compaction
//                           bursts bounded tightly enough to stop mid-track, so crash points
//                           cut bursts between relocations and at the preemption boundary
//                           itself, plus a checkpoint taken between two governed rounds;
//   kCheckpointInterrupted: repeated checkpoints so crash points land inside the
//                           checkpoint-region writes themselves: a full write into each slot,
//                           then an incremental one into each, plus a final park.
//   kQueuedGroupCommit:     batches of queued writes whose map entries land in single packed
//                           group-commit transactions, so crash points tear multi-sector map
//                           writes; each batch must recover all-old-or-all-new;
//   kQueuedMixedReadWrite:  queued reads interleaved with queued writes through the shared
//                           request queue (SPTF service order, same-batch RAW forwarding,
//                           reads of unmapped blocks); reads are verified at record time and
//                           recorded as nothing, so the sweep doubles as proof that read
//                           traffic never dirties crash-visible state;
//   kLfsOnVld:              the §4.4 LFS stack (log-structured logical disk + MinixUFS-style
//                           fs) mounted on the VLD, so multi-block segment writes are the
//                           device traffic being crash-swept.
// The VLFS scenario exercises file-level recovery: namespace ops, sync writes, checkpoint,
// idle compaction, and park.
//
// The array scenarios run the same traffic shapes through a 2-member VldArray (striped with a
// 2-block stripe unit so batches span both members, or mirrored), on the direct disk for torn
// per-member crash points and on the cached disk for reordered mid-destage subsets.
#ifndef SRC_CRASHSIM_SCENARIOS_H_
#define SRC_CRASHSIM_SCENARIOS_H_

#include "src/crashsim/array_harness.h"
#include "src/crashsim/harness.h"
#include "src/simdisk/disk_params.h"

namespace vlog::crashsim {

enum class VldScenario {
  kUfsOnVld,
  kCompactorActive,
  kCompactionUnderLoad,
  kCheckpointInterrupted,
  kQueuedGroupCommit,
  kQueuedMixedReadWrite,
  kLfsOnVld,
  // NVM-stage-focused traffic: bursts of small staged sync writes, overlapping direct writes
  // and trims (the conflict/invalidate protocol), duty-cycled destage pumps, queued batches
  // over staged blocks, and a staged-residue tail so crash points land with acked writes whose
  // ONLY copy is the NVM log. Meaningful only with VldCrashSim::EnableStage; without a stage
  // the destage pumps are no-ops and it degenerates to plain sync traffic.
  kNvmStagedWrites,
};

const char* VldScenarioName(VldScenario scenario);

// The common small disk and device configs the scenarios run on.
simdisk::DiskParams CrashSimDiskParams();
// Same disk with a volatile write-back cache enabled, for the reordering crash sweeps. The
// capacity is deliberately generous so the workload never triggers a pressure drain: a drain
// would act as an extra barrier, silently shrinking the reorderable windows under test.
simdisk::DiskParams CrashSimCachedDiskParams();
core::VldConfig CrashSimVldConfig();
vlfs::VlfsConfig CrashSimVlfsConfig();
// The NVM staging tier the staged sweeps layer over the Vld (any scenario can run with it via
// VldCrashSim::EnableStage). 256 KiB keeps overflow drains in play for the fill-heavy
// scenarios without making them the only destage path.
simdisk::NvmDeviceParams CrashSimNvmParams();
core::NvmStageConfig CrashSimNvmStageConfig();

// Records the scenario's workload into `sim` (which must be freshly constructed).
common::Status RecordVldScenario(VldScenario scenario, VldCrashSim& sim);

// The scripted VLFS workload.
std::vector<VlfsOp> VlfsScenarioScript();

// --- Array scenarios ---

enum class ArrayScenario {
  kStripedGroupCommit,  // Queued batches spanning both members: cross-disk group commit.
  kMirroredResync,      // Mirrored writes; recovery must resync replicas that crashed mid-op.
};

const char* ArrayScenarioName(ArrayScenario scenario);

// 2-member array configs. The striped unit is 2 blocks so multi-block batches regularly
// straddle the member boundary (that is the cross-disk case under test).
array::VldArrayConfig CrashSimStripedArrayConfig();
array::VldArrayConfig CrashSimMirroredArrayConfig();

// Records the scenario's workload into `sim` (which must be freshly constructed with a
// matching mode: striped for kStripedGroupCommit, mirrored for kMirroredResync).
common::Status RecordArrayScenario(ArrayScenario scenario, ArrayCrashSim& sim);

}  // namespace vlog::crashsim

#endif  // SRC_CRASHSIM_SCENARIOS_H_
