#include "src/crashsim/scenarios.h"

#include <algorithm>
#include <deque>
#include <string>

#include "src/common/rng.h"
#include "src/core/governor.h"
#include "src/lfs/log_disk.h"
#include "src/lfs/simple_fs.h"
#include "src/simdisk/host_model.h"
#include "src/ufs/ufs.h"

namespace vlog::crashsim {
namespace {

constexpr uint32_t kBlockSectors = 8;
constexpr size_t kBlockBytes = kBlockSectors * 512;

// Deterministic, version-tagged block content so stale data is never mistaken for fresh.
std::vector<std::byte> Pattern(uint32_t block, uint32_t version, size_t bytes = kBlockBytes) {
  std::vector<std::byte> data(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::byte>((block * 131u + version * 17u + i) & 0xFF);
  }
  return data;
}

// Synchronous single-block writes of blocks [first, end), each at `version`.
common::Status WriteBlocks(ShadowVld& dev, uint32_t first, uint32_t end, uint32_t version) {
  for (uint32_t b = first; b < end; ++b) {
    RETURN_IF_ERROR(dev.Write(static_cast<simdisk::Lba>(b) * kBlockSectors, Pattern(b, version)));
  }
  return common::OkStatus();
}

// A batch of whole-block writes under construction. The payloads sit in a deque, so adding
// one never moves the bytes earlier writes point at.
struct Batch {
  void Add(uint32_t block, uint32_t version, uint32_t block_sectors = kBlockSectors) {
    payloads.push_back(Pattern(block, version));
    writes.push_back(core::Vld::AtomicWrite{static_cast<simdisk::Lba>(block) * block_sectors,
                                            payloads.back()});
  }

  std::deque<std::vector<std::byte>> payloads;
  std::vector<core::Vld::AtomicWrite> writes;
};

common::Status UfsOnVldWorkload(ShadowVld& dev) {
  simdisk::HostModel host(simdisk::ZeroCostHost(), dev.vld().disk().clock());
  ufs::Ufs fs(&dev, &host, ufs::UfsConfig{.blocks_per_cg = 64, .cache_blocks = 32});
  RETURN_IF_ERROR(fs.Format());
  for (int f = 0; f < 6; ++f) {
    const std::string path = "/f" + std::to_string(f);
    RETURN_IF_ERROR(fs.Create(path));
    RETURN_IF_ERROR(fs.Write(path, 0, Pattern(static_cast<uint32_t>(f), 1, 2 * kBlockBytes),
                             fs::WritePolicy::kSync));
  }
  // Overwrites (update-in-place at the FS level, eager relocation at the VLD level).
  RETURN_IF_ERROR(fs.Write("/f1", 0, Pattern(1, 2, kBlockBytes), fs::WritePolicy::kSync));
  RETURN_IF_ERROR(
      fs.Write("/f3", kBlockBytes, Pattern(3, 2, kBlockBytes), fs::WritePolicy::kSync));
  RETURN_IF_ERROR(fs.Remove("/f0"));
  RETURN_IF_ERROR(fs.Remove("/f4"));
  RETURN_IF_ERROR(fs.Create("/g"));
  RETURN_IF_ERROR(fs.Write("/g", 0, Pattern(40, 1, 3 * kBlockBytes), fs::WritePolicy::kSync));
  RETURN_IF_ERROR(fs.Sync());
  return dev.Park();
}

common::Status CompactorActiveWorkload(ShadowVld& dev) {
  const uint32_t blocks = dev.vld().logical_blocks();
  const uint32_t used = blocks * 2 / 5;
  // Fill a contiguous region so trims punch holes the compactor wants to squeeze out.
  RETURN_IF_ERROR(WriteBlocks(dev, 0, used, 1));
  RETURN_IF_ERROR(dev.Trim(0, static_cast<uint64_t>(used / 3) * kBlockSectors));
  dev.RunIdle(common::Milliseconds(150));

  // Multi-extent atomic writes over blocks interleaved with trimmed and live ranges.
  common::Rng rng(7);
  for (int round = 0; round < 5; ++round) {
    const uint32_t a = static_cast<uint32_t>(rng.Below(used));
    const uint32_t b = static_cast<uint32_t>(rng.Below(used));
    const uint32_t c = used + static_cast<uint32_t>(rng.Below(blocks - used));
    Batch batch;
    batch.Add(a, 10 + static_cast<uint32_t>(round));
    batch.Add(b, 20 + static_cast<uint32_t>(round));
    batch.Add(c, 30 + static_cast<uint32_t>(round));
    RETURN_IF_ERROR(dev.WriteAtomic(batch.writes));
    // Interleave trims with the atomic traffic, sometimes hitting just-written blocks.
    if (round % 2 == 0) {
      RETURN_IF_ERROR(dev.Trim(static_cast<simdisk::Lba>(a) * kBlockSectors, kBlockSectors));
    }
  }
  dev.RunIdle(common::Milliseconds(150));
  RETURN_IF_ERROR(WriteBlocks(dev, used / 3, used / 3 + 8, 99));
  return common::OkStatus();  // No park: every recovery takes the scan path.
}

// Duty-cycled compaction under foreground load (the governed-burst path): queued group-commit
// batches interleave with bounded compaction bursts small enough to stop mid-track, so crash
// points land between a burst's relocations, at the preemption cut itself, in the packed map
// commits of the surrounding batches, and inside a checkpoint taken between two governed
// rounds (the bursts themselves checkpoint only once pins pile up). Recovery must see every
// acknowledged batch all-old-or-all-new regardless of how much of a burst persisted, and every
// crash after that checkpoint seeds its recovery from a checkpoint.
common::Status CompactionUnderLoadWorkload(ShadowVld& dev) {
  const uint32_t blocks = dev.vld().logical_blocks();
  const uint32_t used = blocks * 3 / 5;
  RETURN_IF_ERROR(WriteBlocks(dev, 0, used, 1));
  // Trims punch holes so the governor has real compaction debt from the first grant.
  RETURN_IF_ERROR(dev.Trim(0, static_cast<uint64_t>(used / 3) * kBlockSectors));
  core::GovernorConfig config;
  // Below one block move on this disk (13-16 ms), so the governor raises the cap to one move
  // and each credit-shaped grant is exactly one move long.
  config.max_burst = common::Milliseconds(8);
  // The truncated disk's trimmed region leaves the default empty-track target satisfied, which
  // would idle the governor; aim far above it so every round's grant path stays live and the
  // sweep actually covers bursts.
  config.target_empty_tracks = 64;
  core::CompactionGovernor governor(&dev.vld(), /*timeline=*/nullptr, config);
  common::Rng rng(29);
  uint32_t version = 2;
  for (int round = 0; round < 6; ++round) {
    const size_t depth = 1 + rng.Below(6);
    Batch batch;
    for (size_t i = 0; i < depth; ++i) {
      batch.Add(static_cast<uint32_t>(rng.Below(blocks)), version);
    }
    RETURN_IF_ERROR(dev.WriteQueuedBatch(batch.writes));
    ++version;
    // Alternate trough-shaped grants (idle hint: the whole gap) with credit-shaped ones, the
    // two grant paths the governor exposes; route the burst through the shadow so its media
    // writes are attributed to the burst op, not the next batch. The hint is sized to start a
    // victim track without finishing it, so the mid-track preemption cut is part of the
    // recorded trace.
    const common::Duration hint = round % 2 == 0 ? common::Milliseconds(60) : 0;
    const common::Duration grant = governor.Grant(hint);
    if (grant > 0) {
      dev.RunGovernedBurst(grant, config.target_empty_tracks);
    }
    if (round % 3 == 1) {
      RETURN_IF_ERROR(dev.Trim(static_cast<simdisk::Lba>(used / 2) * kBlockSectors,
                               static_cast<uint64_t>(4) * kBlockSectors));
    }
    if (round == 2) {
      // A checkpoint amid the bursts: crash points land in its body and header writes, and
      // every later one seeds its recovery from a checkpoint.
      RETURN_IF_ERROR(dev.Checkpoint());
    }
  }
  // Self-check the coverage claims: the sweep is only exercising the governed path if bursts
  // of both shapes were actually granted and at least one stopped mid-track.
  const core::GovernorStats& gs = governor.stats();
  if (gs.idle_grants == 0 || gs.bursts == gs.idle_grants + gs.pressure_overrides) {
    return common::InvalidArgument(
        "scenario did not grant both burst shapes: bursts=" + std::to_string(gs.bursts) +
        " idle_grants=" + std::to_string(gs.idle_grants) +
        " pressure_overrides=" + std::to_string(gs.pressure_overrides));
  }
  if (dev.vld().compactor().stats().bursts_preempted == 0) {
    const auto& cs = dev.vld().compactor().stats();
    return common::InvalidArgument(
        "scenario never preempted a burst mid-track: bursts=" + std::to_string(gs.bursts) +
        " granted_ns=" + std::to_string(gs.granted_ns) +
        " tracks_compacted=" + std::to_string(cs.tracks_compacted) +
        " moved=" + std::to_string(cs.data_blocks_moved));
  }
  return common::OkStatus();  // No park: every recovery takes the scan path.
}

common::Status CheckpointInterruptedWorkload(ShadowVld& dev) {
  const uint32_t blocks = dev.vld().logical_blocks();
  uint32_t version = 1;
  RETURN_IF_ERROR(WriteBlocks(dev, 0, 30, version));
  RETURN_IF_ERROR(dev.Checkpoint());
  ++version;
  RETURN_IF_ERROR(WriteBlocks(dev, 10, 25, version));
  RETURN_IF_ERROR(dev.Checkpoint());
  RETURN_IF_ERROR(dev.Trim(0, static_cast<uint64_t>(8) * kBlockSectors));
  // The first checkpoint into each slot writes every piece; this one and the last write only
  // the pieces their slot is missing, so both slots take an incremental write.
  RETURN_IF_ERROR(dev.Checkpoint());
  ++version;
  RETURN_IF_ERROR(WriteBlocks(dev, blocks - 6, blocks, version));
  RETURN_IF_ERROR(dev.Checkpoint());
  return dev.Park();
}

common::Status QueuedGroupCommitWorkload(ShadowVld& dev) {
  const uint32_t blocks = dev.vld().logical_blocks();
  // Base content so the queued updates overwrite live blocks (the recovery-relevant case:
  // all-old must expose the previous version, not zeros).
  RETURN_IF_ERROR(WriteBlocks(dev, 0, 24, 1));
  // Batches of random-update queued writes at varying depths: each batch's map entries commit
  // in one packed multi-sector transaction, so crash points land inside packed map writes.
  common::Rng rng(11);
  uint32_t version = 2;
  for (int round = 0; round < 6; ++round) {
    const size_t depth = 1 + rng.Below(8);
    Batch batch;
    for (size_t i = 0; i < depth; ++i) {
      // Random updates over the whole logical space so one batch's map entries usually span
      // several pieces — that is what makes the packed commit a multi-sector (tearable) write.
      batch.Add(static_cast<uint32_t>(rng.Below(blocks)), version);
    }
    RETURN_IF_ERROR(dev.WriteQueuedBatch(batch.writes));
    ++version;
  }
  // A trim and one more deep batch, then park so the sweep also covers tail recoveries over
  // packed blocks.
  RETURN_IF_ERROR(dev.Trim(0, static_cast<uint64_t>(4) * kBlockSectors));
  Batch deep;
  for (uint32_t i = 0; i < 12; ++i) {
    // Stride the deep batch across the logical space: 12 updates in 12 different pieces,
    // guaranteeing the packed commit spans multiple physical blocks.
    deep.Add((i * (blocks / 12)) % blocks, version);
  }
  RETURN_IF_ERROR(dev.WriteQueuedBatch(deep.writes));
  return dev.Park();
}

common::Status QueuedMixedReadWriteWorkload(ShadowVld& dev) {
  const uint32_t blocks = dev.vld().logical_blocks();
  // Base content: reads of mapped blocks must see real prior versions, not zeros.
  RETURN_IF_ERROR(WriteBlocks(dev, 0, 24, 1));
  common::Rng rng(13);
  uint32_t version = 2;
  for (int round = 0; round < 6; ++round) {
    // Writes and reads interleave 1:1 through one FlushQueue. Read i targets write i's block
    // every other slot (a guaranteed same-batch RAW that must be served from the pending
    // payload), otherwise a random block — occasionally unmapped, which must read as zeros.
    const size_t depth = 2 + rng.Below(6);  // depth writes + depth reads <= queue_depth 16.
    Batch batch;
    std::vector<uint32_t> read_blocks;
    read_blocks.reserve(depth);
    for (size_t i = 0; i < depth; ++i) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
      batch.Add(b, version);
      read_blocks.push_back(i % 2 == 0 ? b : static_cast<uint32_t>(rng.Below(blocks)));
    }
    RETURN_IF_ERROR(dev.QueuedMixedBatch(batch.writes, read_blocks));
    ++version;
  }
  // A read-only batch: commits nothing, and QueuedMixedBatch fails the recording if it emits
  // any media write — the direct "reads never dirty state" check.
  {
    std::vector<uint32_t> read_blocks;
    for (uint32_t i = 0; i < 8; ++i) {
      read_blocks.push_back(static_cast<uint32_t>(rng.Below(blocks)));
    }
    RETURN_IF_ERROR(dev.QueuedMixedBatch({}, read_blocks));
  }
  // Trim then mix reads of the trimmed (now unmapped) blocks with fresh writes, and park so
  // the sweep covers tail recoveries too.
  RETURN_IF_ERROR(dev.Trim(0, static_cast<uint64_t>(4) * kBlockSectors));
  {
    Batch batch;
    std::vector<uint32_t> read_blocks;
    for (uint32_t i = 0; i < 6; ++i) {
      const uint32_t b = 8 + i * (blocks / 8) % (blocks - 8);
      batch.Add(b, version);
      read_blocks.push_back(i < 4 ? i : b);  // Blocks 0..3 were just trimmed: expect zeros.
    }
    RETURN_IF_ERROR(dev.QueuedMixedBatch(batch.writes, read_blocks));
  }
  return dev.Park();
}

// Striped array: base fill, then queued multi-block batches whose blocks scatter across both
// members (cross-disk group commit: one packed map transaction per member per batch), then a
// sync overwrite and record-time read checks. No park, so every recovery scans.
common::Status StripedArrayWorkload(ArrayCrashSim::Workload& w) {
  const uint32_t blocks = w.array_blocks();
  const uint32_t block_sectors = w.block_sectors();
  for (uint32_t b = 0; b < 12; ++b) {
    RETURN_IF_ERROR(w.WriteBlock(b, Pattern(b, 1)));
  }
  common::Rng rng(17);
  uint32_t version = 2;
  for (int round = 0; round < 4; ++round) {
    const size_t depth = 2 + rng.Below(5);
    std::vector<uint32_t> chosen;
    Batch batch;
    while (chosen.size() < depth) {
      // Unique random blocks over the whole array space, so one batch usually lands runs on
      // both members and on several map pieces per member.
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
      if (std::find(chosen.begin(), chosen.end(), b) != chosen.end()) {
        continue;
      }
      chosen.push_back(b);
      batch.Add(b, version, block_sectors);
    }
    RETURN_IF_ERROR(w.QueuedBatch(batch.writes));
    ++version;
  }
  RETURN_IF_ERROR(w.WriteBlock(3, Pattern(3, 90)));
  RETURN_IF_ERROR(w.ReadVerify(0));
  return w.ReadVerify(3);
}

// Mirrored array: every write fans to both replicas; crash points that cut between the two
// member commits leave one replica ahead, which stitched recovery must resync.
common::Status MirroredArrayWorkload(ArrayCrashSim::Workload& w) {
  const uint32_t blocks = w.array_blocks();
  const uint32_t block_sectors = w.block_sectors();
  for (uint32_t b = 0; b < 8; ++b) {
    RETURN_IF_ERROR(w.WriteBlock(b, Pattern(b, 1)));
  }
  common::Rng rng(23);
  uint32_t version = 2;
  for (int round = 0; round < 3; ++round) {
    const size_t depth = 2 + rng.Below(3);
    std::vector<uint32_t> chosen;
    Batch batch;
    while (chosen.size() < depth) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
      if (std::find(chosen.begin(), chosen.end(), b) != chosen.end()) {
        continue;
      }
      chosen.push_back(b);
      batch.Add(b, version, block_sectors);
    }
    RETURN_IF_ERROR(w.QueuedBatch(batch.writes));
    ++version;
  }
  // Overwrite a base block (the resync-relevant case: a lagging replica must roll forward to
  // this version, not back to version 1) and a fresh block.
  RETURN_IF_ERROR(w.WriteBlock(1, Pattern(1, 50)));
  RETURN_IF_ERROR(w.WriteBlock(blocks - 1, Pattern(blocks - 1, 51)));
  RETURN_IF_ERROR(w.ReadVerify(1));
  return w.ReadVerify(blocks - 1);
}

common::Status LfsOnVldWorkload(ShadowVld& dev) {
  simdisk::HostModel host(simdisk::ZeroCostHost(), dev.vld().disk().clock());
  // Small segments and caches so the truncated disk sees several sealed-segment writes plus
  // cleaning — every one a multi-block device write the VLD must keep atomic.
  lfs::LogStructuredDisk lld(&dev, lfs::LldConfig{.segment_blocks = 16,
                                                  .reserve_segments = 2,
                                                  .min_free_segments = 1,
                                                  .idle_clean_target = 3});
  RETURN_IF_ERROR(lld.Format());
  lfs::SimpleFs fs(&lld, &host,
                   lfs::SimpleFsConfig{.cache_blocks = 16, .cache_is_nvram = false,
                                       .inode_blocks = 4});
  RETURN_IF_ERROR(fs.Format());
  for (int f = 0; f < 4; ++f) {
    const std::string path = "/lfs" + std::to_string(f);
    RETURN_IF_ERROR(fs.Create(path));
    RETURN_IF_ERROR(fs.Write(path, 0, Pattern(static_cast<uint32_t>(f), 1, 2 * kBlockBytes),
                             fs::WritePolicy::kAsync));
  }
  RETURN_IF_ERROR(fs.Sync());
  // Overwrites and a remove churn the log so the cleaner has work.
  RETURN_IF_ERROR(fs.Write("/lfs1", 0, Pattern(1, 2, kBlockBytes), fs::WritePolicy::kSync));
  RETURN_IF_ERROR(fs.Remove("/lfs0"));
  RETURN_IF_ERROR(fs.Sync());
  common::Clock* clock = dev.vld().disk().clock();
  RETURN_IF_ERROR(lld.CleanDuringIdle(clock->Now() + common::Milliseconds(80), clock));
  RETURN_IF_ERROR(fs.Write("/lfs2", kBlockBytes, Pattern(2, 3, kBlockBytes),
                           fs::WritePolicy::kSync));
  RETURN_IF_ERROR(fs.Sync());
  return dev.Park();
}

// NVM-stage-focused traffic (run with VldCrashSim::EnableStage): staged sync bursts, direct
// writes and trims overlapping staged blocks (conflict destage + invalidate), duty-cycled
// destage pumps, queued batches whose submits and reads cross staged blocks, and a staged
// tail with NO final drain — the last crash points must recover acked writes whose only copy
// is the NVM log.
common::Status NvmStagedWritesWorkload(ShadowVld& dev) {
  const uint32_t blocks = dev.vld().logical_blocks();
  common::Rng rng(31);
  uint32_t version = 1;
  // Base fill: small single-block writes, all absorbed by the stage.
  RETURN_IF_ERROR(WriteBlocks(dev, 0, 16, 1));
  for (int round = 0; round < 5; ++round) {
    ++version;
    for (int i = 0; i < 6; ++i) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
      RETURN_IF_ERROR(WriteBlocks(dev, b, b + 1, version));
    }
    // A two-block write exceeds the staging threshold: it goes direct and must invalidate any
    // staged copy it overlaps.
    const uint32_t c = static_cast<uint32_t>(rng.Below(blocks - 2));
    RETURN_IF_ERROR(dev.Write(static_cast<simdisk::Lba>(c) * kBlockSectors,
                              Pattern(c, version, 2 * kBlockBytes)));
    RETURN_IF_ERROR(dev.PumpDestage(common::Milliseconds(2)));
    if (round % 2 == 0) {
      const uint32_t t = static_cast<uint32_t>(rng.Below(blocks - 2));
      RETURN_IF_ERROR(dev.Trim(static_cast<simdisk::Lba>(t) * kBlockSectors,
                               static_cast<uint64_t>(2) * kBlockSectors));
    }
  }
  // A queued mixed batch whose submits and reads cross staged blocks (submit-time conflict
  // destages), group-committed through the stage's passthrough.
  {
    ++version;
    Batch batch;
    std::vector<uint32_t> read_blocks;
    for (uint32_t i = 0; i < 4; ++i) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
      batch.Add(b, version);
      read_blocks.push_back(i % 2 == 0 ? b : static_cast<uint32_t>(rng.Below(blocks)));
    }
    RETURN_IF_ERROR(dev.QueuedMixedBatch(batch.writes, read_blocks));
  }
  RETURN_IF_ERROR(dev.DrainStage());
  // Staged residue: acked writes whose only copy is the NVM log when the trace ends. No park,
  // no drain — the sweep's tail points must replay them.
  for (uint32_t i = 0; i < 4; ++i) {
    const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
    RETURN_IF_ERROR(WriteBlocks(dev, b, b + 1, 200 + i));
  }
  return common::OkStatus();
}

}  // namespace

const char* VldScenarioName(VldScenario scenario) {
  switch (scenario) {
    case VldScenario::kUfsOnVld:
      return "ufs-on-vld";
    case VldScenario::kCompactorActive:
      return "compactor-active";
    case VldScenario::kCompactionUnderLoad:
      return "compaction-under-load";
    case VldScenario::kCheckpointInterrupted:
      return "checkpoint-interrupted";
    case VldScenario::kQueuedGroupCommit:
      return "queued-group-commit";
    case VldScenario::kQueuedMixedReadWrite:
      return "queued-mixed-read-write";
    case VldScenario::kLfsOnVld:
      return "lfs-on-vld";
    case VldScenario::kNvmStagedWrites:
      return "nvm-staged-writes";
  }
  return "?";
}

simdisk::DiskParams CrashSimDiskParams() {
  return simdisk::Truncated(simdisk::Hp97560(), 3);
}

simdisk::DiskParams CrashSimCachedDiskParams() {
  simdisk::DiskParams params = CrashSimDiskParams();
  params.cache.capacity_sectors = 1024;
  return params;
}

core::VldConfig CrashSimVldConfig() {
  // queue_depth 16 lets the queued scenario record batches deeper than the default 8.
  return core::VldConfig{.block_sectors = kBlockSectors, .queue_depth = 16};
}

vlfs::VlfsConfig CrashSimVlfsConfig() {
  return vlfs::VlfsConfig{};
}

simdisk::NvmDeviceParams CrashSimNvmParams() {
  simdisk::NvmDeviceParams params;
  params.size_bytes = 256 * 1024;
  return params;
}

core::NvmStageConfig CrashSimNvmStageConfig() {
  // Threshold = the scenarios' block size, so single-block sync writes stage and multi-block
  // writes exercise the direct/conflict path.
  return core::NvmStageConfig{.stage_threshold_sectors = kBlockSectors,
                              .destage_batch_records = 4};
}

common::Status RecordVldScenario(VldScenario scenario, VldCrashSim& sim) {
  switch (scenario) {
    case VldScenario::kUfsOnVld:
      return sim.Record(UfsOnVldWorkload);
    case VldScenario::kCompactorActive:
      return sim.Record(CompactorActiveWorkload);
    case VldScenario::kCompactionUnderLoad:
      return sim.Record(CompactionUnderLoadWorkload);
    case VldScenario::kCheckpointInterrupted:
      return sim.Record(CheckpointInterruptedWorkload);
    case VldScenario::kQueuedGroupCommit:
      return sim.Record(QueuedGroupCommitWorkload);
    case VldScenario::kQueuedMixedReadWrite:
      return sim.Record(QueuedMixedReadWriteWorkload);
    case VldScenario::kLfsOnVld:
      return sim.Record(LfsOnVldWorkload);
    case VldScenario::kNvmStagedWrites:
      return sim.Record(NvmStagedWritesWorkload);
  }
  return common::InvalidArgument("unknown scenario");
}

const char* ArrayScenarioName(ArrayScenario scenario) {
  switch (scenario) {
    case ArrayScenario::kStripedGroupCommit:
      return "striped-group-commit";
    case ArrayScenario::kMirroredResync:
      return "mirrored-resync";
  }
  return "?";
}

array::VldArrayConfig CrashSimStripedArrayConfig() {
  return array::VldArrayConfig{.mode = array::ArrayMode::kStriped, .stripe_blocks = 2};
}

array::VldArrayConfig CrashSimMirroredArrayConfig() {
  return array::VldArrayConfig{.mode = array::ArrayMode::kMirrored};
}

common::Status RecordArrayScenario(ArrayScenario scenario, ArrayCrashSim& sim) {
  switch (scenario) {
    case ArrayScenario::kStripedGroupCommit:
      return sim.Record(StripedArrayWorkload);
    case ArrayScenario::kMirroredResync:
      return sim.Record(MirroredArrayWorkload);
  }
  return common::InvalidArgument("unknown array scenario");
}

std::vector<VlfsOp> VlfsScenarioScript() {
  std::vector<VlfsOp> script;
  auto op = [&](VlfsOp::Kind kind, std::string path = {}) {
    VlfsOp o;
    o.kind = kind;
    o.path = std::move(path);
    script.push_back(std::move(o));
  };
  auto write = [&](std::string path, uint64_t offset, uint32_t tag, size_t bytes) {
    VlfsOp o;
    o.kind = VlfsOp::Kind::kWriteSync;
    o.path = std::move(path);
    o.offset = offset;
    o.data = Pattern(tag, static_cast<uint32_t>(offset / 512 + 1), bytes);
    script.push_back(std::move(o));
  };
  op(VlfsOp::Kind::kMkdir, "/d");
  op(VlfsOp::Kind::kCreate, "/a");
  write("/a", 0, 1, 2 * kBlockBytes);
  op(VlfsOp::Kind::kCreate, "/d/b");
  write("/d/b", 0, 2, kBlockBytes);
  op(VlfsOp::Kind::kCreate, "/c");
  write("/c", 0, 3, 1536);  // Sub-block tail.
  write("/a", kBlockBytes, 1, kBlockBytes);  // Overwrite the middle of /a.
  op(VlfsOp::Kind::kRemove, "/c");
  op(VlfsOp::Kind::kCheckpoint);
  write("/d/b", kBlockBytes, 2, kBlockBytes);  // Extend after the checkpoint.
  {
    VlfsOp idle;
    idle.kind = VlfsOp::Kind::kIdle;
    idle.idle_budget = common::Milliseconds(100);
    script.push_back(std::move(idle));
  }
  op(VlfsOp::Kind::kCreate, "/d/e");
  write("/d/e", 0, 4, kBlockBytes);
  op(VlfsOp::Kind::kRemove, "/d/b");
  write("/a", 0, 5, kBlockBytes);  // Overwrite the head of /a once more.
  op(VlfsOp::Kind::kPark);
  return script;
}

}  // namespace vlog::crashsim
