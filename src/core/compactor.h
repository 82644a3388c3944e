// Idle-time free-space compactor (§2.3, §4.2).
//
// During idle periods the disk processor reads a victim track and hole-plugs its live blocks
// into free space elsewhere (via normal eager writes), producing entirely empty tracks for the
// allocator's fill-to-threshold mode. Work proceeds at track granularity, so even short idle
// intervals are useful — the property Figure 11 contrasts with the segment-granularity LFS
// cleaner. Each victim is a compactable track with the fewest live blocks, drawn at random
// among the tracks tied at that count. The paper picks victims at random among all compactable
// tracks; the greedy pick cuts governed-hot's write amplification by a quarter (DESIGN.md).
#ifndef SRC_CORE_COMPACTOR_H_
#define SRC_CORE_COMPACTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/eager_allocator.h"
#include "src/core/virtual_log.h"

namespace vlog::core {

// What the compactor needs from the VLD to move a live block.
class CompactionBackend {
 public:
  virtual ~CompactionBackend() = default;
  // Moves the data block at `phys_block` to a freshly allocated location (map update included).
  virtual common::Status RelocateDataBlock(uint32_t phys_block) = 0;
  // Re-appends `piece`'s map sector, freeing its old block.
  virtual common::Status RewritePiece(uint32_t piece) = 0;
};

struct CompactorConfig {
  uint32_t target_empty_tracks = 4;  // Stop compacting once this many empty tracks exist.
};

struct CompactorStats {
  uint64_t idle_runs = 0;
  uint64_t tracks_compacted = 0;
  uint64_t data_blocks_moved = 0;
  uint64_t map_sectors_rewritten = 0;
  uint64_t bursts_preempted = 0;  // Bounded runs that stopped mid-track: no move fit.
  uint64_t tracks_resumed = 0;    // Victims continued from a previously preempted burst.
  // Victims that ended at a block holding only pinned map sectors: a commit during the victim's
  // own scan pinned them, and they stay put until a checkpoint releases them.
  uint64_t pinned_block_stops = 0;
  common::Duration busy_time = 0;
  // Simulated time bounded runs ran past their deadline: a block move, once started, always
  // finishes, so a run that starts one late ends late.
  common::Duration overrun_time = 0;
};

class Compactor {
 public:
  Compactor(CompactionBackend* backend, simdisk::SimDisk* disk, EagerAllocator* allocator,
            VirtualLog* vlog, CompactorConfig config, uint64_t seed);

  // Compacts until `deadline`, enough empty tracks exist, or no victim remains. Each victim
  // track is finished once started (track-granularity work units). Returns tracks emptied.
  uint32_t RunUntil(common::Time deadline);

  // Preemptible variant for governed bursts: a block move starts only when one MoveCost(),
  // as measured before this run, still fits before the deadline, so a burst may stop
  // mid-track but overruns its deadline only by how much its last move exceeds the mean. A
  // run too short for one move returns before it resumes or draws a victim: it consumes no
  // rng draw and excludes no track from allocation. The unfinished victim is remembered and
  // continued by the next run (bounded or idle) before a new victim is drawn; relocations
  // already committed are never redone, because the resumed scan skips blocks that are no
  // longer live. With a deadline generous enough that no track is ever truncated, the call
  // sequence is identical to RunUntil. `target_empty_tracks` overrides the config target for
  // this burst (0 keeps it) — the governor chases a deeper reserve under load than the idle
  // compactor's default.
  uint32_t RunBounded(common::Time deadline, uint32_t target_empty_tracks = 0);

  // Mean simulated cost of one block move (a data relocation or a map-sector rewrite) over
  // this compactor's lifetime: busy_time / (data_blocks_moved + map_sectors_rewritten). 0
  // before the first move, so a fresh compactor starts a move on any budget.
  common::Duration MoveCost() const;

  // The victim a preempted burst left mid-track, if any. It stays excluded from allocation
  // until the next run resumes or abandons it — otherwise foreground writes between bursts
  // would refill the holes the burst just opened (the arm parks on the victim, making its
  // free blocks the allocator's nearest candidates) and no track would ever empty.
  std::optional<uint64_t> resume_track() const { return resume_track_; }

  const CompactorStats& stats() const { return stats_; }

 private:
  uint32_t Run(common::Time deadline, bool preemptible, uint32_t target_empty_tracks);
  void AbandonResume();
  bool Compactable(uint64_t track) const;
  std::optional<uint64_t> PickVictim();
  // Moves the victim's live blocks, starting none after `last_start`.
  bool CompactTrack(uint64_t track, common::Time last_start, bool* interrupted);

  std::optional<uint64_t> resume_track_;
  std::vector<uint64_t> candidates_;  // PickVictim's tied victims, kept to reuse the buffer.

  CompactionBackend* backend_;
  simdisk::SimDisk* disk_;
  EagerAllocator* allocator_;
  VirtualLog* vlog_;
  CompactorConfig config_;
  common::Rng rng_;
  CompactorStats stats_;
};

}  // namespace vlog::core

#endif  // SRC_CORE_COMPACTOR_H_
