// Eager-writing block allocation: pick the free physical block that the head can reach soonest.
//
// Three modes, mirroring §2.2/§2.3 and §4.2 of the paper:
//  - Greedy: nearest free block in the current track, else the best candidate in the current
//    cylinder (paying a head switch), else a cylinder seek — always in one sweep direction,
//    wrapping at the last cylinder, so the head is never trapped in a full region.
//  - Fill-to-threshold (used when the compactor runs): write into an initially-empty track until
//    only `track_switch_threshold` of its blocks remain free, then move to the next empty track;
//    fall back to greedy when no empty tracks remain.
//  - Hole-plug (the compactor's own writes): the nearest free block among the partly filled
//    tracks with the most live blocks, never the compactor's victim, so victims drain into
//    existing holes; greedy when no track is partly filled.
#ifndef SRC_CORE_EAGER_ALLOCATOR_H_
#define SRC_CORE_EAGER_ALLOCATOR_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "src/core/free_space.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {

struct AllocatorConfig {
  bool fill_to_threshold = false;
  // Fraction of a track's blocks kept free before switching tracks (the paper reserves 25%,
  // i.e. fills tracks to 75%).
  double track_switch_threshold = 0.25;
};

struct AllocatorStats {
  uint64_t allocations = 0;
  // Where each allocation's block lay relative to the arm, whichever pick chose it: these
  // three sum to `allocations`.
  uint64_t same_track = 0;       // On the arm's track.
  uint64_t same_cylinder = 0;    // Needed a head switch within the cylinder.
  uint64_t cylinder_seeks = 0;   // Needed an arm move.
  uint64_t fill_track_switches = 0;
  uint64_t greedy_fallbacks = 0;  // Fill mode ran out of empty tracks.
  // Sum of the picks' positioning costs: each is exactly what a write-through disk charges the
  // block's write (arm move plus rotational wait) when that write follows at once.
  common::Duration estimated_locate = 0;
};

class EagerAllocator {
 public:
  EagerAllocator(simdisk::SimDisk* disk, FreeSpaceMap* space, AllocatorConfig config);

  // Chooses and marks live a free physical block near the head. Returns nullopt when the disk
  // is completely full.
  std::optional<uint32_t> Allocate();

  // The positioning cost the next Allocate() would pay if it ran now: the same pick, so
  // exactly the amount that Allocate() would add to stats().estimated_locate (0 when the disk
  // is full). Changes nothing, fill-track switches and the empty-track queue included.
  common::Duration EstimateLocate() const;

  void Free(uint32_t block) { space_->Free(block); }

  // Compactor integration: supply a newly emptied track / exclude the current victim.
  void NoteEmptyTrack(uint64_t track);
  void SetExcludedTrack(std::optional<uint64_t> track) { excluded_track_ = track; }
  // Hole-plugging mode for compaction output: allocate into the partly filled track with the
  // most live blocks (the nearest such track on ties) so victims drain into existing holes
  // instead of consuming the empty tracks being produced.
  void SetCompactionMode(bool on) { compaction_mode_ = on; }

  const AllocatorConfig& config() const { return config_; }
  void set_fill_to_threshold(bool on) { config_.fill_to_threshold = on; }
  const AllocatorStats& stats() const { return stats_; }
  FreeSpaceMap& space() { return *space_; }

 private:
  struct Candidate {
    uint32_t block = 0;
    common::Duration cost = 0;
  };
  // The allocator state a pick moves: the fill track, the empty-track queue and scan, and the
  // counters of both. Allocate() commits it; EstimateLocate() drops it.
  struct Cursor {
    std::optional<uint64_t> fill_track;
    uint64_t scan_cursor = 0;
    size_t empties_taken = 0;  // Entries consumed from the front of empty_tracks_.
    uint64_t fill_track_switches = 0;
    uint64_t greedy_fallbacks = 0;
  };
  Cursor Resume() const { return Cursor{.fill_track = fill_track_, .scan_cursor = scan_cursor_}; }

  // The block the next allocation takes from the state in `cursor`, which it advances.
  std::optional<Candidate> Pick(Cursor& cursor) const;
  // Where the head is once an arm move ends: the move, the platter's rotational phase then,
  // and the first sector whose leading edge is still ahead. Every track the same move away
  // shares it, so a pick works it out once per distinct move.
  struct Arrival {
    common::Duration move = 0;
    common::Duration phase = 0;
    uint32_t sector = 0;
  };
  // The picks below price every candidate from `phase`, the platter's rotational phase when
  // the pick starts (SimDisk::PhaseAt).
  Arrival ArriveAfter(common::Duration move, common::Duration phase) const;
  // Best candidate in `track` for a head arriving as `at` says.
  std::optional<Candidate> BestInTrack(uint64_t track, const Arrival& at,
                                       std::optional<uint64_t> excluded) const;
  std::optional<Candidate> GreedyPick(common::Duration phase,
                                      std::optional<uint64_t> excluded) const;
  std::optional<Candidate> FillPick(Cursor& cursor, common::Duration phase,
                                    std::optional<uint64_t> excluded) const;
  std::optional<Candidate> HolePlugPick(common::Duration phase) const;
  // Next empty track for fill mode: queued empties first, then a sweep scan.
  std::optional<uint64_t> NextEmptyTrack(Cursor& cursor, std::optional<uint64_t> excluded) const;
  // Counts `block`'s placement relative to the arm: same track, same cylinder or a seek.
  void CountPlacement(uint32_t block);

  uint32_t ReservedPerTrack() const;

  simdisk::SimDisk* disk_;
  FreeSpaceMap* space_;
  AllocatorConfig config_;
  AllocatorStats stats_;
  std::deque<uint64_t> empty_tracks_;
  std::optional<uint64_t> fill_track_;
  std::optional<uint64_t> excluded_track_;
  bool compaction_mode_ = false;
  uint64_t scan_cursor_ = 0;  // Sweep position for empty-track scans (track index).
};

}  // namespace vlog::core

#endif  // SRC_CORE_EAGER_ALLOCATOR_H_
