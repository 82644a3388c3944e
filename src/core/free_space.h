// Physical-block free-space accounting for the VLD.
//
// The VLD allocates and frees fixed-size physical blocks (4 KB by default — §4.2 chooses the
// file system block size per Appendix A.1). This map tracks per-block state plus per-track
// free/live counts so the eager allocator and the compactor can reason at track granularity.
// It also indexes the partly filled tracks (some live and some free blocks) by live count, so
// the compactor's hole-plug target and its victims are found without scanning every track.
// The index is built on the first such pick, so a map that is never compacted never pays for
// it.
#ifndef SRC_CORE_FREE_SPACE_H_
#define SRC_CORE_FREE_SPACE_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/simdisk/geometry.h"

namespace vlog::core {

enum class BlockState : uint8_t {
  kFree = 0,
  kLive,    // Holds current data or a live map sector.
  kSystem,  // Park sector / checkpoint region; never allocated or compacted.
};

class FreeSpaceMap {
 public:
  FreeSpaceMap(const simdisk::DiskGeometry& geometry, uint32_t block_sectors);

  uint32_t block_sectors() const { return block_sectors_; }
  uint32_t blocks_per_track() const { return blocks_per_track_; }
  uint64_t total_blocks() const { return states_.size(); }
  uint64_t total_tracks() const { return track_free_.size(); }
  uint64_t free_blocks() const { return free_blocks_; }
  uint64_t live_blocks() const { return live_blocks_; }
  uint64_t system_blocks() const { return system_blocks_; }

  simdisk::Lba BlockToLba(uint32_t block) const {
    return static_cast<simdisk::Lba>(block) * block_sectors_;
  }
  uint32_t LbaToBlock(simdisk::Lba lba) const { return static_cast<uint32_t>(lba / block_sectors_); }
  uint64_t TrackOfBlock(uint32_t block) const { return block / blocks_per_track_; }

  BlockState state(uint32_t block) const { return states_[block]; }
  void MarkSystem(uint32_t block);
  void MarkLive(uint32_t block);
  void Free(uint32_t block);

  uint32_t FreeInTrack(uint64_t track) const { return track_free_[track]; }
  uint32_t LiveInTrack(uint64_t track) const { return track_live_[track]; }
  // Free blocks across the whole cylinder, so the allocator's cylinder-seek search can skip
  // fully packed cylinders without probing each of their tracks.
  uint32_t FreeInCylinder(uint32_t cylinder) const { return cyl_free_[cylinder]; }
  // True when the track holds no live and no system blocks.
  bool TrackEmpty(uint64_t track) const;
  // Number of tracks for which TrackEmpty() holds. Maintained incrementally so the allocator's
  // empty-track search can bail out O(1) on a packed disk instead of scanning every track.
  uint64_t EmptyTrackCount() const { return empty_tracks_; }
  // True when any block of the track is reserved (such tracks are not compaction victims).
  bool TrackHasSystem(uint64_t track) const { return track_system_[track] != 0; }

  // The free block in `track` whose starting sector is rotationally nearest at or after
  // `from_sector`, scanning circularly.
  std::optional<uint32_t> NearestFreeInTrack(uint64_t track, uint32_t from_sector) const;

  // The hole-plug target: among tracks holding both live and free blocks, one with the most
  // live blocks, the lowest-numbered on ties, never `excluded`. nullopt when there is none.
  // The first call builds the partial-track index; Mark*/Free keep it up to date after that.
  std::optional<uint64_t> FullestPartialTrack(std::optional<uint64_t> excluded);

  // Calls `visit(track)` for every partly filled track holding exactly `live` live blocks, in
  // track order: the compactor's victim candidates. Reads the same index, built on first use.
  template <typename Visit>
  void ForEachPartialTrack(uint32_t live, Visit visit) {
    BuildPartialIndex();
    if (live == 0 || live >= blocks_per_track_ || partial_in_bucket_[live] == 0) {
      return;
    }
    const uint64_t* bucket = partial_bits_.data() + live * track_words_;
    for (size_t w = 0; w < track_words_; ++w) {
      for (uint64_t word = bucket[w]; word != 0; word &= word - 1) {
        visit(w * 64 + static_cast<uint64_t>(std::countr_zero(word)));
      }
    }
  }

  // Fraction of allocatable (non-system) blocks that are live.
  double Utilization() const;

  // Compaction debt: the number of system-free tracks whose free fraction has fallen below
  // `frac` — tracks the fill-to-threshold allocator can no longer use without the compactor
  // first hole-plugging them. Timeline probes sample this per window, so its trajectory shows
  // whether background compaction keeps pace with foreground traffic. O(tracks).
  uint64_t TracksBelowFreeFraction(double frac) const;

 private:
  uint64_t CylinderOfTrack(uint64_t track) const { return track / tracks_per_cylinder_; }
  // Builds the partial-track index from the current counts unless it exists already.
  void BuildPartialIndex();
  // Adds `track` to (or removes it from) the bucket of its live count when it is partly
  // filled. Mark*/Free remove a track before they change its counts and add it back after.
  // A no-op until the index is built.
  void IndexPartial(uint64_t track, bool add);

  uint32_t block_sectors_;
  uint32_t blocks_per_track_;
  uint32_t tracks_per_cylinder_;
  std::vector<BlockState> states_;
  std::vector<uint32_t> cyl_free_;
  std::vector<uint32_t> track_free_;
  std::vector<uint32_t> track_live_;
  std::vector<uint32_t> track_system_;
  // Partly filled tracks bucketed by live count: bit t of bucket `live` (words
  // [live * track_words_, (live + 1) * track_words_)) is set iff track t has `live` live blocks
  // and at least one free block. partial_in_bucket_[live] counts the bucket's tracks. Both are
  // empty until BuildPartialIndex runs.
  size_t track_words_ = 0;
  std::vector<uint64_t> partial_bits_;
  std::vector<uint64_t> partial_in_bucket_;
  uint64_t free_blocks_ = 0;
  uint64_t live_blocks_ = 0;
  uint64_t system_blocks_ = 0;
  uint64_t empty_tracks_ = 0;
};

}  // namespace vlog::core

#endif  // SRC_CORE_FREE_SPACE_H_
