#include "src/core/free_space.h"

#include <cassert>

namespace vlog::core {

FreeSpaceMap::FreeSpaceMap(const simdisk::DiskGeometry& geometry, uint32_t block_sectors)
    : block_sectors_(block_sectors),
      blocks_per_track_(geometry.sectors_per_track / block_sectors),
      tracks_per_cylinder_(geometry.tracks_per_cylinder) {
  assert(geometry.sectors_per_track % block_sectors == 0 &&
         "physical block size must divide the track");
  const uint64_t tracks = geometry.TotalTracks();
  states_.assign(tracks * blocks_per_track_, BlockState::kFree);
  cyl_free_.assign(geometry.cylinders, tracks_per_cylinder_ * blocks_per_track_);
  track_free_.assign(tracks, blocks_per_track_);
  track_live_.assign(tracks, 0);
  track_system_.assign(tracks, 0);
  track_words_ = (tracks + 63) / 64;
  free_blocks_ = states_.size();
  empty_tracks_ = tracks;
}

void FreeSpaceMap::MarkSystem(uint32_t block) {
  assert(states_[block] == BlockState::kFree);
  states_[block] = BlockState::kSystem;
  const uint64_t track = TrackOfBlock(block);
  if (TrackEmpty(track)) {
    --empty_tracks_;
  }
  IndexPartial(track, /*add=*/false);
  --track_free_[track];
  --cyl_free_[CylinderOfTrack(track)];
  ++track_system_[track];
  IndexPartial(track, /*add=*/true);
  --free_blocks_;
  ++system_blocks_;
}

void FreeSpaceMap::MarkLive(uint32_t block) {
  assert(states_[block] == BlockState::kFree);
  states_[block] = BlockState::kLive;
  const uint64_t track = TrackOfBlock(block);
  if (TrackEmpty(track)) {
    --empty_tracks_;
  }
  IndexPartial(track, /*add=*/false);
  --track_free_[track];
  --cyl_free_[CylinderOfTrack(track)];
  ++track_live_[track];
  IndexPartial(track, /*add=*/true);
  --free_blocks_;
  ++live_blocks_;
}

void FreeSpaceMap::Free(uint32_t block) {
  assert(states_[block] == BlockState::kLive);
  states_[block] = BlockState::kFree;
  const uint64_t track = TrackOfBlock(block);
  IndexPartial(track, /*add=*/false);
  ++track_free_[track];
  ++cyl_free_[CylinderOfTrack(track)];
  --track_live_[track];
  IndexPartial(track, /*add=*/true);
  ++free_blocks_;
  --live_blocks_;
  if (TrackEmpty(track)) {
    ++empty_tracks_;
  }
}

void FreeSpaceMap::IndexPartial(uint64_t track, bool add) {
  const uint32_t live = track_live_[track];
  if (partial_bits_.empty() || live == 0 || track_free_[track] == 0) {
    return;  // Index not built yet, or no live block or no free block: not a target.
  }
  uint64_t& word = partial_bits_[live * track_words_ + track / 64];
  const uint64_t bit = uint64_t{1} << (track % 64);
  if (add) {
    word |= bit;
    ++partial_in_bucket_[live];
  } else {
    word &= ~bit;
    --partial_in_bucket_[live];
  }
}

void FreeSpaceMap::BuildPartialIndex() {
  if (!partial_bits_.empty()) {
    return;
  }
  partial_bits_.assign(blocks_per_track_ * track_words_, 0);
  partial_in_bucket_.assign(blocks_per_track_, 0);
  for (uint64_t t = 0; t < track_live_.size(); ++t) {
    IndexPartial(t, /*add=*/true);
  }
}

std::optional<uint64_t> FreeSpaceMap::FullestPartialTrack(std::optional<uint64_t> excluded) {
  BuildPartialIndex();
  // A partly filled track has at most blocks_per_track_ - 1 live blocks.
  for (uint32_t live = blocks_per_track_ - 1; live > 0; --live) {
    if (partial_in_bucket_[live] == 0) {
      continue;
    }
    const uint64_t* bucket = partial_bits_.data() + live * track_words_;
    for (size_t w = 0; w < track_words_; ++w) {
      uint64_t word = bucket[w];
      if (excluded && *excluded / 64 == w) {
        word &= ~(uint64_t{1} << (*excluded % 64));
      }
      if (word != 0) {
        return w * 64 + static_cast<uint64_t>(std::countr_zero(word));
      }
    }
  }
  return std::nullopt;
}

bool FreeSpaceMap::TrackEmpty(uint64_t track) const {
  return track_live_[track] == 0 && track_system_[track] == 0;
}

std::optional<uint32_t> FreeSpaceMap::NearestFreeInTrack(uint64_t track,
                                                         uint32_t from_sector) const {
  if (track_free_[track] == 0) {
    return std::nullopt;
  }
  const uint32_t base = static_cast<uint32_t>(track * blocks_per_track_);
  // The first block whose start is at or after from_sector (blocks are block_sectors_-aligned).
  const uint32_t first =
      (from_sector + block_sectors_ - 1) / block_sectors_;  // Candidate slot index in track.
  for (uint32_t i = 0; i < blocks_per_track_; ++i) {
    const uint32_t slot = (first + i) % blocks_per_track_;
    if (states_[base + slot] == BlockState::kFree) {
      return base + slot;
    }
  }
  return std::nullopt;
}

uint64_t FreeSpaceMap::TracksBelowFreeFraction(double frac) const {
  uint64_t below = 0;
  for (uint64_t track = 0; track < track_free_.size(); ++track) {
    if (track_system_[track] != 0) {
      continue;  // Reserved tracks are never compaction victims.
    }
    const double free_fraction =
        static_cast<double>(track_free_[track]) / static_cast<double>(blocks_per_track_);
    below += free_fraction < frac ? 1 : 0;
  }
  return below;
}

double FreeSpaceMap::Utilization() const {
  const uint64_t usable = states_.size() - system_blocks_;
  if (usable == 0) {
    return 1.0;
  }
  return static_cast<double>(live_blocks_) / static_cast<double>(usable);
}

}  // namespace vlog::core
