#include "src/core/eager_allocator.h"

#include <algorithm>
#include <cmath>

namespace vlog::core {

EagerAllocator::EagerAllocator(simdisk::SimDisk* disk, FreeSpaceMap* space,
                               AllocatorConfig config)
    : disk_(disk), space_(space), config_(config) {}

uint32_t EagerAllocator::ReservedPerTrack() const {
  const double m = config_.track_switch_threshold * space_->blocks_per_track();
  return static_cast<uint32_t>(std::floor(m));
}

std::optional<EagerAllocator::Candidate> EagerAllocator::BestInTrack(
    uint64_t track, common::Duration arm_move) const {
  if (excluded_track_ && *excluded_track_ == track) {
    return std::nullopt;
  }
  if (space_->FreeInTrack(track) == 0) {
    return std::nullopt;  // Skip the head-position math for packed tracks.
  }
  const common::Time ready = disk_->clock()->Now() + arm_move;
  const uint32_t from = disk_->SectorUnderHead(ready);
  uint32_t skip = 0;
  const auto block = space_->NearestFreeInTrack(track, from, &skip);
  if (!block) {
    return std::nullopt;
  }
  const common::Duration rot = disk_->params().SectorTime() * skip;
  return Candidate{*block, arm_move + rot};
}

std::optional<EagerAllocator::Candidate> EagerAllocator::GreedyPick() {
  const auto& geom = disk_->geometry();
  const simdisk::PhysAddr arm = disk_->ArmPosition();
  const uint64_t current_track =
      static_cast<uint64_t>(arm.cylinder) * geom.tracks_per_cylinder + arm.head;

  std::optional<Candidate> best = BestInTrack(current_track, 0);
  if (best) {
    ++stats_.same_track;  // Provisional; corrected below if beaten.
  }

  // Other tracks in the current cylinder, each paying a head switch.
  const uint64_t cyl_base = static_cast<uint64_t>(arm.cylinder) * geom.tracks_per_cylinder;
  bool beaten_by_cylinder = false;
  for (uint32_t h = 0; h < geom.tracks_per_cylinder; ++h) {
    if (h == arm.head) {
      continue;
    }
    const auto cand = BestInTrack(cyl_base + h, disk_->params().head_switch);
    if (cand && (!best || cand->cost < best->cost)) {
      if (best && !beaten_by_cylinder) {
        --stats_.same_track;
      }
      beaten_by_cylinder = true;
      best = cand;
    }
  }
  if (beaten_by_cylinder) {
    ++stats_.same_cylinder;
  }
  if (best) {
    return best;
  }

  // Cylinder seeks in one direction only (wrapping), to the nearest cylinder with free space.
  for (uint32_t d = 1; d <= geom.cylinders; ++d) {
    const uint32_t cyl = (arm.cylinder + d) % geom.cylinders;
    if (space_->FreeInCylinder(cyl) == 0) {
      continue;  // Fully packed cylinder: no track probe can succeed.
    }
    const uint64_t base = static_cast<uint64_t>(cyl) * geom.tracks_per_cylinder;
    // Seek distance honours the one-direction sweep: wrapping costs a long reverse seek.
    const uint32_t dist = cyl >= arm.cylinder ? cyl - arm.cylinder : arm.cylinder - cyl;
    const common::Duration seek = disk_->params().seek.SeekTime(dist);
    std::optional<Candidate> cyl_best;
    for (uint32_t h = 0; h < geom.tracks_per_cylinder; ++h) {
      const common::Duration move =
          std::max(seek, h != arm.head ? disk_->params().head_switch : common::Duration{0});
      const auto cand = BestInTrack(base + h, move);
      if (cand && (!cyl_best || cand->cost < cyl_best->cost)) {
        cyl_best = cand;
      }
    }
    if (cyl_best) {
      ++stats_.cylinder_seeks;
      return cyl_best;
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> EagerAllocator::NextEmptyTrack() {
  while (!empty_tracks_.empty()) {
    const uint64_t t = empty_tracks_.front();
    empty_tracks_.pop_front();
    if (space_->TrackEmpty(t) && !(excluded_track_ && *excluded_track_ == t)) {
      return t;
    }
  }
  // O(1) bail-out on a packed disk: the linear scan below cannot succeed when no track is
  // empty (or the only empty track is the excluded one), which is the steady state once the
  // disk fills — and exactly when this function is called the most.
  if (space_->EmptyTrackCount() == 0 ||
      (space_->EmptyTrackCount() == 1 && excluded_track_ && space_->TrackEmpty(*excluded_track_))) {
    return std::nullopt;
  }
  const uint64_t tracks = space_->total_tracks();
  for (uint64_t i = 0; i < tracks; ++i) {
    const uint64_t t = (scan_cursor_ + i) % tracks;
    if (space_->TrackEmpty(t) && !(excluded_track_ && *excluded_track_ == t)) {
      scan_cursor_ = (t + 1) % tracks;
      return t;
    }
  }
  return std::nullopt;
}

std::optional<EagerAllocator::Candidate> EagerAllocator::FillPick() {
  const uint32_t reserved = ReservedPerTrack();
  if (fill_track_ && (space_->FreeInTrack(*fill_track_) <= reserved ||
                      (excluded_track_ && *excluded_track_ == *fill_track_))) {
    fill_track_.reset();
  }
  if (!fill_track_) {
    fill_track_ = NextEmptyTrack();
    if (fill_track_) {
      ++stats_.fill_track_switches;
    }
  }
  if (!fill_track_) {
    ++stats_.greedy_fallbacks;
    return GreedyPick();
  }
  // Arm move cost to the fill track (0 when already there).
  const common::Duration move = disk_->ArmMoveCost(space_->BlockToLba(
      static_cast<uint32_t>(*fill_track_ * space_->blocks_per_track())));
  auto cand = BestInTrack(*fill_track_, move);
  if (!cand) {
    fill_track_.reset();
    ++stats_.greedy_fallbacks;
    return GreedyPick();
  }
  return cand;
}

std::optional<EagerAllocator::Candidate> EagerAllocator::HolePlugPick() {
  // Pack the fullest partly filled track first, whatever its distance from the head:
  // compaction runs in idle time, so packing quality matters more than positioning cost.
  // Empty tracks stay empty and full tracks have no holes.
  const auto track = space_->FullestPartialTrack(excluded_track_);
  if (!track) {
    return GreedyPick();
  }
  const common::Duration move = disk_->ArmMoveCost(
      space_->BlockToLba(static_cast<uint32_t>(*track * space_->blocks_per_track())));
  if (auto cand = BestInTrack(*track, move)) {
    return cand;
  }
  return GreedyPick();
}

std::optional<uint32_t> EagerAllocator::Allocate() {
  auto cand = compaction_mode_            ? HolePlugPick()
              : config_.fill_to_threshold ? FillPick()
                                          : GreedyPick();
  if (!cand && !compaction_mode_ && excluded_track_.has_value()) {
    // A preempted compaction victim stays excluded between bursts; that must never starve a
    // foreground write whose only remaining free blocks sit in the victim. Lift the exclusion
    // for this one allocation — the compactor revalidates the victim before resuming it.
    const auto saved = excluded_track_;
    excluded_track_.reset();
    cand = config_.fill_to_threshold ? FillPick() : GreedyPick();
    excluded_track_ = saved;
  }
  if (!cand) {
    return std::nullopt;
  }
  space_->MarkLive(cand->block);
  ++stats_.allocations;
  stats_.estimated_locate += cand->cost;
  return cand->block;
}

void EagerAllocator::NoteEmptyTrack(uint64_t track) { empty_tracks_.push_back(track); }

}  // namespace vlog::core
