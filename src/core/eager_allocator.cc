#include "src/core/eager_allocator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace vlog::core {

EagerAllocator::EagerAllocator(simdisk::SimDisk* disk, FreeSpaceMap* space,
                               AllocatorConfig config)
    : disk_(disk), space_(space), config_(config) {}

uint32_t EagerAllocator::ReservedPerTrack() const {
  const double m = config_.track_switch_threshold * space_->blocks_per_track();
  return static_cast<uint32_t>(std::floor(m));
}

EagerAllocator::Arrival EagerAllocator::ArriveAfter(common::Duration move,
                                                    common::Duration phase) const {
  const common::Duration ready = disk_->PhaseAfter(phase, move);
  return Arrival{.move = move, .phase = ready, .sector = disk_->NextSectorAhead(ready)};
}

std::optional<EagerAllocator::Candidate> EagerAllocator::BestInTrack(
    uint64_t track, const Arrival& at, std::optional<uint64_t> excluded) const {
  if (excluded == track) {
    return std::nullopt;
  }
  // Search from the first sector the head has not passed yet: a block whose first sector is
  // already under the head is a whole revolution away. Each candidate costs what the disk will
  // charge its write: the arm move, then the wait for the block's first sector.
  const auto block = space_->NearestFreeInTrack(track, at.sector);
  if (!block) {
    return std::nullopt;
  }
  const uint32_t slot = *block - static_cast<uint32_t>(track * space_->blocks_per_track());
  return Candidate{*block, at.move + disk_->WaitAtPhase(slot * space_->block_sectors(), at.phase)};
}

std::optional<EagerAllocator::Candidate> EagerAllocator::GreedyPick(
    common::Duration phase, std::optional<uint64_t> excluded) const {
  const auto& geom = disk_->geometry();
  const simdisk::PhysAddr arm = disk_->ArmPosition();
  const uint64_t current_track =
      static_cast<uint64_t>(arm.cylinder) * geom.tracks_per_cylinder + arm.head;

  std::optional<Candidate> best = BestInTrack(current_track, ArriveAfter(0, phase), excluded);
  // Other tracks in the current cylinder, each paying a head switch.
  const Arrival switched = ArriveAfter(disk_->params().head_switch, phase);
  const uint64_t cyl_base = static_cast<uint64_t>(arm.cylinder) * geom.tracks_per_cylinder;
  for (uint32_t h = 0; h < geom.tracks_per_cylinder; ++h) {
    if (h == arm.head) {
      continue;
    }
    const auto cand = BestInTrack(cyl_base + h, switched, excluded);
    if (cand && (!best || cand->cost < best->cost)) {
      best = cand;
    }
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
    const common::Duration seek = disk_->SeekTimes()[dist];
    const Arrival same_head = ArriveAfter(seek, phase);
    const Arrival other_head = ArriveAfter(std::max(seek, disk_->params().head_switch), phase);
    std::optional<Candidate> cyl_best;
    for (uint32_t h = 0; h < geom.tracks_per_cylinder; ++h) {
      const auto cand = BestInTrack(base + h, h == arm.head ? same_head : other_head, excluded);
      if (cand && (!cyl_best || cand->cost < cyl_best->cost)) {
        cyl_best = cand;
      }
    }
    if (cyl_best) {
      return cyl_best;
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> EagerAllocator::NextEmptyTrack(Cursor& cursor,
                                                       std::optional<uint64_t> excluded) const {
  while (cursor.empties_taken < empty_tracks_.size()) {
    const uint64_t t = empty_tracks_[cursor.empties_taken++];
    if (space_->TrackEmpty(t) && excluded != t) {
      return t;
    }
  }
  // O(1) bail-out on a packed disk: the linear scan below cannot succeed when no track is
  // empty (or the only empty track is the excluded one), which is the steady state once the
  // disk fills — and exactly when this function is called the most.
  if (space_->EmptyTrackCount() == 0 ||
      (space_->EmptyTrackCount() == 1 && excluded && space_->TrackEmpty(*excluded))) {
    return std::nullopt;
  }
  const uint64_t tracks = space_->total_tracks();
  for (uint64_t i = 0; i < tracks; ++i) {
    const uint64_t t = (cursor.scan_cursor + i) % tracks;
    if (space_->TrackEmpty(t) && excluded != t) {
      cursor.scan_cursor = (t + 1) % tracks;
      return t;
    }
  }
  return std::nullopt;
}

std::optional<EagerAllocator::Candidate> EagerAllocator::FillPick(
    Cursor& cursor, common::Duration phase, std::optional<uint64_t> excluded) const {
  const uint32_t reserved = ReservedPerTrack();
  if (cursor.fill_track &&
      (space_->FreeInTrack(*cursor.fill_track) <= reserved || excluded == cursor.fill_track)) {
    cursor.fill_track.reset();
  }
  if (!cursor.fill_track) {
    cursor.fill_track = NextEmptyTrack(cursor, excluded);
    if (cursor.fill_track) {
      ++cursor.fill_track_switches;
    }
  }
  if (!cursor.fill_track) {
    ++cursor.greedy_fallbacks;
    return GreedyPick(phase, excluded);
  }
  // Arm move cost to the fill track (0 when already there).
  const common::Duration move = disk_->ArmMoveCost(
      space_->BlockToLba(static_cast<uint32_t>(*cursor.fill_track * space_->blocks_per_track())));
  auto cand = BestInTrack(*cursor.fill_track, ArriveAfter(move, phase), excluded);
  if (!cand) {
    cursor.fill_track.reset();
    ++cursor.greedy_fallbacks;
    return GreedyPick(phase, excluded);
  }
  return cand;
}

std::optional<EagerAllocator::Candidate> EagerAllocator::HolePlugPick(
    common::Duration phase) const {
  // Pack the fullest partly filled track first, so victims drain into existing holes: empty
  // tracks stay empty and full tracks have no holes. Among the fullest tracks, take the one
  // whose nearest free block the head reaches soonest, priced as any write is.
  const uint32_t heads = disk_->geometry().tracks_per_cylinder;
  // The bucket is priced in track order, and every track of a cylinder but the arm's own head
  // needs the same arm move, so the pick works out where the head arrives once per move.
  Arrival at{.move = -1};
  const auto best_in = [&](uint64_t track) {
    const uint32_t t = static_cast<uint32_t>(track);
    const common::Duration move = disk_->ArmMoveTo(t / heads, t % heads);
    if (move != at.move) {
      at = ArriveAfter(move, phase);
    }
    return BestInTrack(track, at, excluded_track_);
  };
  for (uint32_t live = space_->blocks_per_track() - 1; live > 0; --live) {
    if (auto cand = space_->CheapestPartialTrack(live, best_in)) {
      return cand;
    }
  }
  return GreedyPick(phase, excluded_track_);
}

std::optional<EagerAllocator::Candidate> EagerAllocator::Pick(Cursor& cursor) const {
  const common::Duration phase = disk_->PhaseAt(disk_->clock()->Now());
  if (compaction_mode_) {
    return HolePlugPick(phase);
  }
  const auto pick = [&](std::optional<uint64_t> excluded) {
    return config_.fill_to_threshold ? FillPick(cursor, phase, excluded)
                                     : GreedyPick(phase, excluded);
  };
  auto cand = pick(excluded_track_);
  if (!cand && excluded_track_.has_value()) {
    // A preempted compaction victim stays excluded between bursts; that must never starve a
    // foreground write whose only remaining free blocks sit in the victim. Lift the exclusion
    // for this one allocation — the compactor revalidates the victim before resuming it.
    cand = pick(std::nullopt);
  }
  return cand;
}

void EagerAllocator::CountPlacement(uint32_t block) {
  const simdisk::PhysAddr arm = disk_->ArmPosition();
  const uint32_t tracks_per_cylinder = disk_->geometry().tracks_per_cylinder;
  const uint64_t track = space_->TrackOfBlock(block);
  if (track / tracks_per_cylinder != arm.cylinder) {
    ++stats_.cylinder_seeks;
  } else if (track % tracks_per_cylinder != arm.head) {
    ++stats_.same_cylinder;
  } else {
    ++stats_.same_track;
  }
}

std::optional<uint32_t> EagerAllocator::Allocate() {
  Cursor cursor = Resume();
  const auto cand = Pick(cursor);
  fill_track_ = cursor.fill_track;
  scan_cursor_ = cursor.scan_cursor;
  empty_tracks_.erase(empty_tracks_.begin(),
                      empty_tracks_.begin() + static_cast<std::ptrdiff_t>(cursor.empties_taken));
  stats_.fill_track_switches += cursor.fill_track_switches;
  stats_.greedy_fallbacks += cursor.greedy_fallbacks;
  if (!cand) {
    return std::nullopt;
  }
  CountPlacement(cand->block);
  space_->MarkLive(cand->block);
  ++stats_.allocations;
  stats_.estimated_locate += cand->cost;
  return cand->block;
}

common::Duration EagerAllocator::EstimateLocate() const {
  Cursor cursor = Resume();
  const auto cand = Pick(cursor);
  return cand ? cand->cost : 0;
}

void EagerAllocator::NoteEmptyTrack(uint64_t track) { empty_tracks_.push_back(track); }

}  // namespace vlog::core
