#include "src/core/compactor.h"

#include <algorithm>
#include <limits>

namespace vlog::core {

Compactor::Compactor(CompactionBackend* backend, simdisk::SimDisk* disk,
                     EagerAllocator* allocator, VirtualLog* vlog, CompactorConfig config)
    : backend_(backend), disk_(disk), allocator_(allocator), vlog_(vlog), config_(config) {}

void Compactor::AbandonResume() {
  if (resume_track_.has_value()) {
    resume_track_.reset();
    allocator_->SetExcludedTrack(std::nullopt);
  }
}

bool Compactor::Compactable(uint64_t track) const {
  const FreeSpaceMap& space = allocator_->space();
  // Pinned map sectors cannot be moved (their on-disk pointers are load-bearing); skip
  // tracks containing one until a checkpoint releases it.
  return space.LiveInTrack(track) != 0 && !space.TrackHasSystem(track) &&
         vlog_->PinnedInTrack(track) == 0;
}

std::optional<uint64_t> Compactor::PickVictim() {
  FreeSpaceMap& space = allocator_->space();
  // Greedy: a track with the fewest live blocks empties for the fewest relocations. Among the
  // tracks tied at that count, the head's nearest goes first: the arm move plus the rotational
  // wait to the first live block CompactTrack visits, the lowest track on ties (DESIGN.md "As
  // built" has what random and lowest-track tie-breaks cost). A partly filled track holds
  // fewer live blocks than any full one, so the free-space map's partial-track buckets answer
  // from the lowest live count up. Only when no partly filled track is compactable are all
  // tracks scanned; every compactable one is full then, so all of them tie.
  const common::Duration phase = disk_->PhaseAt(disk_->clock()->Now());
  const uint32_t heads = disk_->geometry().tracks_per_cylinder;
  struct Victim {
    uint64_t track;
    common::Duration cost;
  };
  const auto price = [&](uint64_t track) -> std::optional<Victim> {
    if (!Compactable(track)) {
      return std::nullopt;
    }
    const uint32_t t = static_cast<uint32_t>(track);
    const common::Duration move = disk_->ArmMoveTo(t / heads, t % heads);
    const uint32_t first_live_sector = space.FirstLiveSlot(track) * space.block_sectors();
    return Victim{track, move + disk_->WaitAtPhase(first_live_sector,
                                                   disk_->PhaseAfter(phase, move))};
  };
  for (uint32_t live = 1; live < space.blocks_per_track(); ++live) {
    if (const auto victim = space.CheapestPartialTrack(live, price)) {
      return victim->track;
    }
  }
  std::optional<Victim> best;
  for (uint64_t t = 0; t < space.total_tracks(); ++t) {
    const auto victim = price(t);
    if (victim && (!best || victim->cost < best->cost)) {
      best = victim;
    }
  }
  if (!best) {
    return std::nullopt;
  }
  return best->track;
}

bool Compactor::CompactTrack(uint64_t track, common::Time last_start, bool* interrupted) {
  FreeSpaceMap& space = allocator_->space();
  // Writes triggered by the relocation must not land back on the victim, and go into holes of
  // already-occupied tracks (hole-plugging) rather than into fresh fill tracks.
  allocator_->SetExcludedTrack(track);
  allocator_->SetCompactionMode(true);
  const uint32_t base = static_cast<uint32_t>(track * space.blocks_per_track());
  bool ok = true;
  for (uint32_t b = 0; b < space.blocks_per_track() && ok; ++b) {
    const uint32_t block = base + b;
    if (space.state(block) != BlockState::kLive) {
      continue;
    }
    // Checked before moves only: a victim whose last move ends late still counts as emptied.
    if (disk_->clock()->Now() > last_start) {
      *interrupted = true;
      break;
    }
    if (const auto pieces = vlog_->PiecesAtBlock(block); !pieces.empty()) {
      // A packed block can hold several live map sectors; rewriting each piece obsoletes its
      // sector, and the block frees once the last one leaves.
      for (const uint32_t piece : pieces) {
        ok = backend_->RewritePiece(piece).ok();
        if (!ok) {
          break;
        }
        ++stats_.map_sectors_rewritten;
      }
    } else if (vlog_->HoldsLogSectors(block)) {
      // Only pinned map sectors are left here, so the victim cannot empty.
      ++stats_.pinned_block_stops;
      ok = false;
    } else {
      ok = backend_->RelocateDataBlock(block).ok();
      if (ok) {
        ++stats_.data_blocks_moved;
      }
    }
  }
  allocator_->SetCompactionMode(false);
  if (*interrupted) {
    // Keep the victim excluded from allocation until the next burst resumes (or drops) it.
    // The arm parks on the victim after a relocation, so without this the very holes the
    // burst just opened are the allocator's nearest free blocks — foreground traffic between
    // bursts refills them as fast as bursts drain them and no track ever empties.
    return false;
  }
  allocator_->SetExcludedTrack(std::nullopt);
  if (ok && space.TrackEmpty(track)) {
    allocator_->NoteEmptyTrack(track);
    return true;
  }
  return false;
}

uint32_t Compactor::RunUntil(common::Time deadline) {
  return Run(deadline, /*preemptible=*/false, config_.target_empty_tracks);
}

uint32_t Compactor::RunBounded(common::Time deadline, uint32_t target_empty_tracks) {
  return Run(deadline, /*preemptible=*/true,
             target_empty_tracks == 0 ? config_.target_empty_tracks : target_empty_tracks);
}

common::Duration Compactor::MoveCost() const {
  const uint64_t moves = stats_.data_blocks_moved + stats_.map_sectors_rewritten;
  return moves == 0 ? 0 : stats_.busy_time / static_cast<common::Duration>(moves);
}

uint32_t Compactor::Run(common::Time deadline, bool preemptible, uint32_t target_empty_tracks) {
  ++stats_.idle_runs;
  const common::Time start = disk_->clock()->Now();
  // The latest time a move may start: a bounded run starts one only if a mean move still
  // fits before the deadline (and, before any move is measured, only before the deadline).
  // An idle run finishes every victim it starts.
  const common::Time last_start =
      preemptible ? deadline - std::max<common::Duration>(MoveCost(), 1)
                  : std::numeric_limits<common::Time>::max();
  uint32_t emptied = 0;
  // A victim can legitimately fail to empty (e.g. rewriting its map sector pinned the old copy
  // in place); tolerate a bounded number of such failures rather than giving up the interval.
  uint32_t failures = 0;
  while (disk_->clock()->Now() < deadline && failures < 8) {
    if (allocator_->space().EmptyTrackCount() >= target_empty_tracks) {
      AbandonResume();
      break;
    }
    if (disk_->clock()->Now() > last_start) {
      break;  // No move fits: leave the resume victim for the next run.
    }
    // A victim left mid-track by a preempted burst is finished before a new one is picked. The
    // victim stays allocation-excluded between bursts; if it became uncompactable anyway (a
    // checkpoint pinned a map sector into it), abandon it — the relocations already committed
    // stand regardless.
    uint64_t victim;
    if (resume_track_.has_value() && Compactable(*resume_track_)) {
      victim = *resume_track_;
      ++stats_.tracks_resumed;
    } else {
      AbandonResume();
      const auto picked = PickVictim();
      if (!picked) {
        break;
      }
      victim = *picked;
    }
    resume_track_.reset();
    obs::TraceRecorder* tracer = disk_->tracer();
    if (tracer != nullptr) {
      tracer->Annotate(obs::EventType::kCompactStart, obs::Layer::kVld, victim,
                       allocator_->space().LiveInTrack(victim));
    }
    bool interrupted = false;
    const bool compacted = CompactTrack(victim, last_start, &interrupted);
    if (tracer != nullptr) {
      tracer->Annotate(obs::EventType::kCompactEnd, obs::Layer::kVld, victim,
                       compacted ? 1 : 0);
    }
    if (interrupted) {
      resume_track_ = victim;
      ++stats_.bursts_preempted;
      break;
    }
    if (compacted) {
      ++stats_.tracks_compacted;
      ++emptied;
      failures = 0;
    } else {
      ++failures;
    }
  }
  const common::Time end = disk_->clock()->Now();
  stats_.busy_time += end - start;
  if (preemptible && end > deadline) {
    stats_.overrun_time += end - deadline;
  }
  return emptied;
}

}  // namespace vlog::core
