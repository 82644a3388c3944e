#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {
namespace {

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed + i * 13));
  }
  return v;
}

// Fills `fraction` of the logical space then trims every other block, creating scattered
// holes that only compaction can consolidate into empty tracks.
void FillWithHoles(Vld& vld, double fraction) {
  const uint32_t blocks = static_cast<uint32_t>(vld.logical_blocks() * fraction);
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(vld.Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
  }
  for (uint32_t b = 0; b < blocks; b += 2) {
    ASSERT_TRUE(vld.Trim(static_cast<simdisk::Lba>(b) * 8, 8).ok());
  }
}

// Every sector of the two disks' media is identical.
void ExpectSameMedia(simdisk::SimDisk& a, simdisk::SimDisk& b) {
  ASSERT_EQ(a.SectorCount(), b.SectorCount());
  std::vector<std::byte> sa(a.SectorBytes());
  std::vector<std::byte> sb(b.SectorBytes());
  for (uint64_t s = 0; s < a.SectorCount(); ++s) {
    a.PeekMedia(s, sa);
    b.PeekMedia(s, sb);
    ASSERT_EQ(sa, sb) << "sector " << s;
  }
}

class CompactorTest : public ::testing::Test {
 protected:
  CompactorTest() {
    disk_ = std::make_unique<simdisk::SimDisk>(simdisk::Truncated(simdisk::SeagateSt19101(), 3),
                                               &clock_);
    VldConfig config;
    config.target_empty_tracks = 1000;  // Compact as much as the free space allows.
    vld_ = std::make_unique<Vld>(disk_.get(), config);
    EXPECT_TRUE(vld_->Format().ok());
  }

  uint64_t EmptyTracks() const {
    uint64_t n = 0;
    for (uint64_t t = 0; t < vld_->space().total_tracks(); ++t) {
      n += vld_->space().TrackEmpty(t) ? 1 : 0;
    }
    return n;
  }

  void FillWithHoles(double fraction) { core::FillWithHoles(*vld_, fraction); }

  common::Clock clock_;
  std::unique_ptr<simdisk::SimDisk> disk_;
  std::unique_ptr<Vld> vld_;
};

TEST_F(CompactorTest, ProducesEmptyTracksFromScatteredHoles) {
  FillWithHoles(0.9);
  const uint64_t before = EmptyTracks();
  vld_->RunIdle(common::Seconds(10));
  EXPECT_GT(EmptyTracks(), before + 3);
  EXPECT_GT(vld_->compactor().stats().tracks_compacted, 3u);
}

TEST_F(CompactorTest, HolePluggingPacksInsteadOfConsumingEmpties) {
  FillWithHoles(0.9);
  vld_->RunIdle(common::Seconds(10));
  // After compaction at ~45% utilization, nearly all free space should sit in empty tracks:
  // the number of partially-filled tracks must be small.
  uint64_t partial = 0;
  const auto& space = vld_->space();
  for (uint64_t t = 0; t < space.total_tracks(); ++t) {
    if (space.LiveInTrack(t) > 0 && space.FreeInTrack(t) > 0 && !space.TrackHasSystem(t)) {
      ++partial;
    }
  }
  EXPECT_LT(partial, space.total_tracks() / 4);
}

TEST_F(CompactorTest, RespectsDeadline) {
  FillWithHoles(0.9);
  const common::Time start = clock_.Now();
  vld_->RunIdle(common::Milliseconds(40));
  // Track-granularity work: may overshoot by at most roughly one track's compaction.
  EXPECT_LT(clock_.Now() - start, common::Milliseconds(40) + common::Milliseconds(60));
}

TEST_F(CompactorTest, ZeroBudgetDoesNothing) {
  FillWithHoles(0.5);
  const uint64_t runs = vld_->compactor().stats().idle_runs;
  vld_->RunIdle(0);
  EXPECT_EQ(vld_->compactor().stats().idle_runs, runs);
}

// Each victim is a compactable track with the fewest live blocks, and among those the one the
// head reaches soonest: the arm move plus the rotational wait to the track's first live block,
// the lowest track on ties. Random trims leave tracks with different live counts; an idle run
// with a 1 ns budget starts exactly one victim (and finishes it), so the counts and the head
// position taken just before the run are the ones the pick saw. The pick prices only the
// tracks of the free-space map's partial-track buckets rather than every track, and must pick
// what a scan pricing every track would.
TEST_F(CompactorTest, VictimHasTheFewestLiveBlocks) {
  const uint32_t blocks = static_cast<uint32_t>(vld_->logical_blocks() * 0.9);
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(vld_->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
  }
  common::Rng rng(11);
  for (uint32_t b = 0; b < blocks; ++b) {
    if (rng.Below(2) == 0) {
      ASSERT_TRUE(vld_->Trim(static_cast<simdisk::Lba>(b) * 8, 8).ok());
    }
  }
  const FreeSpaceMap& space = vld_->space();
  uint32_t lowest_track_picks = 0;
  for (int pick = 0; pick < 20; ++pick) {
    if (vld_->vlog().IdleCheckpointDue()) {
      ASSERT_TRUE(vld_->Checkpoint().ok());  // So RunIdle goes straight to the pick.
    }
    std::vector<uint32_t> live(space.total_tracks());
    std::vector<bool> excluded(space.total_tracks());
    uint32_t fewest = UINT32_MAX;
    uint32_t distinct_counts = 0;
    std::vector<bool> seen(space.blocks_per_track() + 1);
    for (uint64_t t = 0; t < space.total_tracks(); ++t) {
      live[t] = space.LiveInTrack(t);
      excluded[t] = space.TrackHasSystem(t) || vld_->vlog().PinnedInTrack(t) != 0;
      if (live[t] != 0 && !excluded[t]) {
        fewest = std::min(fewest, live[t]);
        distinct_counts += seen[live[t]] ? 0 : 1;
        seen[live[t]] = true;
      }
    }
    ASSERT_NE(fewest, UINT32_MAX) << "pick " << pick;
    ASSERT_GT(distinct_counts, 1u) << "pick " << pick;
    std::optional<uint64_t> nearest;
    std::optional<uint64_t> lowest;
    common::Duration nearest_cost = 0;
    for (uint64_t t = 0; t < space.total_tracks(); ++t) {
      if (live[t] != fewest || excluded[t]) {
        continue;
      }
      lowest = lowest.value_or(t);
      const uint32_t base = static_cast<uint32_t>(t * space.blocks_per_track());
      uint32_t first_live = base;
      while (space.state(first_live) != BlockState::kLive) {
        ++first_live;
      }
      const simdisk::Lba lba = space.BlockToLba(first_live);
      const common::Duration move = disk_->ArmMoveCost(lba);
      const common::Duration cost =
          move + disk_->RotationalWait(disk_->geometry().ToPhys(lba).sector, clock_.Now() + move);
      if (!nearest || cost < nearest_cost) {
        nearest = t;
        nearest_cost = cost;
      }
    }
    ASSERT_TRUE(nearest.has_value()) << "pick " << pick;
    obs::TraceRecorder tracer(&clock_);
    disk_->set_tracer(&tracer);
    vld_->RunIdle(1);
    disk_->set_tracer(nullptr);
    std::vector<obs::TraceEvent> starts;
    for (const obs::TraceEvent& e : tracer.Events()) {
      if (e.type == obs::EventType::kCompactStart) {
        starts.push_back(e);
      }
    }
    ASSERT_EQ(starts.size(), 1u) << "pick " << pick;
    const uint64_t victim = starts[0].a;
    EXPECT_FALSE(excluded[victim]) << "pick " << pick << ": track " << victim;
    EXPECT_EQ(live[victim], fewest) << "pick " << pick << ": track " << victim;
    EXPECT_EQ(starts[0].b, live[victim]) << "pick " << pick;
    EXPECT_EQ(victim, *nearest) << "pick " << pick;
    lowest_track_picks += victim == *lowest ? 1 : 0;
  }
  EXPECT_LT(lowest_track_picks, 20u);  // The head's position, not the track order, decided.
}

TEST_F(CompactorTest, IdleTimeOnCleanDiskIsHarmless) {
  vld_->RunIdle(common::Seconds(1));
  EXPECT_EQ(vld_->compactor().stats().tracks_compacted, 0u);
  // Still fully functional afterwards.
  ASSERT_TRUE(vld_->Write(0, Pattern(4096, 1)).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(vld_->Read(0, out).ok());
  EXPECT_EQ(out, Pattern(4096, 1));
}

TEST_F(CompactorTest, CompactionKeepsEagerWritesFastAtHighUtilization) {
  FillWithHoles(0.9);  // ~45% live after trims, but smeared across every track.
  // Without compaction, steady-state writes pay scattered-hole locate costs; after idle
  // compaction the same writes go to empty fill tracks.
  common::Rng rng(5);
  std::vector<std::byte> block(4096);
  const uint32_t blocks = static_cast<uint32_t>(vld_->logical_blocks() * 0.9);
  auto measure = [&] {
    const common::Time t0 = clock_.Now();
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(vld_->Write(rng.Below(blocks) * 8, block).ok());
    }
    return clock_.Now() - t0;
  };
  const common::Duration before = measure();
  vld_->RunIdle(common::Seconds(10));
  const common::Duration after = measure();
  EXPECT_LT(after, before);
}

TEST_F(CompactorTest, StatsAccumulate) {
  FillWithHoles(0.8);
  vld_->RunIdle(common::Seconds(5));
  const auto& stats = vld_->compactor().stats();
  EXPECT_GE(stats.idle_runs, 1u);
  EXPECT_GT(stats.data_blocks_moved, 0u);
  EXPECT_GT(stats.busy_time, 0);
}

// --- Bounded (governed) bursts: budget exhaustion truncates mid-track, resumably ---

TEST_F(CompactorTest, BoundedBurstPreemptsMidTrackAndRespectsDeadline) {
  FillWithHoles(0.9);
  ASSERT_TRUE(vld_->Checkpoint().ok());  // So the burst budget goes to the compactor.
  const common::Time start = clock_.Now();
  // Far too small to finish a track (one relocation is a read + write + map commit, several
  // ms): the burst must stop mid-track, leaving a resume cursor.
  vld_->RunGovernedBurst(common::Milliseconds(5));
  const auto& stats = vld_->compactor().stats();
  EXPECT_GE(stats.bursts_preempted, 1u);
  EXPECT_TRUE(vld_->compactor().resume_track().has_value());
  EXPECT_EQ(stats.tracks_compacted, 0u);
  // Block-granularity preemption: overshoot is bounded by one relocation, not one track.
  EXPECT_LT(clock_.Now() - start, common::Milliseconds(5) + common::Milliseconds(30));
}

TEST_F(CompactorTest, PreemptedBurstResumesWithoutLosingOrRepeatingWork) {
  FillWithHoles(0.9);
  ASSERT_TRUE(vld_->Checkpoint().ok());
  vld_->RunGovernedBurst(common::Milliseconds(5));
  ASSERT_TRUE(vld_->compactor().resume_track().has_value());
  const uint64_t victim = *vld_->compactor().resume_track();
  const uint64_t moved_so_far = vld_->compactor().stats().data_blocks_moved;
  EXPECT_GT(moved_so_far, 0u);
  // Feed bursts of one mean move each (a shorter one starts no move) until the interrupted
  // victim is finished. The resumed scan must skip the blocks already relocated (they are no
  // longer live), so the victim ends empty with every originally-live block moved exactly once.
  const uint64_t victim_live = vld_->space().LiveInTrack(victim);
  for (int i = 0; i < 1000 && vld_->compactor().resume_track() == victim; ++i) {
    vld_->RunGovernedBurst(vld_->compactor().MoveCost());
  }
  EXPECT_NE(vld_->compactor().resume_track(), victim);
  EXPECT_TRUE(vld_->space().TrackEmpty(victim));
  const auto& stats = vld_->compactor().stats();
  EXPECT_GE(stats.tracks_resumed, 1u);
  EXPECT_GE(stats.tracks_compacted, 1u);
  // No relocation lost and none double-counted: finishing the victim moved exactly the blocks
  // that were still live when the first burst was cut short.
  EXPECT_GT(victim_live, 0u);
  // Every block in the device is still readable with its original content (relocation is
  // invisible at the logical level).
  const uint32_t blocks = static_cast<uint32_t>(vld_->logical_blocks() * 0.9);
  std::vector<std::byte> out(4096);
  for (uint32_t b = 1; b < blocks; b += 2) {  // Odd blocks survived the trims.
    ASSERT_TRUE(vld_->Read(static_cast<simdisk::Lba>(b) * 8, out).ok());
    EXPECT_EQ(out, Pattern(4096, b)) << "block " << b;
  }
}

TEST_F(CompactorTest, GenerousGovernedBurstMatchesIdleRunExactly) {
  // A governed burst whose deadline never truncates a track makes the exact same call
  // sequence as RunIdle (a checkpoint if VirtualLog::IdleCheckpointDue holds, then the same
  // victim picks and relocations), so media, clock, and stats must be bit-identical. This is
  // the per-grant half of the governor-vs-idle differential; governor_test drives the full
  // multi-round version.
  VldConfig config;
  config.target_empty_tracks = 6;
  common::Clock burst_clock;
  common::Clock idle_clock;
  simdisk::SimDisk burst_disk(simdisk::Truncated(simdisk::SeagateSt19101(), 3), &burst_clock);
  simdisk::SimDisk idle_disk(simdisk::Truncated(simdisk::SeagateSt19101(), 3), &idle_clock);
  Vld burst_vld(&burst_disk, config);
  Vld idle_vld(&idle_disk, config);
  ASSERT_TRUE(burst_vld.Format().ok());
  ASSERT_TRUE(idle_vld.Format().ok());

  auto fill = [](Vld& vld) {
    const uint32_t blocks = static_cast<uint32_t>(vld.logical_blocks() * 0.9);
    for (uint32_t b = 0; b < blocks; ++b) {
      ASSERT_TRUE(vld.Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
    }
    for (uint32_t b = 0; b < blocks; b += 2) {
      ASSERT_TRUE(vld.Trim(static_cast<simdisk::Lba>(b) * 8, 8).ok());
    }
  };
  fill(burst_vld);
  fill(idle_vld);
  ASSERT_EQ(burst_clock.Now(), idle_clock.Now());

  idle_vld.RunIdle(common::Seconds(60));
  burst_vld.RunGovernedBurst(common::Seconds(60));
  ASSERT_GE(idle_vld.compactor().stats().tracks_compacted, 1u);
  EXPECT_EQ(burst_clock.Now(), idle_clock.Now());
  EXPECT_EQ(burst_vld.compactor().stats().bursts_preempted, 0u);
  EXPECT_EQ(burst_vld.compactor().stats().tracks_compacted,
            idle_vld.compactor().stats().tracks_compacted);
  EXPECT_EQ(burst_vld.compactor().stats().data_blocks_moved,
            idle_vld.compactor().stats().data_blocks_moved);
  EXPECT_EQ(burst_vld.compactor().stats().map_sectors_rewritten,
            idle_vld.compactor().stats().map_sectors_rewritten);
  const uint64_t sectors = burst_disk.SectorCount();
  std::vector<std::byte> a(burst_disk.SectorBytes());
  std::vector<std::byte> b(burst_disk.SectorBytes());
  for (uint64_t s = 0; s < sectors; ++s) {
    burst_disk.PeekMedia(s, a);
    idle_disk.PeekMedia(s, b);
    ASSERT_EQ(a, b) << "sector " << s;
  }
}

// A bounded burst too short for one mean move starts none: it resumes no victim, picks none
// and leaves the preempted victim excluded from allocation. A twin device that never saw the
// short burst therefore carries on identically, foreground writes and later picks included.
TEST_F(CompactorTest, BurstShorterThanOneMoveStartsNoMove) {
  common::Clock twin_clock;
  simdisk::SimDisk twin_disk(simdisk::Truncated(simdisk::SeagateSt19101(), 3), &twin_clock);
  VldConfig config;
  config.target_empty_tracks = 1000;
  Vld twin(&twin_disk, config);
  ASSERT_TRUE(twin.Format().ok());
  for (Vld* vld : {vld_.get(), &twin}) {
    core::FillWithHoles(*vld, 0.9);
    ASSERT_TRUE(vld->Checkpoint().ok());
    // No move is measured yet, so this burst starts moves until its deadline and stops
    // mid-track.
    vld->RunGovernedBurst(common::Milliseconds(5));
    ASSERT_TRUE(vld->compactor().resume_track().has_value());
    ASSERT_FALSE(vld->vlog().IdleCheckpointDue());  // So a burst goes straight to the compactor.
  }
  ASSERT_EQ(clock_.Now(), twin_clock.Now());
  const Compactor& compactor = vld_->compactor();
  const common::Duration move = compactor.MoveCost();
  ASSERT_GT(move, 0);
  const std::optional<uint64_t> resume = compactor.resume_track();
  const CompactorStats before = compactor.stats();
  vld_->RunGovernedBurst(move - 1);
  EXPECT_EQ(clock_.Now(), twin_clock.Now());
  EXPECT_EQ(compactor.resume_track(), resume);
  EXPECT_EQ(compactor.stats().data_blocks_moved, before.data_blocks_moved);
  EXPECT_EQ(compactor.stats().map_sectors_rewritten, before.map_sectors_rewritten);
  EXPECT_EQ(compactor.stats().tracks_resumed, before.tracks_resumed);
  EXPECT_EQ(compactor.stats().overrun_time, before.overrun_time);
  // Foreground writes land where the twin's do only if the same track is excluded, and the
  // idle run picks the twin's victims only if the head was left where the twin's is.
  for (Vld* vld : {vld_.get(), &twin}) {
    for (uint32_t b = 1; b < 200; b += 2) {
      ASSERT_TRUE(vld->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b + 7)).ok());
    }
    vld->RunIdle(common::Seconds(2));
  }
  EXPECT_EQ(clock_.Now(), twin_clock.Now());
  EXPECT_EQ(compactor.stats().tracks_compacted, twin.compactor().stats().tracks_compacted);
  EXPECT_EQ(compactor.stats().data_blocks_moved, twin.compactor().stats().data_blocks_moved);
  ExpectSameMedia(*disk_, twin_disk);
}

// A burst long enough for several moves starts each one only while a mean move still fits:
// none starts after deadline - MoveCost(). A relocation ends with its one-sector map commit
// (the post-barrier is free on a write-through disk), and the next move starts right there, so
// the burst's map writes give every move's start.
TEST_F(CompactorTest, BurstStartsNoMoveAfterDeadlineLessOneMove) {
  FillWithHoles(0.9);
  ASSERT_TRUE(vld_->Checkpoint().ok());
  vld_->RunGovernedBurst(common::Milliseconds(5));  // Measures a mean move cost.
  const common::Duration move = vld_->compactor().MoveCost();
  ASSERT_GT(move, 0);
  ASSERT_FALSE(vld_->vlog().IdleCheckpointDue());
  const CompactorStats before = vld_->compactor().stats();
  obs::TraceRecorder tracer(&clock_);
  disk_->set_tracer(&tracer);
  const common::Time start = clock_.Now();
  const common::Time deadline = start + 6 * move;
  vld_->RunGovernedBurst(deadline - start);
  disk_->set_tracer(nullptr);
  const CompactorStats& after = vld_->compactor().stats();
  // Data relocations only, so each move is exactly one map write.
  ASSERT_EQ(after.map_sectors_rewritten, before.map_sectors_rewritten);
  std::vector<common::Time> starts{start};
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (e.type == obs::EventType::kMapAppend) {
      starts.push_back(e.at);
    }
  }
  starts.pop_back();  // The last map write ends the burst.
  ASSERT_EQ(starts.size(), after.data_blocks_moved - before.data_blocks_moved);
  ASSERT_GE(starts.size(), 3u);
  for (const common::Time t : starts) {
    EXPECT_LE(t, deadline - move) << "move started " << t - start << " ns into the burst";
  }
  EXPECT_EQ(after.overrun_time - before.overrun_time,
            std::max<common::Duration>(clock_.Now() - deadline, 0));
}

TEST_F(CompactorTest, ForegroundWritesBetweenBurstsInvalidateStaleResume) {
  FillWithHoles(0.9);
  ASSERT_TRUE(vld_->Checkpoint().ok());
  vld_->RunGovernedBurst(common::Milliseconds(5));
  ASSERT_TRUE(vld_->compactor().resume_track().has_value());
  const uint64_t moved_first = vld_->compactor().stats().data_blocks_moved;
  // Foreground traffic between bursts may fill holes anywhere, including the interrupted
  // victim. Whatever happens, later one-move bursts must keep making progress and never
  // corrupt data.
  common::Rng rng(7);
  const uint32_t blocks = static_cast<uint32_t>(vld_->logical_blocks() * 0.9);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks)) | 1u;  // Keep odd = live set.
      ASSERT_TRUE(vld_->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
    }
    vld_->RunGovernedBurst(vld_->compactor().MoveCost());
  }
  EXPECT_GT(vld_->compactor().stats().data_blocks_moved, moved_first);
  std::vector<std::byte> out(4096);
  for (uint32_t b = 1; b < blocks; b += 2) {
    ASSERT_TRUE(vld_->Read(static_cast<simdisk::Lba>(b) * 8, out).ok());
    EXPECT_EQ(out, Pattern(4096, b)) << "block " << b;
  }
}

// A commit made while a victim is scanned can pin one of the victim's own map sectors: the
// sector it obsoletes still carries covers. A block left holding only pinned sectors cannot
// move before a checkpoint, so the victim ends there. Random overwrites between short idle
// runs (too short to checkpoint the pins away first) reach that case; every block must still
// read back its last write.
TEST_F(CompactorTest, VictimStopsAtABlockHoldingOnlyPinnedMapSectors) {
  common::Rng rng(11);
  const uint32_t blocks = static_cast<uint32_t>(vld_->logical_blocks() * 0.7);
  std::vector<uint32_t> version(blocks, 0);
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(vld_->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
  }
  const CompactorStats& stats = vld_->compactor().stats();
  for (int round = 0; round < 400 && stats.pinned_block_stops == 0; ++round) {
    for (int i = 0; i < 16; ++i) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
      ++version[b];
      ASSERT_TRUE(
          vld_->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b + 7 * version[b])).ok());
    }
    vld_->RunIdle(common::Milliseconds(30));
  }
  EXPECT_GT(stats.pinned_block_stops, 0u);
  std::vector<std::byte> out(4096);
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(vld_->Read(static_cast<simdisk::Lba>(b) * 8, out).ok());
    EXPECT_EQ(out, Pattern(4096, b + 7 * version[b])) << "block " << b;
  }
}

}  // namespace
}  // namespace vlog::core
