#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
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

  // Fills `fraction` of the logical space then trims every other block, creating scattered
  // holes that only compaction can consolidate into empty tracks.
  void FillWithHoles(double fraction) {
    const uint32_t blocks = static_cast<uint32_t>(vld_->logical_blocks() * fraction);
    for (uint32_t b = 0; b < blocks; ++b) {
      ASSERT_TRUE(vld_->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
    }
    for (uint32_t b = 0; b < blocks; b += 2) {
      ASSERT_TRUE(vld_->Trim(static_cast<simdisk::Lba>(b) * 8, 8).ok());
    }
  }

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

// Each victim is a compactable track with the fewest live blocks. Random trims leave tracks
// with different live counts; an idle run with a 1 ns budget starts exactly one victim (and
// finishes it), so the counts taken just before the run are the ones the pick saw.
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
  }
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
  // Feed tiny bursts until the interrupted victim is finished. The resumed scan must skip the
  // blocks already relocated (they are no longer live), so the victim ends empty with every
  // originally-live block moved exactly once.
  const uint64_t victim_live = vld_->space().LiveInTrack(victim);
  for (int i = 0; i < 1000 && vld_->compactor().resume_track() == victim; ++i) {
    vld_->RunGovernedBurst(common::Milliseconds(5));
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
  // victim draws and relocations), so media, clock, and stats must be bit-identical. This is
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

TEST_F(CompactorTest, ForegroundWritesBetweenBurstsInvalidateStaleResume) {
  FillWithHoles(0.9);
  ASSERT_TRUE(vld_->Checkpoint().ok());
  vld_->RunGovernedBurst(common::Milliseconds(5));
  ASSERT_TRUE(vld_->compactor().resume_track().has_value());
  // Foreground traffic between bursts may fill holes anywhere, including the interrupted
  // victim. Whatever happens, later bursts must keep making progress and never corrupt data.
  common::Rng rng(7);
  const uint32_t blocks = static_cast<uint32_t>(vld_->logical_blocks() * 0.9);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks)) | 1u;  // Keep odd = live set.
      ASSERT_TRUE(vld_->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
    }
    vld_->RunGovernedBurst(common::Milliseconds(5));
  }
  EXPECT_GT(vld_->compactor().stats().data_blocks_moved, 0u);
  std::vector<std::byte> out(4096);
  for (uint32_t b = 1; b < blocks; b += 2) {
    ASSERT_TRUE(vld_->Read(static_cast<simdisk::Lba>(b) * 8, out).ok());
    EXPECT_EQ(out, Pattern(4096, b)) << "block " << b;
  }
}

}  // namespace
}  // namespace vlog::core
