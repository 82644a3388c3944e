#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/eager_allocator.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {
namespace {

class EagerAllocatorTest : public ::testing::Test {
 protected:
  EagerAllocatorTest()
      : disk_(simdisk::Truncated(simdisk::Hp97560(), 8), &clock_),
        space_(disk_.geometry(), 8) {}

  EagerAllocator MakeGreedy() {
    return EagerAllocator(&disk_, &space_, AllocatorConfig{.fill_to_threshold = false});
  }
  EagerAllocator MakeFill(double threshold = 0.25) {
    return EagerAllocator(&disk_, &space_,
                          AllocatorConfig{.fill_to_threshold = true,
                                          .track_switch_threshold = threshold});
  }

  // Writes one block at the allocated location, as the VLD would.
  void WriteTo(uint32_t block) {
    std::vector<std::byte> data(8 * 512);
    ASSERT_TRUE(disk_.InternalWrite(space_.BlockToLba(block), data).ok());
  }

  // Advances the clock until the leading edge of `sector` is `past` into its passage under the
  // head.
  void TurnTo(uint32_t sector, common::Duration past) {
    clock_.Advance(disk_.RotationalWait(sector, clock_.Now()) + past);
  }

  common::Clock clock_;
  simdisk::SimDisk disk_;
  FreeSpaceMap space_;
};

TEST_F(EagerAllocatorTest, AllocatesFreeBlocksAndMarksThem) {
  EagerAllocator alloc = MakeGreedy();
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(space_.state(*block), BlockState::kLive);
  EXPECT_EQ(alloc.stats().allocations, 1u);
}

TEST_F(EagerAllocatorTest, PrefersCurrentTrack) {
  EagerAllocator alloc = MakeGreedy();
  // Arm starts at cylinder 0 head 0 with everything free: allocation stays on track 0.
  for (int i = 0; i < static_cast<int>(space_.blocks_per_track()); ++i) {
    const auto block = alloc.Allocate();
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(space_.TrackOfBlock(*block), 0u) << i;
    WriteTo(*block);
  }
  EXPECT_EQ(alloc.stats().same_track, space_.blocks_per_track());
}

TEST_F(EagerAllocatorTest, SwitchesHeadWhenTrackFull) {
  EagerAllocator alloc = MakeGreedy();
  for (uint32_t i = 0; i < space_.blocks_per_track(); ++i) {
    WriteTo(*alloc.Allocate());
  }
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  // Still cylinder 0, different surface.
  const auto phys = disk_.geometry().ToPhys(space_.BlockToLba(*block));
  EXPECT_EQ(phys.cylinder, 0u);
  EXPECT_NE(phys.head, 0u);
  EXPECT_GE(alloc.stats().same_cylinder, 1u);
}

TEST_F(EagerAllocatorTest, SeeksWhenCylinderFull) {
  EagerAllocator alloc = MakeGreedy();
  const uint64_t per_cyl = space_.blocks_per_track() * disk_.geometry().tracks_per_cylinder;
  for (uint64_t i = 0; i < per_cyl; ++i) {
    WriteTo(*alloc.Allocate());
  }
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  EXPECT_GT(space_.TrackOfBlock(*block), disk_.geometry().tracks_per_cylinder - 1);
  EXPECT_GE(alloc.stats().cylinder_seeks, 1u);
}

TEST_F(EagerAllocatorTest, ReturnsNulloptWhenFull) {
  EagerAllocator alloc = MakeGreedy();
  while (space_.free_blocks() > 0) {
    ASSERT_TRUE(alloc.Allocate().has_value());
  }
  EXPECT_FALSE(alloc.Allocate().has_value());
}

TEST_F(EagerAllocatorTest, NeverReturnsOccupiedBlock) {
  EagerAllocator alloc = MakeGreedy();
  std::vector<bool> seen(space_.total_blocks(), false);
  while (space_.free_blocks() > 0) {
    const auto block = alloc.Allocate();
    ASSERT_TRUE(block.has_value());
    EXPECT_FALSE(seen[*block]);
    seen[*block] = true;
  }
}

TEST_F(EagerAllocatorTest, RespectsExcludedTrack) {
  EagerAllocator alloc = MakeGreedy();
  alloc.SetExcludedTrack(0);
  for (int i = 0; i < 20; ++i) {
    const auto block = alloc.Allocate();
    ASSERT_TRUE(block.has_value());
    EXPECT_NE(space_.TrackOfBlock(*block), 0u);
  }
}

// Hole-plugging fills a partly filled track with the most live blocks, and of two equally
// full ones the one whose free block the head reaches sooner: here the higher-numbered one,
// beside the arm. A less full track on the arm's own cylinder is passed over.
TEST_F(EagerAllocatorTest, HolePlugTakesTheNearerOfTwoEquallyFullTracks) {
  const uint32_t per_track = space_.blocks_per_track();
  const uint32_t heads = disk_.geometry().tracks_per_cylinder;
  const uint64_t low = 1;                               // Cylinder 0.
  const uint64_t high = space_.total_tracks() - 2;      // The last cylinder.
  const uint64_t less_full = high - 1;                  // Same cylinder, one live block fewer.
  ASSERT_EQ(less_full / heads, high / heads);
  for (const uint64_t t : {low, high, less_full}) {
    // Slots 0 and 1 stay free (2 and 3 on the less full track).
    for (uint32_t slot = t == less_full ? 4 : 2; slot < per_track; ++slot) {
      space_.MarkLive(static_cast<uint32_t>(t * per_track + slot));
    }
  }
  WriteTo(static_cast<uint32_t>(high * per_track + per_track - 1));  // Parks the arm on `high`.
  ASSERT_EQ(disk_.ArmPosition().cylinder, high / heads);
  // Half a sector before slot 0 comes round: `high` costs no arm move and a few microseconds,
  // `low` a seek across the disk.
  TurnTo(disk_.geometry().sectors_per_track - 1, disk_.params().SectorTime() / 2);
  EagerAllocator alloc = MakeFill();
  alloc.SetCompactionMode(true);
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, high * per_track);
  EXPECT_LT(alloc.stats().estimated_locate, disk_.params().SectorTime());
  // Excluding `high` (the compactor's victim) sends the next block to `low`, the other track
  // of the fullest bucket, however far away.
  alloc.SetExcludedTrack(high);
  const auto next = alloc.Allocate();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(space_.TrackOfBlock(*next), low);
}

TEST_F(EagerAllocatorTest, FillModeReservesThresholdPerTrack) {
  EagerAllocator alloc = MakeFill(0.25);  // Reserve 25% of 9 blocks -> 2 blocks stay free.
  std::vector<uint32_t> track_fill(space_.total_tracks(), 0);
  for (int i = 0; i < 40; ++i) {
    const auto block = alloc.Allocate();
    ASSERT_TRUE(block.has_value());
    ++track_fill[space_.TrackOfBlock(*block)];
    WriteTo(*block);
  }
  for (uint64_t t = 0; t < space_.total_tracks(); ++t) {
    EXPECT_LE(track_fill[t], space_.blocks_per_track() - 2) << "track " << t;
  }
  EXPECT_GE(alloc.stats().fill_track_switches, 40u / (space_.blocks_per_track() - 2));
}

TEST_F(EagerAllocatorTest, FillModeFallsBackToGreedyWithoutEmptyTracks) {
  EagerAllocator alloc = MakeFill(0.25);
  // Occupy one block in every track so no track is empty.
  for (uint64_t t = 0; t < space_.total_tracks(); ++t) {
    space_.MarkLive(static_cast<uint32_t>(t * space_.blocks_per_track()));
  }
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  EXPECT_GE(alloc.stats().greedy_fallbacks, 1u);
}

TEST_F(EagerAllocatorTest, NotedEmptyTracksAreUsedFirst) {
  EagerAllocator alloc = MakeFill(0.25);
  alloc.NoteEmptyTrack(5);
  const auto block = alloc.Allocate();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(space_.TrackOfBlock(*block), 5u);
}

TEST_F(EagerAllocatorTest, EstimateReflectsRotationalProximity) {
  EagerAllocator alloc = MakeGreedy();
  // Consecutive allocations on an empty track should have sub-rotation estimated cost.
  WriteTo(*alloc.Allocate());
  const auto before = alloc.stats().estimated_locate;
  WriteTo(*alloc.Allocate());
  const auto delta = alloc.stats().estimated_locate - before;
  EXPECT_LT(delta, disk_.params().RotationPeriod());
}

// EstimateLocate is Allocate's own pick, left uncommitted: a second estimate in a row agrees
// and no counter moves, and the Allocate that follows at the same clock adds exactly the
// estimate to estimated_locate.
std::optional<uint32_t> AllocateAfterEstimate(EagerAllocator& alloc) {
  const common::Duration estimate = alloc.EstimateLocate();
  const AllocatorStats before = alloc.stats();
  EXPECT_EQ(alloc.EstimateLocate(), estimate);
  EXPECT_EQ(alloc.stats().allocations, before.allocations);
  EXPECT_EQ(alloc.stats().fill_track_switches, before.fill_track_switches);
  EXPECT_EQ(alloc.stats().greedy_fallbacks, before.greedy_fallbacks);
  const auto block = alloc.Allocate();
  EXPECT_EQ(alloc.stats().estimated_locate - before.estimated_locate, estimate);
  return block;
}

TEST_F(EagerAllocatorTest, EstimateMatchesFillAllocationsAcrossTrackSwitches) {
  EagerAllocator alloc = MakeFill(0.25);
  for (int i = 0; i < 60; ++i) {
    if (i == 30) {
      alloc.NoteEmptyTrack(40);  // A queued empty track is taken at the next switch.
    }
    const auto block = AllocateAfterEstimate(alloc);
    ASSERT_TRUE(block.has_value());
    WriteTo(*block);
  }
  EXPECT_GE(alloc.stats().fill_track_switches, 60u / (space_.blocks_per_track() - 2));
  EXPECT_GT(alloc.stats().estimated_locate, 0);
}

TEST_F(EagerAllocatorTest, EstimateMatchesGreedyAllocations) {
  EagerAllocator alloc = MakeGreedy();
  const uint64_t per_cyl = space_.blocks_per_track() * disk_.geometry().tracks_per_cylinder;
  for (uint64_t i = 0; i < per_cyl + 20; ++i) {
    const auto block = AllocateAfterEstimate(alloc);
    ASSERT_TRUE(block.has_value());
    WriteTo(*block);
  }
  EXPECT_GE(alloc.stats().same_cylinder, 1u);
  EXPECT_GE(alloc.stats().cylinder_seeks, 1u);
}

TEST_F(EagerAllocatorTest, EstimateMatchesWithAnExcludedTrack) {
  EagerAllocator alloc = MakeFill(0.25);
  alloc.SetExcludedTrack(1);
  for (int i = 0; i < 20; ++i) {
    const auto block = AllocateAfterEstimate(alloc);
    ASSERT_TRUE(block.has_value());
    EXPECT_NE(space_.TrackOfBlock(*block), 1u);
    WriteTo(*block);
  }
  // Fill every other track: the excluded track then holds the only free blocks, and an
  // allocation lifts the exclusion for itself.
  for (uint32_t b = 0; b < space_.total_blocks(); ++b) {
    if (space_.TrackOfBlock(b) != 1 && space_.state(b) == BlockState::kFree) {
      space_.MarkLive(b);
    }
  }
  for (int i = 0; i < 3; ++i) {
    const auto block = AllocateAfterEstimate(alloc);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(space_.TrackOfBlock(*block), 1u);
    WriteTo(*block);
  }
}

// Every allocation counts as same-track, same-cylinder or a cylinder seek, by where its block
// lies relative to the arm, whichever pick chose it: greedy, fill-track or hole-plug.
TEST_F(EagerAllocatorTest, PlacementCountsSumToAllocationsInEveryMode) {
  const auto expect_sum = [](const AllocatorStats& st) {
    EXPECT_EQ(st.same_track + st.same_cylinder + st.cylinder_seeks, st.allocations);
  };
  {
    EagerAllocator greedy = MakeGreedy();
    for (int i = 0; i < 200; ++i) {
      WriteTo(*greedy.Allocate());
    }
    expect_sum(greedy.stats());
  }
  EagerAllocator alloc = MakeFill(0.25);
  for (int i = 0; i < 60; ++i) {
    WriteTo(*alloc.Allocate());
  }
  expect_sum(alloc.stats());
  EXPECT_GT(alloc.stats().same_track, 0u);
  alloc.SetCompactionMode(true);  // Hole-plugs the partly filled tracks.
  for (int i = 0; i < 30; ++i) {
    WriteTo(*alloc.Allocate());
  }
  expect_sum(alloc.stats());
}

// Eager writing takes the free block the head reaches soonest. With the head just inside the
// first sector of a free block, that block is a whole revolution away: the next free block is
// taken instead, and its write waits less than one block's passage.
TEST_F(EagerAllocatorTest, HeadInsideAFreeBlocksFirstSectorSkipsThatBlock) {
  EagerAllocator alloc = MakeGreedy();
  const uint32_t per_track = space_.blocks_per_track();
  const common::Duration sector_time = disk_.params().SectorTime();
  for (uint32_t b = 0; b < per_track; ++b) {
    TurnTo(b * 8, sector_time / 2);
    const auto block = alloc.Allocate();
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(*block, (b + 1) % per_track) << "head inside block " << b;
    WriteTo(*block);
    EXPECT_LT(disk_.last_request().locate, 8 * sector_time) << "head inside block " << b;
    alloc.Free(*block);
  }
}

// Every allocation is priced at what the disk then charges its write: on a write-through disk,
// an Allocate() followed at once by the block's write adds exactly the write's locate (arm move
// plus rotational wait) to estimated_locate, at any clock phase and whichever pick chose it.
TEST_F(EagerAllocatorTest, EstimatedLocateIsTheLocateEachWriteIsCharged) {
  common::Rng rng(23);
  const auto expect_exact = [&](EagerAllocator& alloc, int allocations, const char* mode) {
    for (int i = 0; i < allocations; ++i) {
      clock_.Advance(static_cast<common::Duration>(
          rng.Below(static_cast<uint64_t>(disk_.params().RotationPeriod()))));
      const common::Duration before = alloc.stats().estimated_locate;
      const auto block = alloc.Allocate();
      ASSERT_TRUE(block.has_value()) << mode << " " << i;
      WriteTo(*block);
      EXPECT_EQ(alloc.stats().estimated_locate - before, disk_.last_request().locate)
          << mode << " allocation " << i;
    }
  };
  const auto punch_holes = [&] {  // Frees a third of the live blocks, at random.
    for (uint32_t b = 0; b < space_.total_blocks(); ++b) {
      if (space_.state(b) == BlockState::kLive && rng.Below(3) == 0) {
        space_.Free(b);
      }
    }
  };
  {
    EagerAllocator greedy = MakeGreedy();
    expect_exact(greedy, 400, "greedy");
  }
  punch_holes();
  EagerAllocator alloc = MakeFill(0.25);
  alloc.NoteEmptyTrack(space_.total_tracks() - 1);
  expect_exact(alloc, 200, "fill");
  alloc.SetExcludedTrack(space_.TrackOfBlock(*alloc.Allocate()));
  expect_exact(alloc, 100, "excluded track");
  punch_holes();
  alloc.SetCompactionMode(true);
  expect_exact(alloc, 100, "hole-plug");
  EXPECT_GT(alloc.stats().greedy_fallbacks + alloc.stats().fill_track_switches, 0u);
}

}  // namespace
}  // namespace vlog::core
