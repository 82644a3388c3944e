#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/free_space.h"
#include "src/simdisk/disk_params.h"

namespace vlog::core {
namespace {

simdisk::DiskGeometry SmallGeom() {
  // 4 cylinders x 2 tracks x 32 sectors; 4 blocks of 8 sectors per track.
  return simdisk::DiskGeometry{.cylinders = 4, .tracks_per_cylinder = 2, .sectors_per_track = 32,
                               .sector_bytes = 512};
}

TEST(FreeSpace, InitialStateAllFree) {
  FreeSpaceMap space(SmallGeom(), 8);
  EXPECT_EQ(space.blocks_per_track(), 4u);
  EXPECT_EQ(space.total_blocks(), 32u);
  EXPECT_EQ(space.free_blocks(), 32u);
  EXPECT_EQ(space.live_blocks(), 0u);
  EXPECT_TRUE(space.TrackEmpty(0));
  EXPECT_DOUBLE_EQ(space.Utilization(), 0.0);
}

TEST(FreeSpace, LbaBlockConversions) {
  FreeSpaceMap space(SmallGeom(), 8);
  EXPECT_EQ(space.BlockToLba(5), 40u);
  EXPECT_EQ(space.LbaToBlock(47), 5u);
  EXPECT_EQ(space.TrackOfBlock(5), 1u);
}

TEST(FreeSpace, MarkAndFreeUpdateCounters) {
  FreeSpaceMap space(SmallGeom(), 8);
  space.MarkLive(3);
  EXPECT_EQ(space.state(3), BlockState::kLive);
  EXPECT_EQ(space.FreeInTrack(0), 3u);
  EXPECT_EQ(space.LiveInTrack(0), 1u);
  EXPECT_FALSE(space.TrackEmpty(0));
  space.Free(3);
  EXPECT_EQ(space.state(3), BlockState::kFree);
  EXPECT_TRUE(space.TrackEmpty(0));
}

TEST(FreeSpace, SystemBlocksExcludedFromUtilization) {
  FreeSpaceMap space(SmallGeom(), 8);
  space.MarkSystem(0);
  EXPECT_TRUE(space.TrackHasSystem(0));
  EXPECT_FALSE(space.TrackEmpty(0));
  // 31 usable blocks; one live = 1/31.
  space.MarkLive(1);
  EXPECT_NEAR(space.Utilization(), 1.0 / 31.0, 1e-12);
}

TEST(FreeSpace, NearestFreeScansCircularly) {
  FreeSpaceMap space(SmallGeom(), 8);
  space.MarkLive(0);
  space.MarkLive(1);
  // From sector 0: blocks 0,1 occupied; block 2 (sector 16) is nearest.
  auto block = space.NearestFreeInTrack(0, 0);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 2u);
  // From sector 30 (inside block 3): block 3's start already passed; wraps to... block 3 starts
  // at 24, from 30 the next aligned start is block 0 (occupied), 1 (occupied), 2.
  block = space.NearestFreeInTrack(0, 30);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 2u);
}

TEST(FreeSpace, NearestFreeExactBoundary) {
  FreeSpaceMap space(SmallGeom(), 8);
  auto block = space.NearestFreeInTrack(0, 8);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 1u);  // Sector 8 is exactly block 1's start.
}

TEST(FreeSpace, NearestFreeFullTrack) {
  FreeSpaceMap space(SmallGeom(), 8);
  for (uint32_t b = 0; b < 4; ++b) {
    space.MarkLive(b);
  }
  EXPECT_FALSE(space.NearestFreeInTrack(0, 0).has_value());
  // Other tracks unaffected.
  EXPECT_TRUE(space.NearestFreeInTrack(1, 0).has_value());
}

TEST(FreeSpace, SecondTrackIndexing) {
  FreeSpaceMap space(SmallGeom(), 8);
  space.MarkLive(4);  // First block of track 1.
  EXPECT_EQ(space.LiveInTrack(1), 1u);
  EXPECT_EQ(space.LiveInTrack(0), 0u);
  auto block = space.NearestFreeInTrack(1, 0);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, 5u);
}

// The linear scan the hole-plug pick made before the partial-track buckets: the first track
// with a strictly larger live count wins, over tracks with both live and free blocks.
std::optional<uint64_t> ScanFullestPartial(const FreeSpaceMap& space,
                                           std::optional<uint64_t> excluded) {
  std::optional<uint64_t> best_track;
  uint32_t best_live = 0;
  for (uint64_t t = 0; t < space.total_tracks(); ++t) {
    if (space.FreeInTrack(t) == 0 || (excluded && *excluded == t)) {
      continue;
    }
    const uint32_t live = space.LiveInTrack(t);
    if (live == 0 || live >= space.blocks_per_track()) {
      continue;
    }
    if (!best_track || live > best_live) {
      best_track = t;
      best_live = live;
    }
  }
  return best_track;
}

TEST(FreeSpace, FullestPartialTrackMatchesLinearScan) {
  // 150 tracks of 9 blocks: three bitmap words per bucket, so picks cross word boundaries.
  const simdisk::DiskGeometry geom{.cylinders = 50, .tracks_per_cylinder = 3,
                                   .sectors_per_track = 72, .sector_bytes = 512};
  for (const uint64_t seed : {1u, 42u, 31337u}) {
    // `space` is asked after every operation, so its index is built on an empty map and kept
    // up to date from then on. `late` sees the same history but is first asked after a whole
    // phase, so its index is built from a populated map.
    FreeSpaceMap space(geom, 8);
    FreeSpaceMap late(geom, 8);
    // A system region that fills track 0 and part of track 1, plus a lone system block in a
    // later track: system blocks count as neither live nor free.
    for (uint32_t b = 0; b < 13; ++b) {
      space.MarkSystem(b);
      late.MarkSystem(b);
    }
    space.MarkSystem(9 * 77 + 4);
    late.MarkSystem(9 * 77 + 4);
    common::Rng rng(seed);
    // Phases that fill, churn and drain, so every bucket is visited and emptied again.
    for (const double live_bias : {0.8, 0.5, 0.2, 0.65}) {
      for (int op = 0; op < 3000; ++op) {
        const uint32_t block = static_cast<uint32_t>(rng.Below(space.total_blocks()));
        if (space.state(block) == BlockState::kFree && rng.Chance(live_bias)) {
          space.MarkLive(block);
          late.MarkLive(block);
        } else if (space.state(block) == BlockState::kLive && !rng.Chance(live_bias)) {
          space.Free(block);
          late.Free(block);
        }
        const auto pick = ScanFullestPartial(space, std::nullopt);
        ASSERT_EQ(space.FullestPartialTrack(std::nullopt), pick) << "seed " << seed << " op " << op;
        // Excluding the winner falls through to the next track of its bucket, or the next
        // bucket; excluding any other track changes nothing.
        const std::optional<uint64_t> others[] = {
            pick, rng.Below(space.total_tracks()), space.TrackOfBlock(block)};
        for (const std::optional<uint64_t>& excluded : others) {
          ASSERT_EQ(space.FullestPartialTrack(excluded), ScanFullestPartial(space, excluded))
              << "seed " << seed << " op " << op << " excluded " << excluded.value_or(~0ull);
        }
      }
      const auto late_pick = ScanFullestPartial(late, std::nullopt);
      ASSERT_EQ(late.FullestPartialTrack(std::nullopt), late_pick)
          << "seed " << seed << " bias " << live_bias;
      ASSERT_EQ(late.FullestPartialTrack(late_pick), ScanFullestPartial(late, late_pick))
          << "seed " << seed << " bias " << live_bias;
    }
  }
}

TEST(FreeSpace, PartialTracksByLiveCountMatchLinearScan) {
  // 150 tracks of 9 blocks, as above: each bucket spans three bitmap words.
  const simdisk::DiskGeometry geom{.cylinders = 50, .tracks_per_cylinder = 3,
                                   .sectors_per_track = 72, .sector_bytes = 512};
  FreeSpaceMap space(geom, 8);
  for (uint32_t b = 0; b < 13; ++b) {
    space.MarkSystem(b);  // A system region that fills track 0 and part of track 1.
  }
  common::Rng rng(7);
  for (const double live_bias : {0.8, 0.3, 0.6}) {
    for (int op = 0; op < 2000; ++op) {
      const uint32_t block = static_cast<uint32_t>(rng.Below(space.total_blocks()));
      if (space.state(block) == BlockState::kFree && rng.Chance(live_bias)) {
        space.MarkLive(block);
      } else if (space.state(block) == BlockState::kLive && !rng.Chance(live_bias)) {
        space.Free(block);
      }
      if (op % 50 != 0) {
        continue;
      }
      for (uint32_t live = 0; live <= space.blocks_per_track(); ++live) {
        std::vector<uint64_t> scanned;
        for (uint64_t t = 0; t < space.total_tracks(); ++t) {
          if (live != 0 && space.LiveInTrack(t) == live && space.FreeInTrack(t) != 0) {
            scanned.push_back(t);
          }
        }
        std::vector<uint64_t> indexed;
        space.ForEachPartialTrack(live, [&](uint64_t t) { indexed.push_back(t); });
        ASSERT_EQ(indexed, scanned) << "bias " << live_bias << " op " << op << " live " << live;
      }
    }
  }
}

}  // namespace
}  // namespace vlog::core
