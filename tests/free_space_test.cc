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

// A priced track, as CheapestPartialTrack returns it.
struct Priced {
  uint64_t track = 0;
  common::Duration cost = 0;
  bool operator==(const Priced&) const = default;
};

// What CheapestPartialTrack must return: every partly filled track with `live` live blocks
// priced, the cheapest kept, the lowest-numbered on ties.
template <typename Price>
std::optional<Priced> ScanCheapestPartial(const FreeSpaceMap& space, uint32_t live, Price price) {
  std::optional<Priced> best;
  for (uint64_t t = 0; t < space.total_tracks(); ++t) {
    if (space.LiveInTrack(t) != live || space.FreeInTrack(t) == 0) {
      continue;
    }
    if (const auto p = price(t); p && (!best || p->cost < best->cost)) {
      best = p;
    }
  }
  return best;
}

// The compactor's picks price the tracks of one partial-track bucket and keep the cheapest,
// the lowest-numbered on ties, which must be what pricing every partly filled track with that
// live count returns. The prices here take only four values, so ties are common; one track per
// search is excluded (priced nullopt), as the victim is in a hole-plug pick.
TEST(FreeSpace, CheapestPartialTrackMatchesExhaustiveScan) {
  // 50 cylinders of 3 tracks of 9 blocks: 150 tracks, so each bucket spans three bitmap words.
  const simdisk::DiskGeometry geom{.cylinders = 50, .tracks_per_cylinder = 3,
                                   .sectors_per_track = 72, .sector_bytes = 512};
  for (const uint64_t seed : {1u, 42u, 31337u}) {
    // `space` is searched after every operation, so its index is built on an empty map and
    // kept up to date from then on; `late` sees the same history but is first searched after
    // a whole phase, so its index is built from a populated map.
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
    uint64_t searches_with_a_pick = 0;
    // Phases that fill, churn and drain, so every bucket is visited and emptied again.
    for (const double live_bias : {0.8, 0.5, 0.2, 0.65}) {
      for (int op = 0; op < 1500; ++op) {
        const uint32_t block = static_cast<uint32_t>(rng.Below(space.total_blocks()));
        if (space.state(block) == BlockState::kFree && rng.Chance(live_bias)) {
          space.MarkLive(block);
          late.MarkLive(block);
        } else if (space.state(block) == BlockState::kLive && !rng.Chance(live_bias)) {
          space.Free(block);
          late.Free(block);
        }
        const uint64_t excluded = rng.Below(space.total_tracks());
        const uint64_t salt = rng.Next();
        const auto price = [&](uint64_t t) -> std::optional<Priced> {
          if (t == excluded) {
            return std::nullopt;
          }
          return Priced{t, 700 * static_cast<common::Duration>(
                                     (t * 0x9e3779b97f4a7c15ULL ^ salt) % 4)};
        };
        for (uint32_t live = 1; live < space.blocks_per_track(); ++live) {
          const auto want = ScanCheapestPartial(space, live, price);
          ASSERT_EQ(space.CheapestPartialTrack(live, price), want)
              << "seed " << seed << " op " << op << " live " << live;
          if (live_bias != 0.8) {
            ASSERT_EQ(late.CheapestPartialTrack(live, price), want)
                << "seed " << seed << " op " << op << " live " << live;
          }
          searches_with_a_pick += want ? 1 : 0;
        }
      }
    }
    EXPECT_GT(searches_with_a_pick, 10000u) << "seed " << seed;
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
