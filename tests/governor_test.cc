// CompactionGovernor: duty-cycle feedback behavior, and the governor-vs-idle-compactor
// differential — with an infinite SLO budget and always-idle arrivals the governed path must
// be bit-identical (media and clock) to the plain RunIdle path, the same oracle pattern
// queued_read_test uses for queued-vs-sync reads.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/governor.h"
#include "src/core/vld.h"
#include "src/obs/timeline.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"
#include "src/workload/queue_sweep.h"

namespace vlog::core {
namespace {

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 7 + i * 13));
  }
  return v;
}

struct Rig {
  explicit Rig(VldConfig config = {}) {
    disk = std::make_unique<simdisk::SimDisk>(simdisk::Truncated(simdisk::SeagateSt19101(), 3),
                                              &clock);
    vld = std::make_unique<Vld>(disk.get(), config);
    EXPECT_TRUE(vld->Format().ok());
  }

  common::Clock clock;
  std::unique_ptr<simdisk::SimDisk> disk;
  std::unique_ptr<Vld> vld;
};

// Identical deterministic foreground history on any rig: fill a region, then rounds of random
// overwrites and trims that create compaction debt between idle gaps.
void RoundOfForeground(Vld& vld, common::Rng& rng, uint32_t blocks, int round) {
  for (int i = 0; i < 12; ++i) {
    const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
    ASSERT_TRUE(vld.Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b + round)).ok());
  }
  for (int i = 0; i < 4; ++i) {
    const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
    ASSERT_TRUE(vld.Trim(static_cast<simdisk::Lba>(b) * 8, 8).ok());
  }
}

TEST(GovernorDifferentialTest, InfiniteBudgetIdleArrivalsMatchIdleCompactorBitExactly) {
  Rig governed;
  Rig plain;
  // Infinite SLO budget (0 = latency never throttles) and no timeline: the governor's only
  // inputs are the free-space gauges RunIdle itself reacts to.
  GovernorConfig config;
  config.slo_budget = 0;
  CompactionGovernor governor(governed.vld.get(), nullptr, config);

  const uint32_t blocks = static_cast<uint32_t>(governed.vld->logical_blocks() * 0.8);
  common::Rng rng_a(11);
  common::Rng rng_b(11);
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(
        governed.vld->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
    ASSERT_TRUE(plain.vld->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
  }
  // Always-idle arrivals: every round ends in a generous idle gap, granted in full to the
  // governor on one rig and handed straight to RunIdle on the other.
  const common::Duration gap = common::Seconds(2);
  for (int round = 0; round < 10; ++round) {
    RoundOfForeground(*governed.vld, rng_a, blocks, round);
    RoundOfForeground(*plain.vld, rng_b, blocks, round);
    ASSERT_EQ(governed.clock.Now(), plain.clock.Now()) << "round " << round << " foreground";
    governor.RunBurst(gap);
    plain.vld->RunIdle(gap);
    ASSERT_EQ(governed.clock.Now(), plain.clock.Now()) << "round " << round << " idle";
  }

  // Bit-identical media: every sector of the physical disk, including map and checkpoint
  // regions, must match.
  const uint64_t sectors = governed.disk->SectorCount();
  std::vector<std::byte> a(governed.disk->SectorBytes());
  std::vector<std::byte> b(governed.disk->SectorBytes());
  for (uint64_t s = 0; s < sectors; ++s) {
    governed.disk->PeekMedia(s, a);
    plain.disk->PeekMedia(s, b);
    ASSERT_EQ(a, b) << "sector " << s;
  }
  EXPECT_EQ(governed.vld->compactor().stats().tracks_compacted,
            plain.vld->compactor().stats().tracks_compacted);
  EXPECT_EQ(governed.vld->compactor().stats().data_blocks_moved,
            plain.vld->compactor().stats().data_blocks_moved);
  EXPECT_EQ(governed.vld->compactor().stats().bursts_preempted, 0u);
  EXPECT_GT(governor.stats().idle_grants, 0u);
}

class GovernorTest : public ::testing::Test {
 protected:
  GovernorTest() : rig_() {}

  // Leaves the rig with compaction debt (empty tracks below the default target of 4) so
  // NeedsWork holds and grants are about policy, not about having nothing to do.
  void CreateDebt() {
    const uint32_t blocks = static_cast<uint32_t>(rig_.vld->logical_blocks() * 0.9);
    for (uint32_t b = 0; b < blocks; ++b) {
      ASSERT_TRUE(rig_.vld->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
    }
    for (uint32_t b = 0; b < blocks; b += 2) {
      ASSERT_TRUE(rig_.vld->Trim(static_cast<simdisk::Lba>(b) * 8, 8).ok());
    }
    ASSERT_TRUE(rig_.vld->Checkpoint().ok());
    ASSERT_LT(rig_.vld->space().EmptyTrackCount(), 4u);
  }

  Rig rig_;
};

TEST_F(GovernorTest, NoGrantWhenNothingNeedsCompacting) {
  // Freshly formatted: no pinned sectors, plenty of empty tracks. Every grant must be zero,
  // exactly as RunIdle would be a no-op.
  CompactionGovernor governor(rig_.vld.get(), nullptr, {});
  rig_.clock.Advance(common::Seconds(1));
  EXPECT_EQ(governor.Grant(0), 0);
  EXPECT_EQ(governor.Grant(common::Milliseconds(10)), 0);
  EXPECT_EQ(governor.stats().bursts, 0u);
}

TEST_F(GovernorTest, NoGrantForAFewPinsWhileTheReserveIsMet) {
  // A few pinned map sectors are not worth a checkpoint, so with the empty-track
  // reserve met there is nothing to grant time for.
  common::Rng rng(9);
  const uint32_t blocks = rig_.vld->logical_blocks();
  for (int i = 0; i < 2000 && rig_.vld->vlog().PinnedCount() == 0; ++i) {
    const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
    ASSERT_TRUE(rig_.vld->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(4096, b)).ok());
  }
  ASSERT_GT(rig_.vld->vlog().PinnedCount(), 0u);
  ASSERT_FALSE(rig_.vld->vlog().IdleCheckpointDue());
  ASSERT_GE(rig_.vld->space().EmptyTrackCount(), rig_.vld->target_empty_tracks());
  CompactionGovernor governor(rig_.vld.get(), nullptr, {});
  rig_.clock.Advance(common::Seconds(1));
  EXPECT_EQ(governor.Grant(0), 0);
  EXPECT_EQ(governor.Grant(common::Milliseconds(10)), 0);
  EXPECT_EQ(governor.stats().bursts, 0u);
}

TEST_F(GovernorTest, IdleHintGrantsTheWholeGapFreeOfCredit) {
  CreateDebt();
  CompactionGovernor governor(rig_.vld.get(), nullptr, {});
  const common::Duration gap = common::Milliseconds(7);
  EXPECT_EQ(governor.Grant(gap), gap);
  EXPECT_EQ(governor.stats().idle_grants, 1u);
}

TEST_F(GovernorTest, CreditAccruesAtDutyAndCapsAtMaxBurst) {
  CreateDebt();
  GovernorConfig config;
  config.initial_duty = 0.10;
  config.max_burst = common::Milliseconds(25);
  config.low_water_tracks = 0;  // Exercise the credit path, not the pressure floor.
  CompactionGovernor governor(rig_.vld.get(), nullptr, config);
  ASSERT_EQ(governor.Grant(0), 0);  // First decision only seeds the clock baseline.
  // 100 ms at duty 0.10 accrues 10 ms of credit.
  rig_.clock.Advance(common::Milliseconds(100));
  const common::Duration grant = governor.Grant(0);
  EXPECT_GE(grant, common::Milliseconds(9));
  EXPECT_LE(grant, common::Milliseconds(11));
  // A long gap accrues far more than the cap; the burst stays bounded.
  rig_.clock.Advance(common::Seconds(10));
  EXPECT_EQ(governor.Grant(0), common::Milliseconds(25));
}

TEST_F(GovernorTest, BacksOffOnViolatingWindowAndRampsOnCleanOnes) {
  CreateDebt();
  obs::Timeline timeline({.window = common::Milliseconds(10)});
  obs::WindowedHistogram& latency = timeline.AddHistogram("latency");
  GovernorConfig config;
  config.slo_budget = common::Milliseconds(5);
  config.low_water_tracks = 0;  // Keep the pressure floor out of the way.
  CompactionGovernor governor(rig_.vld.get(), &timeline, config);
  governor.RegisterTimelineProbes(timeline, "");
  const double duty0 = governor.duty();

  // A violating window: p99 over budget. The next decision must cut the duty and grant 0.
  latency.Record(common::Milliseconds(20));
  rig_.clock.Advance(common::Milliseconds(10));
  timeline.Poll(rig_.clock.Now());
  rig_.clock.Advance(common::Seconds(1));  // Plenty of elapsed time: credit is not the gate.
  EXPECT_EQ(governor.Grant(0), 0);
  EXPECT_EQ(governor.stats().backoffs, 1u);
  EXPECT_LT(governor.duty(), duty0);
  const double backed_off = governor.duty();

  // Clean windows ramp the duty back up and grants resume.
  for (int i = 0; i < 3; ++i) {
    latency.Record(common::Milliseconds(1));
    rig_.clock.Advance(common::Milliseconds(10));
    timeline.Poll(rig_.clock.Now());
  }
  rig_.clock.Advance(common::Seconds(1));
  EXPECT_GT(governor.Grant(0), 0);
  EXPECT_GE(governor.stats().ramps, 3u);
  EXPECT_GT(governor.duty(), backed_off);

  // The governor's own decision series landed on the timeline.
  timeline.Finish(rig_.clock.Now());
  bool saw_decisions = false;
  for (const std::string& name : timeline.counter_names()) {
    saw_decisions = saw_decisions || name == "gov.decisions";
  }
  EXPECT_TRUE(saw_decisions);
  EXPECT_GE(timeline.GaugeIndex("gov.duty_ppm"), 0);
}

TEST_F(GovernorTest, PressureFloorOverridesBackoff) {
  CreateDebt();
  obs::Timeline timeline({.window = common::Milliseconds(10)});
  obs::WindowedHistogram& latency = timeline.AddHistogram("latency");
  GovernorConfig config;
  config.slo_budget = common::Milliseconds(5);
  config.low_water_tracks = 1000;  // Everything is below the floor: starvation imminent.
  CompactionGovernor governor(rig_.vld.get(), &timeline, config);

  latency.Record(common::Milliseconds(20));  // Violating window.
  rig_.clock.Advance(common::Milliseconds(10));
  timeline.Poll(rig_.clock.Now());
  const common::Duration grant = governor.Grant(0);
  EXPECT_GT(grant, 0);
  EXPECT_GE(grant, rig_.vld->compactor().MoveCost());
  EXPECT_EQ(governor.stats().pressure_overrides, 1u);
}

// A credit grant waits until the credit covers one compactor move (a shorter burst would start
// none), and counts each decision it withholds for that reason.
TEST_F(GovernorTest, CreditBelowOneMoveWithholdsTheGrant) {
  CreateDebt();
  rig_.vld->RunGovernedBurst(common::Milliseconds(5));  // Measures a mean move cost.
  const common::Duration move = rig_.vld->compactor().MoveCost();
  ASSERT_GT(move, 0);
  ASSERT_LT(rig_.vld->space().EmptyTrackCount(), 4u);  // Still debt, so grants are about credit.
  GovernorConfig config;
  config.initial_duty = 0.10;
  config.low_water_tracks = 0;  // Exercise the credit path, not the pressure floor.
  CompactionGovernor governor(rig_.vld.get(), nullptr, config);
  ASSERT_EQ(governor.Grant(0), 0);  // First decision only seeds the clock baseline.
  const uint64_t deferred = governor.stats().deferred;
  // Half a move of credit at duty 0.10.
  rig_.clock.Advance(move * 5);
  EXPECT_EQ(governor.Grant(0), 0);
  EXPECT_EQ(governor.stats().deferred, deferred + 1);
  EXPECT_EQ(governor.stats().bursts, 0u);
  // Another 0.6 of a move: the credit covers one move now and is granted whole.
  rig_.clock.Advance(move * 6);
  EXPECT_GE(governor.Grant(0), move);
  EXPECT_EQ(governor.stats().deferred, deferred + 1);
  EXPECT_EQ(governor.stats().bursts, 1u);
}

// A burst cap shorter than one move would leave every credit grant too short to start a move;
// the credit may build up to one move instead.
TEST_F(GovernorTest, CapShorterThanOneMoveStillGrantsOneMove) {
  CreateDebt();
  rig_.vld->RunGovernedBurst(common::Milliseconds(5));
  const common::Duration move = rig_.vld->compactor().MoveCost();
  ASSERT_GT(move, 0);
  GovernorConfig config;
  config.max_burst = move / 4;
  config.low_water_tracks = 0;
  CompactionGovernor governor(rig_.vld.get(), nullptr, config);
  ASSERT_EQ(governor.Grant(0), 0);
  rig_.clock.Advance(common::Seconds(10));
  EXPECT_EQ(governor.Grant(0), move);
}

TEST(GovernedOpenLoopTest, GovernorHoldsFreeTracksWhereUngovernedDeclines) {
  // The mini steady-state-vs-death-spiral pair (the bench runs the long-horizon version):
  // same high-utilization open-loop diurnal workload, with and without the governor. Without
  // background compaction empty fill tracks drain away; the governor holds them at or above
  // its target's neighborhood while arrivals keep coming.
  struct Leg {
    uint64_t empties_before = 0;
    uint64_t empties_after = 0;
    uint64_t tracks_compacted = 0;
  };
  auto run = [](bool governed) {
    common::Clock clock;
    simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 6), &clock);
    VldConfig config;
    config.queue_depth = 16;
    Vld vld(&disk, config);
    EXPECT_TRUE(vld.Format().ok());
    // Prepopulate well below capacity so the device starts with a reserve of empty fill
    // tracks; random updates then open holes everywhere while FillPick drains the reserve.
    const uint32_t region = static_cast<uint32_t>(vld.logical_blocks() * 0.55);
    std::vector<std::byte> payload(4096);
    for (uint32_t b = 0; b < region; ++b) {
      EXPECT_TRUE(vld.Write(static_cast<simdisk::Lba>(b) * 8, payload).ok());
    }
    workload::OpenLoopOptions options;
    options.process = workload::ArrivalProcess::kDiurnal;
    options.rate_ops_per_s = 40;
    options.diurnal_period = common::Seconds(2);
    options.diurnal_amplitude = 0.75;
    // 1100 arrivals at 40/s end the run ~27.5 s in — the back half of a diurnal cycle — so
    // the final reserve is sampled during a trough, after the governor has had arrival gaps
    // to rebuild, not at the instant a peak finished draining it.
    options.arrivals = 1100;
    options.region_blocks = region;
    options.max_batch = 8;
    options.seed = 3;
    // Latency feedback lets the duty cycle ramp during clean windows (and back off if the
    // bursts themselves push p99 over budget) — without it the governor is pinned at its
    // conservative initial duty.
    obs::Timeline timeline(obs::TimelineConfig{.window = common::Milliseconds(200)});
    obs::WindowedHistogram& latency = timeline.AddHistogram("latency");
    GovernorConfig gov_config;
    gov_config.slo_budget = common::Milliseconds(150);
    // Build a deeper reserve than the idle compactor's default target: under continuous load
    // the foreground drains whatever exists, so the governor aims high to keep the trough-time
    // surplus ahead of peak-time consumption.
    gov_config.target_empty_tracks = 8;
    CompactionGovernor governor(&vld, &timeline, gov_config);
    Leg leg;
    leg.empties_before = vld.space().EmptyTrackCount();
    auto result = workload::RunGovernedOpenLoop(vld, options, governed ? &governor : nullptr,
                                                &timeline, &latency);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    leg.empties_after = vld.space().EmptyTrackCount();
    leg.tracks_compacted = vld.compactor().stats().tracks_compacted;
    return leg;
  };
  const Leg with_governor = run(true);
  const Leg without_governor = run(false);
  // The ungoverned leg burns its fill-track reserve down; the governed leg reclaims tracks
  // while arrivals keep coming and ends with a healthier reserve.
  EXPECT_LT(without_governor.empties_after, without_governor.empties_before);
  EXPECT_GT(with_governor.empties_after, without_governor.empties_after);
  EXPECT_GE(with_governor.empties_after, 2u);
  EXPECT_GT(with_governor.tracks_compacted, 0u);
}

}  // namespace
}  // namespace vlog::core
