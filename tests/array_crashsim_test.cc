// Crash sweeps over the 2-member virtual-log array: per-member crash points on the global
// disk-tagged trace, torn member commits, reordered mid-destage subsets on one member while
// the other sits at its barrier, and the array's stitched recovery (striped per-member-group
// atomicity, mirrored replica resync) at every point.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <string>

#include "src/common/status.h"
#include "src/crashsim/array_harness.h"
#include "src/crashsim/crash_point.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/scenarios.h"
#include "src/crashsim/write_trace.h"
#include "tests/crash_sweep_checks.h"

namespace vlog::crashsim {

// Base seed for the randomized sweep parts, and the optional single-ordinal replay — both
// overridable from the command line so the Summary() banner's replay command works verbatim:
//   array_crashsim_test --seed=N --point=K
uint64_t g_sweep_seed = 1;
int64_t g_sweep_point = -1;

namespace {

bool Replaying() { return g_sweep_point >= 0; }

CrashSweepOptions SeededSweepOptions() {
  CrashSweepOptions options;
  options.enumerate.seed = g_sweep_seed;
  options.reorder.seed = g_sweep_seed;
  options.only_ordinal = g_sweep_point;
  return options;
}

// Striped, write-through members: torn/corrupt points cut inside individual member commits,
// including the packed group-commit map writes a cross-disk batch produces on each member.
TEST(ArrayCrashSweepTest, StripedGroupCommitHasNoViolations) {
  ArrayCrashSim sim(CrashSimDiskParams(), CrashSimVldConfig(), CrashSimStripedArrayConfig(),
                    /*member_count=*/2);
  const common::Status recorded = RecordArrayScenario(ArrayScenario::kStripedGroupCommit, sim);
  ASSERT_TRUE(recorded.ok()) << recorded.ToString();
  // The recorded trace really is multi-disk: both members contributed media writes.
  std::set<uint32_t> disks;
  for (size_t i = 0; i < sim.trace().size(); ++i) {
    disks.insert(sim.trace()[i].disk);
  }
  EXPECT_EQ(disks, (std::set<uint32_t>{0, 1}));

  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  std::cout << "[ array ] striped: " << report.Summary() << "\n";
  ExpectGoldenSummary("array/striped-group-commit", report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 100u) << report.Summary();
  EXPECT_GE(report.torn_points, 20u) << report.Summary();
  if (!Replaying()) {
    // No park in the workload: every member recovery takes the scan path.
    EXPECT_EQ(report.park_recoveries, 0u) << report.Summary();
    EXPECT_GT(report.scan_recoveries, 0u) << report.Summary();
  }
}

// Same striped scenario on write-back cached members: kReorder points scramble one member's
// mid-destage writes while the other member's image stays at its last barrier — the "subset of
// the disks torn/reordered" model.
TEST(ArrayCrashSweepTest, StripedCachedDestageHasNoViolations) {
  ArrayCrashSim sim(CrashSimCachedDiskParams(), CrashSimVldConfig(),
                    CrashSimStripedArrayConfig(), /*member_count=*/2);
  const common::Status recorded = RecordArrayScenario(ArrayScenario::kStripedGroupCommit, sim);
  ASSERT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  std::cout << "[ array ] striped-cached: " << report.Summary() << "\n";
  ExpectGoldenSummary("array-cached/striped-group-commit", report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.reorder_points, 50u) << report.Summary();
}

// Mirrored, cached members: crash points that land between the two replica commits leave one
// replica ahead; the stitched recovery's resync must converge both to an all-old-or-all-new
// view without ever rolling back an acknowledged write.
TEST(ArrayCrashSweepTest, MirroredResyncHasNoViolations) {
  ArrayCrashSim sim(CrashSimCachedDiskParams(), CrashSimVldConfig(),
                    CrashSimMirroredArrayConfig(), /*member_count=*/2);
  const common::Status recorded = RecordArrayScenario(ArrayScenario::kMirroredResync, sim);
  ASSERT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  std::cout << "[ array ] mirrored: " << report.Summary() << "\n";
  ExpectGoldenSummary("array-cached/mirrored-resync", report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 100u) << report.Summary();
  EXPECT_GE(report.reorder_points, 30u) << report.Summary();
}

// Negative control: with the members' durability barriers off on write-back caches, the sweep
// must report violations in both modes — proof that the array checks actually run.
TEST(ArrayCrashSweepTest, SweepDetectsMissingBarriers) {
  if (Replaying()) {
    GTEST_SKIP() << "negative control needs the full point sweep, not a --point replay";
  }
  core::VldConfig config = CrashSimVldConfig();
  config.barriers = false;
  for (const ArrayScenario scenario :
       {ArrayScenario::kStripedGroupCommit, ArrayScenario::kMirroredResync}) {
    ArrayCrashSim sim(CrashSimCachedDiskParams(), config,
                      scenario == ArrayScenario::kStripedGroupCommit
                          ? CrashSimStripedArrayConfig()
                          : CrashSimMirroredArrayConfig(),
                      /*member_count=*/2);
    ASSERT_TRUE(RecordArrayScenario(scenario, sim).ok()) << ArrayScenarioName(scenario);
    const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
    std::cout << "[ array ] no-barriers " << ArrayScenarioName(scenario) << ": "
              << report.Summary() << "\n";
    EXPECT_GT(report.reorder_points, 0u) << report.Summary();
    EXPECT_GT(report.violations, 0u)
        << ArrayScenarioName(scenario)
        << ": barrier-less members on write-back caches must fail the sweep\n"
        << report.Summary();
    // Each detail names its point, member and in-flight op, so no two lines may read alike.
    const std::set<std::string> distinct(report.violation_details.begin(),
                                         report.violation_details.end());
    EXPECT_EQ(distinct.size(), report.violation_details.size()) << report.Summary();
  }
}

// The array sweep shards like the single-disk ones: per-member rolling images are rebuilt per
// shard, so the merged report must not depend on the worker count.
TEST(ParallelSweepTest, WorkerCountIsInvisibleInArrayReports) {
  if (Replaying()) {
    GTEST_SKIP() << "determinism comparison needs the full point sweep, not a --point replay";
  }
  ArrayCrashSim sim(CrashSimCachedDiskParams(), CrashSimVldConfig(),
                    CrashSimStripedArrayConfig(), /*member_count=*/2);
  ASSERT_TRUE(RecordArrayScenario(ArrayScenario::kStripedGroupCommit, sim).ok());
  const CrashSweepReport serial = ExpectWorkerCountInvisible(sim, SeededSweepOptions());
  EXPECT_TRUE(serial.ok()) << serial.Summary();
  EXPECT_GT(serial.reorder_points, 0u) << serial.Summary();
}

// Satellite: the failure banner must print a complete replay command — both the seed and the
// ordinal of the first violating point — not just the seed.
TEST(ArrayCrashSweepTest, ViolationSummaryPrintsFullReplayCommand) {
  CrashSweepReport report;
  report.seed = 5;
  CrashPoint point;
  point.ordinal = 7;
  point.kind = CrashKind::kTornPrefix;
  point.keep_sectors = 2;
  report.AddViolation(point, "synthetic violation", 8);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("--seed=5"), std::string::npos) << summary;
  EXPECT_NE(summary.find("--point=7"), std::string::npos) << summary;
}

// Replay narrows the sweep to one ordinal but still enumerates (and counts) every point, so a
// replayed report stays comparable to the failing run's banner.
TEST(ArrayCrashSweepTest, OnlyOrdinalReplaysSinglePoint) {
  ArrayCrashSim sim(CrashSimDiskParams(), CrashSimVldConfig(), CrashSimStripedArrayConfig(),
                    /*member_count=*/2);
  ASSERT_TRUE(RecordArrayScenario(ArrayScenario::kStripedGroupCommit, sim).ok());
  CrashSweepOptions options = SeededSweepOptions();
  options.only_ordinal = 3;
  const CrashSweepReport report = sim.Sweep(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 100u);
  EXPECT_EQ(report.recovery_times.size(), 1u) << "replay must recover exactly one point";
}

}  // namespace
}  // namespace vlog::crashsim

// Custom main so a sweep failure is replayable with the exact command its Summary() prints:
// --seed=N reproduces the point list, --point=K narrows the sweep to the violating ordinal.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      vlog::crashsim::g_sweep_seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--point=", 8) == 0) {
      vlog::crashsim::g_sweep_point = std::strtoll(argv[i] + 8, nullptr, 10);
    }
  }
  return RUN_ALL_TESTS();
}
