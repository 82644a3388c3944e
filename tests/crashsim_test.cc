#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/vld.h"
#include "src/crashsim/crash_point.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/scenarios.h"
#include "src/crashsim/write_trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"
#include "tests/crash_sweep_checks.h"

namespace vlog::crashsim {

// Base seed for the randomized parts of the sweeps (reorder sampling and torn/corrupt variant
// choice) and the optional single-ordinal replay. Overridable with --seed=N --point=K — the
// exact command a failing report's Summary() prints — so a violation replays exactly.
uint64_t g_sweep_seed = 1;
int64_t g_sweep_point = -1;

namespace {

// In --point=K replay mode only one crash point is recovered and checked, so per-recovery
// counters (park/scan/checkpoint tallies) lose their usual floors.
bool Replaying() { return g_sweep_point >= 0; }

constexpr uint32_t kSectorBytes = 512;
constexpr uint32_t kBlockSectors = 8;
constexpr size_t kBlockBytes = kBlockSectors * kSectorBytes;

std::vector<std::byte> Pattern(uint32_t tag, size_t bytes = kBlockBytes) {
  std::vector<std::byte> data(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::byte>((tag * 131u + i * 7u) & 0xFF);
  }
  return data;
}

// ---------------------------------------------------------------------------
// Crash-point enumeration.
// ---------------------------------------------------------------------------

WriteTrace MakeTrace(const std::vector<uint32_t>& sectors_per_write) {
  WriteTrace trace;
  simdisk::Lba lba = 0;
  uint32_t tag = 1;
  for (uint32_t sectors : sectors_per_write) {
    trace.Append(lba, Pattern(tag++, sectors * kSectorBytes));
    lba += sectors;
  }
  return trace;
}

TEST(CrashPointTest, CoversEveryWriteBoundaryAndOnlyTearsMultiSectorWrites) {
  const WriteTrace trace = MakeTrace({1, 4, 1, 8, 1});
  const auto points = EnumerateCrashPoints(trace, kSectorBytes, EnumerateOptions{});

  uint64_t clean = 0, torn = 0, corrupt = 0;
  std::vector<bool> boundary_seen(trace.size() + 1, false);
  uint64_t prev = 0;
  for (const CrashPoint& p : points) {
    EXPECT_GE(p.writes_applied, prev) << "points must be ordered for the rolling sweep";
    prev = p.writes_applied;
    ASSERT_LE(p.writes_applied, trace.size());
    switch (p.kind) {
      case CrashKind::kClean:
        ++clean;
        boundary_seen[p.writes_applied] = true;
        break;
      case CrashKind::kTornPrefix:
      case CrashKind::kTornSuffix:
      case CrashKind::kTornRandom: {
        ++torn;
        ASSERT_LT(p.writes_applied, trace.size());
        const WriteRecord& rec = trace[p.writes_applied];
        EXPECT_GT(rec.Sectors(kSectorBytes), 1u)
            << "torn variants only make sense for multi-sector writes";
        if (p.kind != CrashKind::kTornRandom) {
          EXPECT_GT(p.keep_sectors, 0u);
          EXPECT_LT(p.keep_sectors, rec.Sectors(kSectorBytes));
        }
        break;
      }
      case CrashKind::kCorruptTail:
        ++corrupt;
        break;
      case CrashKind::kReorder:
        FAIL() << "EnumerateCrashPoints must not emit reorder points";
        break;
    }
  }
  for (size_t i = 0; i <= trace.size(); ++i) {
    EXPECT_TRUE(boundary_seen[i]) << "missing clean stop after write " << i;
  }
  EXPECT_GE(torn, 6u);  // Two multi-sector writes, >= 3 variants each.
  EXPECT_GE(corrupt, 1u);
}

TEST(CrashPointTest, TornStrideZeroDisablesTornVariants) {
  const WriteTrace trace = MakeTrace({4, 4, 4});
  EnumerateOptions opts;
  opts.torn_stride = 0;
  opts.corrupt_stride = 0;
  for (const CrashPoint& p : EnumerateCrashPoints(trace, kSectorBytes, opts)) {
    EXPECT_EQ(p.kind, CrashKind::kClean);
  }
}

// ---------------------------------------------------------------------------
// Reorder-point enumeration (write-back traces).
// ---------------------------------------------------------------------------

// A write-back trace with explicit barriers: `layout` lists epoch sizes, and a barrier is
// appended after each epoch except the last.
WriteTrace MakeWriteBackTrace(const std::vector<uint32_t>& epoch_sizes) {
  WriteTrace trace;
  trace.set_write_back(true);
  simdisk::Lba lba = 0;
  uint32_t tag = 1;
  for (size_t e = 0; e < epoch_sizes.size(); ++e) {
    for (uint32_t i = 0; i < epoch_sizes[e]; ++i) {
      trace.Append(lba, Pattern(tag++, kSectorBytes), /*durable=*/false);
      lba += 1;
    }
    if (e + 1 < epoch_sizes.size()) {
      trace.AppendBarrier();
    }
  }
  return trace;
}

// Number of ordered subsets of an n-element set: sum over k of C(n,k)*k!.
uint64_t OrderedSubsets(uint64_t n) {
  uint64_t total = 0;
  for (uint64_t k = 0; k <= n; ++k) {
    uint64_t term = 1;
    for (uint64_t i = 0; i < k; ++i) {
      term *= n - i;
    }
    total += term;
  }
  return total;
}

TEST(ReorderPointTest, ExhaustsEveryOrderedSubsetPerEpoch) {
  const WriteTrace trace = MakeWriteBackTrace({3, 2});
  const auto points = EnumerateReorderPoints(trace, ReorderOptions{});
  // Epochs [0,3) and [3,5): 16 + 5 ordered subsets.
  EXPECT_EQ(points.size(), OrderedSubsets(3) + OrderedSubsets(2));
  std::set<std::pair<uint64_t, std::vector<uint64_t>>> distinct;
  for (const CrashPoint& p : points) {
    EXPECT_EQ(p.kind, CrashKind::kReorder);
    EXPECT_TRUE(p.writes_applied == 0 || p.writes_applied == 3);
    EXPECT_EQ(p.epoch_end, p.writes_applied == 0 ? 3u : 5u);
    std::set<uint64_t> seen;
    for (const uint64_t idx : p.extra) {
      EXPECT_GE(idx, p.writes_applied);
      EXPECT_LT(idx, p.epoch_end);
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate index in one ordering";
    }
    EXPECT_TRUE(distinct.emplace(p.writes_applied, p.extra).second)
        << "duplicate ordering emitted";
  }
}

TEST(ReorderPointTest, ReturnsNothingForWriteThroughTraces) {
  WriteTrace trace = MakeWriteBackTrace({3, 2});
  trace.set_write_back(false);
  EXPECT_TRUE(EnumerateReorderPoints(trace, ReorderOptions{}).empty());
}

TEST(ReorderPointTest, SamplesLargeEpochsDeterministicallyPerSeed) {
  const WriteTrace trace = MakeWriteBackTrace({9});
  ReorderOptions opts;
  opts.seed = 5;
  const auto a = EnumerateReorderPoints(trace, opts);
  const auto b = EnumerateReorderPoints(trace, opts);
  ASSERT_EQ(a.size(), opts.samples_per_epoch);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].extra, b[i].extra) << "sampling must replay exactly for one seed";
    std::set<uint64_t> seen;
    for (const uint64_t idx : a[i].extra) {
      EXPECT_LT(idx, 9u);
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
  opts.seed = 6;
  const auto c = EnumerateReorderPoints(trace, opts);
  bool any_differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_differs = any_differs || a[i].extra != c[i].extra;
  }
  EXPECT_TRUE(any_differs) << "different seeds should draw different orderings";
}

TEST(ReorderPointTest, DurableWritesPersistInEveryOrdering) {
  WriteTrace trace;
  trace.set_write_back(true);
  trace.Append(0, Pattern(1, kSectorBytes), /*durable=*/false);
  trace.Append(1, Pattern(2, kSectorBytes), /*durable=*/true);  // FUA
  trace.Append(2, Pattern(3, kSectorBytes), /*durable=*/false);
  const auto points = EnumerateReorderPoints(trace, ReorderOptions{});
  EXPECT_EQ(points.size(), OrderedSubsets(2));
  for (const CrashPoint& p : points) {
    ASSERT_FALSE(p.extra.empty());
    EXPECT_EQ(p.extra.front(), 1u) << "the durable write must always be applied (first)";
  }
}

// ---------------------------------------------------------------------------
// Scenario sweeps. Together the eight write-through sweeps below must explore
// >= 500 distinct crash points with >= 100 torn-write variants (per-test
// floors sum past that), with zero invariant violations. Every sweep's
// Summary() is also pinned in tests/golden/crash_sweep_summaries.txt.
// ---------------------------------------------------------------------------

CrashSweepOptions SeededSweepOptions() {
  CrashSweepOptions options;
  options.enumerate.seed = g_sweep_seed;
  options.reorder.seed = g_sweep_seed;
  options.only_ordinal = g_sweep_point;
  return options;
}

CrashSweepReport SweepVldScenario(VldScenario scenario) {
  VldCrashSim sim(CrashSimDiskParams(), CrashSimVldConfig());
  const common::Status recorded = RecordVldScenario(scenario, sim);
  EXPECT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  ExpectGoldenSummary(std::string("vld/") + VldScenarioName(scenario), report);
  return report;
}

TEST(CrashSweepTest, UfsOnVldScenarioHasNoViolations) {
  const CrashSweepReport report = SweepVldScenario(VldScenario::kUfsOnVld);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 150u) << report.Summary();
  EXPECT_GE(report.torn_points, 30u) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.park_recoveries, 0u) << report.Summary();
    EXPECT_GT(report.scan_recoveries, 0u) << report.Summary();
  }
}

TEST(CrashSweepTest, CompactorActiveScenarioHasNoViolations) {
  const CrashSweepReport report = SweepVldScenario(VldScenario::kCompactorActive);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 150u) << report.Summary();
  EXPECT_GE(report.torn_points, 30u) << report.Summary();
  // The workload never parks, so every recovery takes the full-disk scan path.
  EXPECT_EQ(report.park_recoveries, 0u) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.scan_recoveries, 0u) << report.Summary();
  }
}

// Governed compaction bursts interleaved with queued group commits: crash points cut bursts
// at their checkpoint, between relocations, and at the mid-track preemption boundary, and the
// recovered device must still expose every acknowledged batch all-old-or-all-new. Failures
// replay with --seed/--point like every sweep here.
TEST(CrashSweepTest, CompactionUnderLoadScenarioHasNoViolations) {
  const CrashSweepReport report = SweepVldScenario(VldScenario::kCompactionUnderLoad);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 150u) << report.Summary();
  EXPECT_GE(report.torn_points, 30u) << report.Summary();
  // The workload never parks, so every recovery takes the full-disk scan path.
  EXPECT_EQ(report.park_recoveries, 0u) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.scan_recoveries, 0u) << report.Summary();
  }
}

TEST(CrashSweepTest, CheckpointInterruptedScenarioHasNoViolations) {
  const CrashSweepReport report = SweepVldScenario(VldScenario::kCheckpointInterrupted);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 100u) << report.Summary();
  EXPECT_GE(report.torn_points, 20u) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.checkpoint_recoveries, 0u) << report.Summary();
  }
}

// Tentpole acceptance: batches of queued writes committing through packed group transactions
// stay all-old-or-all-new per acknowledged batch across every crash point, including tears
// inside the multi-sector packed map write itself.
TEST(CrashSweepTest, QueuedGroupCommitScenarioHasNoViolations) {
  const CrashSweepReport report = SweepVldScenario(VldScenario::kQueuedGroupCommit);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 150u) << report.Summary();
  EXPECT_GE(report.torn_points, 30u) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.park_recoveries, 0u) << report.Summary();
    EXPECT_GT(report.scan_recoveries, 0u) << report.Summary();
  }
}

// Golden trace equality: recording the same scenario twice must produce byte-identical
// traces — every record's address, payload bytes, durability flag, and disk tag, plus the
// barrier positions. This pins the arena-backed payload storage (records
// hold views into the trace's arena, not their own vectors): any aliasing or copy bug in the
// arena shows up here as payload bytes diverging between two identical recordings.
TEST(WriteTraceGolden, SameScenarioRecordsByteIdenticalTraces) {
  VldCrashSim a(CrashSimDiskParams(), CrashSimVldConfig());
  VldCrashSim b(CrashSimDiskParams(), CrashSimVldConfig());
  ASSERT_TRUE(RecordVldScenario(VldScenario::kQueuedGroupCommit, a).ok());
  ASSERT_TRUE(RecordVldScenario(VldScenario::kQueuedGroupCommit, b).ok());
  const WriteTrace& ta = a.trace();
  const WriteTrace& tb = b.trace();
  ASSERT_GT(ta.size(), 50u) << "golden scenario must exercise a real write volume";
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i].lba, tb[i].lba) << "record " << i;
    ASSERT_EQ(ta[i].durable, tb[i].durable) << "record " << i;
    ASSERT_EQ(ta[i].disk, tb[i].disk) << "record " << i;
    ASSERT_EQ(ta[i].data.size(), tb[i].data.size()) << "record " << i;
    ASSERT_EQ(std::memcmp(ta[i].data.data(), tb[i].data.data(), ta[i].data.size()), 0)
        << "payload bytes diverged at record " << i;
  }
  EXPECT_EQ(ta.barriers(), tb.barriers());
  EXPECT_EQ(ta.write_back(), tb.write_back());
}

// Queued reads interleaved with queued writes: reads are verified against the shadow at record
// time (same-batch RAW forwarding, unmapped and freshly-trimmed blocks reading zeros) and are
// recorded as nothing, so a green sweep proves read traffic never dirtied crash-visible state.
TEST(CrashSweepTest, QueuedMixedReadWriteScenarioHasNoViolations) {
  VldCrashSim sim(CrashSimDiskParams(), CrashSimVldConfig());
  const common::Status recorded = RecordVldScenario(VldScenario::kQueuedMixedReadWrite, sim);
  ASSERT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  ExpectGoldenSummary("vld/queued-mixed-read-write", report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 150u) << report.Summary();
  EXPECT_GE(report.torn_points, 30u) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.park_recoveries, 0u) << report.Summary();
    EXPECT_GT(report.scan_recoveries, 0u) << report.Summary();
  }
}

// Satellite (b): the §4.4 LFS stack (log-structured logical disk + fs) running on the VLD, so
// the swept traffic is multi-block segment writes.
TEST(CrashSweepTest, LfsOnVldScenarioHasNoViolations) {
  const CrashSweepReport report = SweepVldScenario(VldScenario::kLfsOnVld);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 100u) << report.Summary();
  EXPECT_GE(report.torn_points, 20u) << report.Summary();
}

TEST(CrashSweepTest, VlfsScenarioHasNoViolations) {
  VlfsCrashSim sim(CrashSimDiskParams(), CrashSimVlfsConfig());
  const common::Status recorded = sim.Record(VlfsScenarioScript());
  ASSERT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  ExpectGoldenSummary("vlfs", report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.points, 100u) << report.Summary();
  EXPECT_GE(report.torn_points, 20u) << report.Summary();
}

// ---------------------------------------------------------------------------
// Reordering-aware sweeps: the same scenarios recorded on a disk with a
// volatile write-back cache. The barrier discipline in the VLD/VLFS must keep
// every invariant across arbitrary admissible destage subsets/orderings.
// Together these sweeps must explore >= 500 reorder points (per-test floors
// sum past that) with zero violations.
// ---------------------------------------------------------------------------

CrashSweepReport SweepCachedVldScenario(VldScenario scenario) {
  VldCrashSim sim(CrashSimCachedDiskParams(), CrashSimVldConfig());
  const common::Status recorded = RecordVldScenario(scenario, sim);
  EXPECT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  std::cout << "[ reorder ] " << VldScenarioName(scenario) << ": " << report.Summary() << "\n";
  ExpectGoldenSummary(std::string("vld-cached/") + VldScenarioName(scenario), report);
  return report;
}

TEST(ReorderSweepTest, UfsOnVldScenarioHasNoViolations) {
  const CrashSweepReport report = SweepCachedVldScenario(VldScenario::kUfsOnVld);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.reorder_points, 100u) << report.Summary();
}

TEST(ReorderSweepTest, CompactorActiveScenarioHasNoViolations) {
  const CrashSweepReport report = SweepCachedVldScenario(VldScenario::kCompactorActive);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.reorder_points, 100u) << report.Summary();
}

TEST(ReorderSweepTest, CompactionUnderLoadScenarioHasNoViolations) {
  const CrashSweepReport report = SweepCachedVldScenario(VldScenario::kCompactionUnderLoad);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.reorder_points, 100u) << report.Summary();
}

TEST(ReorderSweepTest, CheckpointInterruptedScenarioHasNoViolations) {
  const CrashSweepReport report = SweepCachedVldScenario(VldScenario::kCheckpointInterrupted);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.reorder_points, 100u) << report.Summary();
}

TEST(ReorderSweepTest, QueuedGroupCommitScenarioHasNoViolations) {
  const CrashSweepReport report = SweepCachedVldScenario(VldScenario::kQueuedGroupCommit);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.reorder_points, 100u) << report.Summary();
}

// Same mixed scenario on the write-back cached disk: queued reads of cache-dirty extents see
// the volatile acknowledged bytes at record time, and the kReorder sweep then re-verifies the
// write-only op history across destage subsets/orderings — reads must not have perturbed it.
TEST(ReorderSweepTest, QueuedMixedReadWriteScenarioHasNoViolations) {
  const CrashSweepReport report = SweepCachedVldScenario(VldScenario::kQueuedMixedReadWrite);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.reorder_points, 100u) << report.Summary();
}

TEST(ReorderSweepTest, LfsOnVldScenarioHasNoViolations) {
  const CrashSweepReport report = SweepCachedVldScenario(VldScenario::kLfsOnVld);
  EXPECT_TRUE(report.ok()) << report.Summary();
  // The LFS stack batches into few large segment writes, so fewer epochs than the others.
  EXPECT_GE(report.reorder_points, 50u) << report.Summary();
}

TEST(ReorderSweepTest, VlfsScenarioHasNoViolations) {
  VlfsCrashSim sim(CrashSimCachedDiskParams(), CrashSimVlfsConfig());
  const common::Status recorded = sim.Record(VlfsScenarioScript());
  ASSERT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  std::cout << "[ reorder ] vlfs: " << report.Summary() << "\n";
  ExpectGoldenSummary("vlfs-cached", report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.reorder_points, 100u) << report.Summary();
}

// Negative control: with the VLD's durability barriers disabled on a cached disk, the sweep
// must catch real consistency violations — proving the reorder model actually bites and the
// green runs above are meaningful.
TEST(ReorderSweepTest, SweepDetectsMissingBarriers) {
  if (Replaying()) {
    GTEST_SKIP() << "negative control needs the full point sweep, not a --point replay";
  }
  core::VldConfig config = CrashSimVldConfig();
  config.barriers = false;
  VldCrashSim sim(CrashSimCachedDiskParams(), config);
  ASSERT_TRUE(RecordVldScenario(VldScenario::kCheckpointInterrupted, sim).ok());
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  // The violation text is pinned too, so the order of the checks is part of the golden.
  ExpectGoldenSummary("vld-cached-no-barriers/checkpoint-interrupted", report);
  EXPECT_GT(report.reorder_points, 0u) << report.Summary();
  EXPECT_GT(report.violations, 0u)
      << "a barrier-less device on a write-back cache must fail the reorder sweep\n"
      << report.Summary();
}

// ---------------------------------------------------------------------------
// NVM-staged sweeps: the same scenarios with the write-ahead staging tier
// layered over the Vld. At every disk crash point the exact NVM image at that
// cut is reconstructed and the stage recovered over the recovered Vld; all
// content checks read through the stage, so a write acknowledged at NVM
// latency must survive every point or the sweep fails. On top of clean points
// whose final NVM append coincides with the cut, torn-NVM-tail variants are
// synthesized at cache-line granularity — the second axis of the crash-state
// matrix. --seed/--point replay works unchanged.
// ---------------------------------------------------------------------------

CrashSweepReport SweepStagedVldScenario(VldScenario scenario, bool cached = false) {
  VldCrashSim sim(cached ? CrashSimCachedDiskParams() : CrashSimDiskParams(),
                  CrashSimVldConfig());
  sim.EnableStage(CrashSimNvmStageConfig(), CrashSimNvmParams());
  const common::Status recorded = RecordVldScenario(scenario, sim);
  EXPECT_TRUE(recorded.ok()) << recorded.ToString();
  const CrashSweepReport report = sim.Sweep(SeededSweepOptions());
  ExpectGoldenSummary(
      std::string(cached ? "vld-staged-cached/" : "vld-staged/") + VldScenarioName(scenario),
      report);
  return report;
}

// The stage-focused scenario: staged bursts, conflict-inducing direct writes and trims,
// destage pumps, a queued mixed batch, and a staged-residue tail whose acked writes exist
// ONLY in the NVM log when the trace ends.
TEST(NvmStagedSweepTest, NvmStagedWritesScenarioHasNoViolations) {
  const CrashSweepReport report = SweepStagedVldScenario(VldScenario::kNvmStagedWrites);
  EXPECT_TRUE(report.ok()) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.nvm_points, 0u) << report.Summary();
    EXPECT_GT(report.nvm_torn_points, 0u) << report.Summary();
  }
}

// Reorder x stage: the cached disk's destage subsets compose with NVM replay.
TEST(NvmStagedSweepTest, NvmStagedWritesCachedScenarioHasNoViolations) {
  const CrashSweepReport report =
      SweepStagedVldScenario(VldScenario::kNvmStagedWrites, /*cached=*/true);
  EXPECT_TRUE(report.ok()) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.reorder_points, 0u) << report.Summary();
    EXPECT_GT(report.nvm_points, 0u) << report.Summary();
  }
}

// Every pre-existing scenario re-swept with the stage layered on: the staging tier must be
// transparent to UFS, LFS, compaction, checkpoints, and the queued paths alike.
TEST(NvmStagedSweepTest, UfsOnVldStagedHasNoViolations) {
  const CrashSweepReport report = SweepStagedVldScenario(VldScenario::kUfsOnVld);
  EXPECT_TRUE(report.ok()) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.nvm_points, 0u) << report.Summary();
  }
}

TEST(NvmStagedSweepTest, CompactorActiveStagedHasNoViolations) {
  const CrashSweepReport report = SweepStagedVldScenario(VldScenario::kCompactorActive);
  EXPECT_TRUE(report.ok()) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.nvm_points, 0u) << report.Summary();
  }
}

TEST(NvmStagedSweepTest, CompactionUnderLoadStagedHasNoViolations) {
  const CrashSweepReport report = SweepStagedVldScenario(VldScenario::kCompactionUnderLoad);
  EXPECT_TRUE(report.ok()) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.nvm_points, 0u) << report.Summary();
  }
}

TEST(NvmStagedSweepTest, CheckpointInterruptedStagedHasNoViolations) {
  const CrashSweepReport report = SweepStagedVldScenario(VldScenario::kCheckpointInterrupted);
  EXPECT_TRUE(report.ok()) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.nvm_points, 0u) << report.Summary();
  }
}

TEST(NvmStagedSweepTest, QueuedGroupCommitStagedHasNoViolations) {
  const CrashSweepReport report = SweepStagedVldScenario(VldScenario::kQueuedGroupCommit);
  EXPECT_TRUE(report.ok()) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.nvm_points, 0u) << report.Summary();
  }
}

TEST(NvmStagedSweepTest, QueuedMixedReadWriteStagedHasNoViolations) {
  const CrashSweepReport report = SweepStagedVldScenario(VldScenario::kQueuedMixedReadWrite);
  EXPECT_TRUE(report.ok()) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.nvm_points, 0u) << report.Summary();
  }
}

TEST(NvmStagedSweepTest, LfsOnVldStagedHasNoViolations) {
  const CrashSweepReport report = SweepStagedVldScenario(VldScenario::kLfsOnVld);
  EXPECT_TRUE(report.ok()) << report.Summary();
  if (!Replaying()) {
    EXPECT_GT(report.nvm_points, 0u) << report.Summary();
  }
}

// ---------------------------------------------------------------------------
// Parallel-sweep determinism: sharding a sweep across worker threads must be
// invisible in the report. Every crash point's ordinal, image, and variant
// seed are fixed at enumeration time, so the merged report at any worker
// count has to be byte-identical to the serial one — same counters, same
// violation details, same per-point recovery times, same Summary() text.
// ---------------------------------------------------------------------------

TEST(ParallelSweepTest, WorkerCountIsInvisibleInTheReport) {
  if (Replaying()) {
    GTEST_SKIP() << "determinism comparison needs the full point sweep, not a --point replay";
  }
  // Write-back cache so the sweep includes reorder points — the variant kind whose
  // per-point seeding is easiest to get wrong under sharding.
  VldCrashSim sim(CrashSimCachedDiskParams(), CrashSimVldConfig());
  ASSERT_TRUE(RecordVldScenario(VldScenario::kQueuedGroupCommit, sim).ok());
  const CrashSweepReport serial = ExpectWorkerCountInvisible(sim, SeededSweepOptions());
  EXPECT_GT(serial.points, 100u) << serial.Summary();
  EXPECT_TRUE(serial.ok()) << serial.Summary();
}

TEST(ParallelSweepTest, WorkerCountIsInvisibleWhenViolationsFire) {
  if (Replaying()) {
    GTEST_SKIP() << "determinism comparison needs the full point sweep, not a --point replay";
  }
  // The violating negative-control configuration: barrier-less VLD on a cached disk. The
  // details list, first ordinal, and detail truncation must all merge identically, which
  // exercises the report-merge path the all-green test above never reaches.
  core::VldConfig config = CrashSimVldConfig();
  config.barriers = false;
  VldCrashSim sim(CrashSimCachedDiskParams(), config);
  ASSERT_TRUE(RecordVldScenario(VldScenario::kCheckpointInterrupted, sim).ok());
  const CrashSweepReport serial = ExpectWorkerCountInvisible(sim, SeededSweepOptions());
  EXPECT_GT(serial.violations, 0u) << serial.Summary();
}

// Sharding must stay invisible with the staged matrices in play too: the rolling NVM image
// and undo buffer are rebuilt per shard, and the per-point nvm counters merge in ordinal
// order.
TEST(ParallelSweepTest, WorkerCountIsInvisibleInStagedReports) {
  if (Replaying()) {
    GTEST_SKIP() << "determinism comparison needs the full point sweep, not a --point replay";
  }
  VldCrashSim sim(CrashSimDiskParams(), CrashSimVldConfig());
  sim.EnableStage(CrashSimNvmStageConfig(), CrashSimNvmParams());
  ASSERT_TRUE(RecordVldScenario(VldScenario::kNvmStagedWrites, sim).ok());
  const CrashSweepReport serial = ExpectWorkerCountInvisible(sim, SeededSweepOptions());
  EXPECT_TRUE(serial.ok()) << serial.Summary();
  EXPECT_GT(serial.nvm_torn_points, 0u) << serial.Summary();
}

// The VLFS sweep shards the same way: its committed namespace shadow is rebuilt per shard.
// On the cached disk so reorder points are in the mix.
TEST(ParallelSweepTest, WorkerCountIsInvisibleInVlfsReports) {
  if (Replaying()) {
    GTEST_SKIP() << "determinism comparison needs the full point sweep, not a --point replay";
  }
  VlfsCrashSim sim(CrashSimCachedDiskParams(), CrashSimVlfsConfig());
  ASSERT_TRUE(sim.Record(VlfsScenarioScript()).ok());
  const CrashSweepReport serial = ExpectWorkerCountInvisible(sim, SeededSweepOptions());
  EXPECT_TRUE(serial.ok()) << serial.Summary();
  EXPECT_GT(serial.reorder_points, 0u) << serial.Summary();
}

// ---------------------------------------------------------------------------
// Deterministic fault-injection recovery tests: Trim + WriteAtomic
// interleavings, and torn checkpoints (the double-buffer regression).
// ---------------------------------------------------------------------------

class CrashRecoveryTest : public ::testing::Test {
 protected:
  CrashRecoveryTest() { Reset(); }

  void Reset() {
    clock_ = common::Clock();
    disk_ = std::make_unique<simdisk::SimDisk>(CrashSimDiskParams(), &clock_);
    vld_ = std::make_unique<core::Vld>(disk_.get(), CrashSimVldConfig());
    ASSERT_TRUE(vld_->Format().ok());
  }

  // Power-cycle: drop any armed fault and re-attach a fresh instance to the media.
  core::VldRecoveryInfo Reopen() {
    disk_->SetWriteFault(std::nullopt);
    vld_ = std::make_unique<core::Vld>(disk_.get(), CrashSimVldConfig());
    auto info = vld_->Recover();
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ok() ? info.value() : core::VldRecoveryInfo{};
  }

  std::vector<std::byte> ReadBlock(uint32_t block) {
    std::vector<std::byte> out(kBlockBytes);
    EXPECT_TRUE(vld_->Read(static_cast<simdisk::Lba>(block) * kBlockSectors, out).ok());
    return out;
  }

  void WriteBlock(uint32_t block, uint32_t tag) {
    ASSERT_TRUE(
        vld_->Write(static_cast<simdisk::Lba>(block) * kBlockSectors, Pattern(tag)).ok());
  }

  common::Clock clock_;
  std::unique_ptr<simdisk::SimDisk> disk_;
  std::unique_ptr<core::Vld> vld_;
};

TEST_F(CrashRecoveryTest, TrimmedBlockDoesNotResurrectAcrossScanRecovery) {
  WriteBlock(5, 1);
  ASSERT_TRUE(vld_->Trim(5 * kBlockSectors, kBlockSectors).ok());
  const auto info = Reopen();  // No park: recovery must take the scan path.
  EXPECT_TRUE(info.used_scan);
  EXPECT_EQ(ReadBlock(5), std::vector<std::byte>(kBlockBytes, std::byte{0}));
}

TEST_F(CrashRecoveryTest, TrimmedBlockDoesNotResurrectAcrossParkRecovery) {
  WriteBlock(5, 1);
  ASSERT_TRUE(vld_->Trim(5 * kBlockSectors, kBlockSectors).ok());
  ASSERT_TRUE(vld_->Park().ok());
  const auto info = Reopen();
  EXPECT_FALSE(info.used_scan);
  EXPECT_EQ(ReadBlock(5), std::vector<std::byte>(kBlockBytes, std::byte{0}));
}

// Crash a three-extent WriteAtomic after every possible number of completed media writes.
// Every failing cut must leave all three extents at their pre-transaction contents; the first
// non-failing cut means the transaction committed and all three must read the new contents.
TEST_F(CrashRecoveryTest, InterruptedWriteAtomicIsAllOrNothing) {
  constexpr uint32_t kBlocks[] = {1, 120, 300};  // Spread across map pieces.
  bool committed = false;
  uint64_t failing_cuts = 0;
  for (uint64_t cut = 0; cut < 64 && !committed; ++cut) {
    Reset();
    for (uint32_t b : kBlocks) WriteBlock(b, 10 + b);
    const auto d0 = Pattern(100), d1 = Pattern(101), d2 = Pattern(102);
    const core::Vld::AtomicWrite writes[] = {
        {kBlocks[0] * kBlockSectors, d0},
        {kBlocks[1] * kBlockSectors, d1},
        {kBlocks[2] * kBlockSectors, d2},
    };
    disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
        .mode = simdisk::SimDisk::WriteFaultMode::kFailStop, .after_writes = cut});
    const common::Status status = vld_->WriteAtomic(writes);
    Reopen();
    if (status.ok()) {
      committed = true;
      EXPECT_EQ(ReadBlock(kBlocks[0]), d0);
      EXPECT_EQ(ReadBlock(kBlocks[1]), d1);
      EXPECT_EQ(ReadBlock(kBlocks[2]), d2);
    } else {
      ++failing_cuts;
      for (uint32_t b : kBlocks) {
        EXPECT_EQ(ReadBlock(b), Pattern(10 + b)) << "extent " << b << " not rolled back at cut "
                                                 << cut;
      }
    }
  }
  EXPECT_TRUE(committed) << "WriteAtomic never ran to completion within 64 media writes";
  EXPECT_GE(failing_cuts, 3u);  // At least the three data-block writes precede the commit.
}

TEST_F(CrashRecoveryTest, InterruptedAtomicOverTrimmedBlockStaysTrimmed) {
  WriteBlock(7, 1);
  ASSERT_TRUE(vld_->Trim(7 * kBlockSectors, kBlockSectors).ok());
  WriteBlock(9, 2);
  const auto d7 = Pattern(200), d9 = Pattern(201);
  const core::Vld::AtomicWrite writes[] = {
      {7 * kBlockSectors, d7},
      {9 * kBlockSectors, d9},
  };
  // Fail-stop before the commit record: two data-block writes land, the map append does not.
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
      .mode = simdisk::SimDisk::WriteFaultMode::kFailStop, .after_writes = 2});
  EXPECT_FALSE(vld_->WriteAtomic(writes).ok());
  Reopen();
  // The trim must hold: neither the pre-trim contents nor the crashed write may surface.
  EXPECT_EQ(ReadBlock(7), std::vector<std::byte>(kBlockBytes, std::byte{0}));
  EXPECT_EQ(ReadBlock(9), Pattern(2));
}

TEST_F(CrashRecoveryTest, CorruptedCommitRecordRollsBackTransaction) {
  WriteBlock(3, 1);
  const auto d3 = Pattern(300);
  const core::Vld::AtomicWrite writes[] = {{3 * kBlockSectors, d3}};
  // Let the data block land, then corrupt whichever sector carries the commit record; the CRC
  // must reject it during recovery.
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
      .mode = simdisk::SimDisk::WriteFaultMode::kCorruptTail, .after_writes = 1, .seed = 9});
  EXPECT_FALSE(vld_->WriteAtomic(writes).ok());
  Reopen();
  EXPECT_EQ(ReadBlock(3), Pattern(1));
}

// Regression for the double-buffered checkpoint: a crash anywhere inside Checkpoint() must
// leave every acknowledged block readable, whatever mix of checkpoint sectors persisted.
TEST_F(CrashRecoveryTest, CrashAnywhereInsideCheckpointPreservesData) {
  constexpr uint32_t kPrimed = 20;
  bool checkpoint_succeeded = false;
  for (uint64_t cut = 0; cut < 32 && !checkpoint_succeeded; ++cut) {
    Reset();
    for (uint32_t b = 0; b < kPrimed; ++b) WriteBlock(b, b + 1);
    disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
        .mode = simdisk::SimDisk::WriteFaultMode::kFailStop, .after_writes = cut});
    checkpoint_succeeded = vld_->Checkpoint().ok();
    Reopen();
    for (uint32_t b = 0; b < kPrimed; ++b) {
      EXPECT_EQ(ReadBlock(b), Pattern(b + 1)) << "block " << b << " lost at checkpoint cut "
                                              << cut;
    }
    // The recovered instance must still accept writes.
    WriteBlock(kPrimed + 1, 99);
    EXPECT_EQ(ReadBlock(kPrimed + 1), Pattern(99));
  }
  EXPECT_TRUE(checkpoint_succeeded) << "Checkpoint never completed within 32 media writes";
}

// A torn *second* checkpoint must never damage the first one: the previous slot's state has to
// survive, including updates that committed after it.
TEST_F(CrashRecoveryTest, TornSecondCheckpointFallsBackToPreviousState) {
  constexpr uint32_t kPrimed = 12;
  for (uint64_t cut = 0; cut < 8; ++cut) {
    Reset();
    for (uint32_t b = 0; b < kPrimed; ++b) WriteBlock(b, b + 1);
    ASSERT_TRUE(vld_->Checkpoint().ok());
    for (uint32_t b = 0; b < 4; ++b) WriteBlock(b, 50 + b);  // Post-checkpoint updates.
    disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
        .mode = simdisk::SimDisk::WriteFaultMode::kTornPrefix,
        .after_writes = cut,
        .keep_sectors = 2,
        .seed = cut + 1});
    const bool second_ok = vld_->Checkpoint().ok();
    Reopen();
    for (uint32_t b = 0; b < kPrimed; ++b) {
      const uint32_t tag = b < 4 ? 50 + b : b + 1;
      EXPECT_EQ(ReadBlock(b), Pattern(tag))
          << "block " << b << " wrong after torn second checkpoint (cut " << cut
          << ", second checkpoint " << (second_ok ? "acked" : "failed") << ")";
    }
  }
}

}  // namespace
}  // namespace vlog::crashsim

// Custom main so a sweep failure is replayable: rerun with the --seed=N echoed in the failing
// report's summary.
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
