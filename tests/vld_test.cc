#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/crashsim/sweep_driver.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {
namespace {

constexpr size_t kBlockBytes = 4096;
constexpr uint32_t kMapSectorsPerBlock = 8;  // A packed commit's map sectors per block.

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 131 + i * 7));
  }
  return v;
}

// The running device's map invariants, free-space accounting included: live blocks are exactly
// the mapped data blocks plus the live and pinned map blocks.
void ExpectMapInvariants(const Vld& vld) {
  crashsim::CheckMapInvariants(vld, [](const std::string& what) { ADD_FAILURE() << what; });
}

class VldTest : public ::testing::Test {
 protected:
  VldTest() { Reset(); }

  void Reset(VldConfig config = {}) {
    config_ = config;
    clock_ = common::Clock();
    disk_ = std::make_unique<simdisk::SimDisk>(simdisk::Truncated(simdisk::SeagateSt19101(), 3),
                                               &clock_);
    vld_ = std::make_unique<Vld>(disk_.get(), config_);
    ASSERT_TRUE(vld_->Format().ok());
  }

  // Simulates a restart over the same media.
  void Reopen() { vld_ = std::make_unique<Vld>(disk_.get(), config_); }

  VldConfig config_;
  common::Clock clock_;
  std::unique_ptr<simdisk::SimDisk> disk_;
  std::unique_ptr<Vld> vld_;
};

TEST_F(VldTest, ExportsSmallerLogicalSpace) {
  EXPECT_LT(vld_->SectorCount(), disk_->SectorCount());
  EXPECT_GT(vld_->SectorCount(), disk_->SectorCount() * 9 / 10);
  EXPECT_EQ(vld_->SectorBytes(), 512u);
}

TEST_F(VldTest, WriteReadRoundTripBlockAligned) {
  const auto data = Pattern(kBlockBytes, 1);
  ASSERT_TRUE(vld_->Write(0, data).ok());
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VldTest, WriteReadMultiBlock) {
  const auto data = Pattern(kBlockBytes * 5, 2);
  ASSERT_TRUE(vld_->Write(64, data).ok());
  std::vector<std::byte> out(kBlockBytes * 5);
  ASSERT_TRUE(vld_->Read(64, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VldTest, SubBlockWriteMergesWithExisting) {
  ASSERT_TRUE(vld_->Write(0, Pattern(kBlockBytes, 3)).ok());
  const auto small = Pattern(512, 4);
  ASSERT_TRUE(vld_->Write(2, small).ok());  // One sector inside the block.
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(0, out).ok());
  auto expect = Pattern(kBlockBytes, 3);
  std::memcpy(expect.data() + 2 * 512, small.data(), 512);
  EXPECT_EQ(out, expect);
  EXPECT_GE(vld_->stats().read_modify_writes, 1u);
}

TEST_F(VldTest, UnalignedSpanningWrite) {
  const auto data = Pattern(512 * 12, 5);  // Sectors 5..16: spans three blocks, ragged edges.
  ASSERT_TRUE(vld_->Write(5, data).ok());
  std::vector<std::byte> out(512 * 12);
  ASSERT_TRUE(vld_->Read(5, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VldTest, UnmappedReadsReturnZeros) {
  std::vector<std::byte> out(kBlockBytes, std::byte{0xFF});
  ASSERT_TRUE(vld_->Read(800, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(kBlockBytes));
  EXPECT_GE(vld_->stats().unmapped_reads, 1u);
}

TEST_F(VldTest, OverwriteMonitoringFreesOldBlocks) {
  const uint64_t baseline = vld_->space().live_blocks();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(vld_->Write(0, Pattern(kBlockBytes, i)).ok());
  }
  // One data block + one live map sector regardless of 50 overwrites (plus pinned slack).
  EXPECT_LE(vld_->space().live_blocks(), baseline + 2 + vld_->vlog().PinnedCount());
}

TEST_F(VldTest, RejectsBadRanges) {
  EXPECT_FALSE(vld_->Write(vld_->SectorCount(), Pattern(512, 0)).ok());
  std::vector<std::byte> ragged(100);
  EXPECT_FALSE(vld_->Read(0, ragged).ok());
  // Every entry point rejects an extent whose end wraps past 2^64, before touching anything.
  const simdisk::Lba wrap = std::numeric_limits<simdisk::Lba>::max() - 3;  // 8 sectors wrap.
  const auto block = Pattern(kBlockBytes, 1);
  std::vector<std::byte> out(kBlockBytes);
  const auto invalid = common::StatusCode::kInvalidArgument;
  EXPECT_EQ(vld_->Read(wrap, out).code(), invalid);
  EXPECT_EQ(vld_->Write(wrap, block).code(), invalid);
  EXPECT_EQ(vld_->Trim(wrap, 8).code(), invalid);
  EXPECT_EQ(vld_->SubmitRead(wrap, 8).status().code(), invalid);
  EXPECT_EQ(vld_->SubmitWrite(wrap, block).status().code(), invalid);
  // WriteAtomic wants block-aligned extents: the last aligned LBA wraps too.
  const std::vector<Vld::AtomicWrite> atomic = {{wrap - 4, block}};
  EXPECT_EQ(vld_->WriteAtomic(atomic).code(), invalid);
  EXPECT_EQ(vld_->QueuedRequests(), 0u);
  // In-range extents behave as before, an empty Trim included.
  EXPECT_TRUE(vld_->Trim(0, 0).ok());
  EXPECT_TRUE(vld_->Write(vld_->SectorCount() - 8, block).ok());
  EXPECT_EQ(vld_->Write(vld_->SectorCount() - 4, block).code(), invalid);
}

TEST_F(VldTest, EagerWriteIsFasterThanHalfRotation) {
  // Prime the head position.
  ASSERT_TRUE(vld_->Write(0, Pattern(kBlockBytes, 0)).ok());
  const auto start = clock_.Now();
  ASSERT_TRUE(vld_->Write(8, Pattern(kBlockBytes, 1)).ok());
  const auto latency = clock_.Now() - start;
  // SCSI 0.1ms + locate (tiny) + 2 transfers (4KB data + map sector). Half rotation alone
  // would be 3 ms.
  EXPECT_LT(latency, common::Milliseconds(1.5));
}

TEST_F(VldTest, ParkRecoverPreservesData) {
  std::vector<std::pair<simdisk::Lba, std::vector<std::byte>>> writes;
  common::Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const simdisk::Lba lba = rng.Below(vld_->SectorCount() / 8) * 8;
    auto data = Pattern(kBlockBytes, 100 + i);
    ASSERT_TRUE(vld_->Write(lba, data).ok());
    writes.emplace_back(lba, std::move(data));
  }
  ASSERT_TRUE(vld_->Park().ok());
  Reopen();
  auto info = vld_->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->used_scan);
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    std::vector<std::byte> out(kBlockBytes);
    ASSERT_TRUE(vld_->Read(it->first, out).ok());
    // Later writes may have overwritten earlier ones at the same LBA; check only latest.
    bool is_latest = true;
    for (auto later = writes.rbegin(); later != it; ++later) {
      is_latest &= later->first != it->first;
    }
    if (is_latest) {
      EXPECT_EQ(out, it->second) << "lba " << it->first;
    }
  }
}

TEST_F(VldTest, CrashRecoveryViaScanPreservesCommittedWrites) {
  ASSERT_TRUE(vld_->Write(16, Pattern(kBlockBytes, 6)).ok());
  ASSERT_TRUE(vld_->Write(24, Pattern(kBlockBytes, 7)).ok());
  Reopen();  // No park.
  auto info = vld_->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->used_scan);
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(16, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 6));
  ASSERT_TRUE(vld_->Read(24, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 7));
}

TEST_F(VldTest, WriteAtomicAllOrNothing) {
  ASSERT_TRUE(vld_->Write(0, Pattern(kBlockBytes, 1)).ok());
  // A multi-extent atomic write far enough apart to touch two map pieces.
  const simdisk::Lba second = (vld_->logical_blocks() - 4) / 8 * 8 * 8;
  ASSERT_TRUE(vld_->Write(second, Pattern(kBlockBytes, 2)).ok());

  const auto a = Pattern(kBlockBytes, 10);
  const auto b = Pattern(kBlockBytes, 11);
  std::vector<Vld::AtomicWrite> writes;
  writes.push_back({0, a});
  writes.push_back({second, b});
  ASSERT_TRUE(vld_->WriteAtomic(writes).ok());
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(0, out).ok());
  EXPECT_EQ(out, a);
  ASSERT_TRUE(vld_->Read(second, out).ok());
  EXPECT_EQ(out, b);
}

TEST_F(VldTest, InterruptedAtomicWriteRollsBack) {
  ASSERT_TRUE(vld_->Write(0, Pattern(kBlockBytes, 1)).ok());
  const simdisk::Lba second = (vld_->logical_blocks() - 4) / 8 * 8 * 8;
  ASSERT_TRUE(vld_->Write(second, Pattern(kBlockBytes, 2)).ok());

  // The two data blocks land, then the commit's one map write tears: only the first of its
  // two map sectors reaches the disk.
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
      .mode = simdisk::SimDisk::WriteFaultMode::kTornPrefix, .after_writes = 2, .keep_sectors = 1});
  std::vector<Vld::AtomicWrite> writes;
  const auto a = Pattern(kBlockBytes, 10);
  const auto b = Pattern(kBlockBytes, 11);
  writes.push_back({0, a});
  writes.push_back({second, b});
  EXPECT_FALSE(vld_->WriteAtomic(writes).ok());
  disk_->SetWriteFault(std::nullopt);

  Reopen();
  auto info = vld_->Recover();
  ASSERT_TRUE(info.ok());
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 1)) << "partial transaction must roll back";
  ASSERT_TRUE(vld_->Read(second, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 2));
}

TEST_F(VldTest, TrimFreesBlocks) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(vld_->Write(i * 8, Pattern(kBlockBytes, i)).ok());
  }
  const uint64_t live = vld_->space().live_blocks();
  ASSERT_TRUE(vld_->Trim(0, 40).ok());  // Blocks 0..4.
  EXPECT_EQ(vld_->stats().trims, 5u);
  EXPECT_LE(vld_->space().live_blocks(), live - 5 + 1);  // -5 data, +<=1 map churn.
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(0, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(kBlockBytes));  // Trimmed reads as zeros.
  ASSERT_TRUE(vld_->Read(5 * 8, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 5));  // Untrimmed survives.
}

TEST_F(VldTest, TrimSurvivesRecovery) {
  ASSERT_TRUE(vld_->Write(0, Pattern(kBlockBytes, 9)).ok());
  ASSERT_TRUE(vld_->Trim(0, 8).ok());
  ASSERT_TRUE(vld_->Park().ok());
  Reopen();
  ASSERT_TRUE(vld_->Recover().ok());
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(0, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(kBlockBytes));
}

TEST_F(VldTest, CompactorCreatesEmptyTracksDuringIdle) {
  // Fill a swath of the disk, then punch holes so tracks are partially utilized.
  const uint32_t blocks = vld_->logical_blocks() * 3 / 4;
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(vld_->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(kBlockBytes, b)).ok());
  }
  common::Rng rng(5);
  for (uint32_t b = 0; b < blocks; b += 2) {
    ASSERT_TRUE(vld_->Trim(static_cast<simdisk::Lba>(b) * 8, 8).ok());
  }
  auto empty_tracks = [&] {
    uint64_t n = 0;
    for (uint64_t t = 0; t < vld_->space().total_tracks(); ++t) {
      n += vld_->space().TrackEmpty(t) ? 1 : 0;
    }
    return n;
  };
  const uint64_t before = empty_tracks();
  vld_->RunIdle(common::Seconds(2));
  EXPECT_GT(empty_tracks(), before);
  EXPECT_GT(vld_->compactor().stats().tracks_compacted, 0u);
  // Compaction must preserve every surviving block's contents.
  std::vector<std::byte> out(kBlockBytes);
  for (uint32_t b = 1; b < blocks; b += 2) {
    ASSERT_TRUE(vld_->Read(static_cast<simdisk::Lba>(b) * 8, out).ok());
    ASSERT_EQ(out, Pattern(kBlockBytes, b)) << "block " << b;
  }
}

TEST_F(VldTest, CompactionSurvivesRecovery) {
  const uint32_t blocks = vld_->logical_blocks() / 2;
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(vld_->Write(static_cast<simdisk::Lba>(b) * 8, Pattern(kBlockBytes, b)).ok());
  }
  for (uint32_t b = 0; b < blocks; b += 3) {
    ASSERT_TRUE(vld_->Trim(static_cast<simdisk::Lba>(b) * 8, 8).ok());
  }
  vld_->RunIdle(common::Seconds(1));
  Reopen();  // Crash right after compaction.
  ASSERT_TRUE(vld_->Recover().ok());
  std::vector<std::byte> out(kBlockBytes);
  for (uint32_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(vld_->Read(static_cast<simdisk::Lba>(b) * 8, out).ok());
    if (b % 3 == 0) {
      ASSERT_EQ(out, std::vector<std::byte>(kBlockBytes)) << "block " << b;
    } else {
      ASSERT_EQ(out, Pattern(kBlockBytes, b)) << "block " << b;
    }
  }
}

// Idle time checkpoints only once pins pile up past half the valve's limit: a checkpoint
// rewrites every piece its slot is missing, and a few pins keep no more than their own tracks
// from compaction.
TEST(VldIdleCheckpointTest, CheckpointsOnlyAboveHalfThePinnedSectorValve) {
  for (const bool governed : {false, true}) {
    // With 163 map pieces, random sync overwrites pile up more than half the valve's 64 pins
    // within a few hundred writes, while nearly every track is still empty.
    common::Clock clock;
    simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 100), &clock);
    Vld vld(&disk);
    ASSERT_TRUE(vld.Format().ok());
    const size_t half = vld.vlog().config().pinned_limit / 2;
    const uint32_t blocks = vld.logical_blocks();
    common::Rng rng(5);
    // Random overwrites pin map sectors; write until `done` holds for the pinned count.
    auto write_until = [&](auto done) {
      for (int i = 0; i < 20000 && !done(vld.vlog().PinnedCount()); ++i) {
        const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
        ASSERT_TRUE(vld.Write(static_cast<simdisk::Lba>(b) * 8, Pattern(kBlockBytes, b)).ok());
      }
    };
    auto idle = [&] {
      // Plenty of empty tracks remain, so the compactor has nothing to do: only the
      // checkpoint decision is under test.
      if (governed) {
        vld.RunGovernedBurst(common::Milliseconds(5));
      } else {
        vld.RunIdle(common::Milliseconds(5));
      }
    };
    write_until([&](size_t pinned) { return pinned == half; });
    ASSERT_EQ(vld.vlog().PinnedCount(), half);
    ASSERT_GE(vld.space().EmptyTrackCount(), vld.target_empty_tracks());
    const uint64_t checkpoints = vld.vlog().stats().checkpoints;
    idle();
    EXPECT_EQ(vld.vlog().stats().checkpoints, checkpoints) << "governed " << governed;
    EXPECT_EQ(vld.vlog().PinnedCount(), half);

    write_until([&](size_t pinned) { return pinned > half; });
    ASSERT_GT(vld.vlog().PinnedCount(), half);
    ASSERT_EQ(vld.vlog().stats().auto_checkpoints, 0u);
    idle();
    EXPECT_EQ(vld.vlog().stats().checkpoints, checkpoints + 1) << "governed " << governed;
    EXPECT_EQ(vld.vlog().PinnedCount(), 0u);
  }
}

TEST_F(VldTest, CheckpointShrinksRecoveryWork) {
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(vld_->Write((i % 30) * 8, Pattern(kBlockBytes, i)).ok());
  }
  ASSERT_TRUE(vld_->Checkpoint().ok());
  ASSERT_TRUE(vld_->Write(0, Pattern(kBlockBytes, 999)).ok());
  ASSERT_TRUE(vld_->Park().ok());
  Reopen();
  auto info = vld_->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->from_checkpoint);
  EXPECT_LE(info->log_sectors_read, 5u);
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 999));
  ASSERT_TRUE(vld_->Read(8, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 31));
}

// Property test: random block writes, trims, idle compaction, and crashes (parked or not) must
// always read back exactly what a shadow byte array says.
TEST_F(VldTest, RandomizedWorkloadWithCrashesMatchesShadow) {
  common::Rng rng(424242);
  const uint32_t blocks = vld_->logical_blocks();
  std::vector<std::vector<std::byte>> shadow(blocks);  // Empty = unwritten/trimmed.
  uint32_t version = 0;

  for (int round = 0; round < 8; ++round) {
    const int ops = 20 + static_cast<int>(rng.Below(60));
    for (int i = 0; i < ops; ++i) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
      const double dice = rng.NextDouble();
      if (dice < 0.70) {
        auto data = Pattern(kBlockBytes, ++version);
        ASSERT_TRUE(vld_->Write(static_cast<simdisk::Lba>(b) * 8, data).ok());
        shadow[b] = std::move(data);
      } else if (dice < 0.85) {
        ASSERT_TRUE(vld_->Trim(static_cast<simdisk::Lba>(b) * 8, 8).ok());
        shadow[b].clear();
      } else {
        vld_->RunIdle(common::Milliseconds(50));
      }
    }
    const bool clean = rng.Chance(0.5);
    if (clean) {
      ASSERT_TRUE(vld_->Park().ok());
    }
    Reopen();
    auto info = vld_->Recover();
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->used_scan, !clean);
    std::vector<std::byte> out(kBlockBytes);
    for (uint32_t b = 0; b < blocks; ++b) {
      ASSERT_TRUE(vld_->Read(static_cast<simdisk::Lba>(b) * 8, out).ok());
      if (shadow[b].empty()) {
        ASSERT_EQ(out, std::vector<std::byte>(kBlockBytes)) << "round " << round << " b " << b;
      } else {
        ASSERT_EQ(out, shadow[b]) << "round " << round << " block " << b;
      }
    }
  }
}

// --- Queued write engine (SubmitWrite / FlushQueue) ---

// A single queued write must cost exactly what the synchronous path costs: same clock advance,
// same readback. This is the depth-1 identity the tier-1 numbers rely on.
TEST_F(VldTest, QueuedDepthOneLatencyMatchesSyncWrite) {
  const auto data = Pattern(kBlockBytes, 42);

  ASSERT_TRUE(vld_->Write(640, Pattern(kBlockBytes, 1)).ok());
  const common::Time sync_start = clock_.Now();
  ASSERT_TRUE(vld_->Write(800, data).ok());
  const common::Duration sync_cost = clock_.Now() - sync_start;

  // Re-run on a fresh device with the same warm-up so the arm starts identically.
  Reset(config_);
  ASSERT_TRUE(vld_->Write(640, Pattern(kBlockBytes, 1)).ok());
  const common::Time q_start = clock_.Now();
  ASSERT_TRUE(vld_->SubmitWrite(800, data).ok());
  auto done = vld_->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 1u);
  EXPECT_EQ(clock_.Now() - q_start, sync_cost);
  EXPECT_EQ((*done)[0].Latency(), sync_cost);

  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(800, out).ok());
  EXPECT_EQ(out, data);
}

// A full queue's map entries commit in one packed transaction: 8 requests cost 8 data-block
// writes plus a single one-block log write, versus 16 media writes synchronously.
TEST_F(VldTest, GroupCommitUsesFewerLogWrites) {
  const uint64_t before_sync = disk_->stats().write_requests;
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->Write(i * 8, Pattern(kBlockBytes, i)).ok());
  }
  const uint64_t sync_writes = disk_->stats().write_requests - before_sync;

  Reset(config_);
  const uint64_t before_q = disk_->stats().write_requests;
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->SubmitWrite(i * 8, Pattern(kBlockBytes, i)).ok());
  }
  auto done = vld_->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 8u);
  const uint64_t queued_writes = disk_->stats().write_requests - before_q;

  EXPECT_EQ(sync_writes, 16u);   // Per request: data block + map sector.
  EXPECT_EQ(queued_writes, 9u);  // 8 data blocks + one packed log block.
  EXPECT_EQ(vld_->stats().group_commits, 1u);
  EXPECT_EQ(vld_->stats().queued_writes, 8u);
  EXPECT_EQ(vld_->stats().host_writes, 8u);

  std::vector<std::byte> out(kBlockBytes);
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->Read(i * 8, out).ok());
    EXPECT_EQ(out, Pattern(kBlockBytes, i));
  }
}

// Queued writes cost less than the same writes issued synchronously: the batch shares one map
// commit and pipelines its controller overhead behind the media, so on the same fresh device
// eight queued writes finish before eight synchronous ones do.
TEST_F(VldTest, QueuedBatchFinishesBeforeTheSameSyncWrites) {
  const common::Time sync_start = clock_.Now();
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->Write(i * 8, Pattern(kBlockBytes, i)).ok());
  }
  const common::Duration sync_elapsed = clock_.Now() - sync_start;

  Reset(config_);
  const common::Time queued_start = clock_.Now();
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->SubmitWrite(i * 8, Pattern(kBlockBytes, i)).ok());
  }
  auto done = vld_->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 8u);
  const common::Duration queued_elapsed = clock_.Now() - queued_start;
  EXPECT_LT(queued_elapsed, sync_elapsed);
  for (const Vld::QueuedCompletion& c : *done) {
    EXPECT_LT(c.Latency(), sync_elapsed) << "request " << c.id;
  }
}

// The allocator prices every block it places at what the disk then charges the block's write,
// so on a write-through disk the estimated positioning of sync writes, and of queued batches
// whose group commits span two blocks or more, sums to the positioning the disk charged.
// Operations that took a checkpoint are left out of both sums: the allocator does not place
// checkpoint sectors.
TEST_F(VldTest, EstimatedLocateSumsToTheChargedLocate) {
  for (const bool compactor : {false, true}) {
    Reset(VldConfig{.compactor_enabled = compactor, .queue_depth = 32});
    common::Rng rng(11);
    const uint32_t pieces = vld_->logical_blocks() / kEntriesPerSector;
    ASSERT_GE(pieces, kMapSectorsPerBlock + 4);
    common::Duration estimated = 0;
    common::Duration charged = 0;
    int measured = 0;
    const auto measure = [&](const auto& op) {
      const common::Duration est = vld_->allocator().stats().estimated_locate;
      const common::Duration loc = disk_->stats().breakdown.locate;
      const uint64_t checkpoints = vld_->vlog().stats().checkpoints;
      op();
      if (vld_->vlog().stats().checkpoints == checkpoints) {
        estimated += vld_->allocator().stats().estimated_locate - est;
        charged += disk_->stats().breakdown.locate - loc;
        ++measured;
      }
    };
    const auto any_block = [&] {
      return static_cast<simdisk::Lba>(rng.Below(vld_->logical_blocks() - 1)) * 8;
    };
    for (int round = 0; round < 60; ++round) {
      clock_.Advance(static_cast<common::Duration>(rng.Below(common::Milliseconds(20))));
      measure([&] {
        ASSERT_TRUE(vld_->Write(any_block(), Pattern(2 * kBlockBytes, round)).ok());
      });
      // One write into each of the first pieces (a random block within it), so the batch's
      // group commit writes two map blocks.
      measure([&] {
        const uint32_t writes = kMapSectorsPerBlock + 1 + static_cast<uint32_t>(rng.Below(4));
        for (uint32_t piece = 0; piece < writes; ++piece) {
          const uint64_t block = piece * kEntriesPerSector + rng.Below(kEntriesPerSector);
          ASSERT_TRUE(vld_->SubmitWrite(block * 8, Pattern(kBlockBytes, round + piece)).ok());
        }
        ASSERT_TRUE(vld_->FlushQueue().ok());
      });
    }
    EXPECT_GT(measured, 100) << "compactor " << compactor;
    EXPECT_GT(charged, 0);
    EXPECT_EQ(estimated, charged) << "compactor " << compactor;
  }
}

TEST_F(VldTest, SubmitWriteRejectsWhenQueueFull) {
  for (uint32_t i = 0; i < vld_->queue_depth(); ++i) {
    ASSERT_TRUE(vld_->SubmitWrite(i * 8, Pattern(kBlockBytes, i)).ok());
  }
  auto overflow = vld_->SubmitWrite(512, Pattern(kBlockBytes, 99));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), common::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(vld_->FlushQueue().ok());
  EXPECT_EQ(vld_->QueuedWrites(), 0u);
  EXPECT_TRUE(vld_->SubmitWrite(512, Pattern(kBlockBytes, 99)).ok());
}

TEST_F(VldTest, FlushEmptyQueueIsFreeNoOp) {
  const common::Time before = clock_.Now();
  auto done = vld_->FlushQueue();
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->empty());
  EXPECT_EQ(clock_.Now(), before);
}

TEST_F(VldTest, QueuedCompletionsShareGroupCommitTimestamp) {
  const common::Time base = clock_.Now();
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(vld_->SubmitWrite(i * 8, Pattern(kBlockBytes, i)).ok());
    clock_.Advance(common::Milliseconds(1));  // Stagger the arrivals.
  }
  auto done = vld_->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 6u);
  for (size_t i = 0; i < done->size(); ++i) {
    // Every request is acknowledged only when the shared map commit is durable.
    EXPECT_EQ((*done)[i].complete_time, (*done)[0].complete_time);
    EXPECT_EQ((*done)[i].submit_time, base + common::Milliseconds(1) * static_cast<int64_t>(i));
    EXPECT_GT((*done)[i].Latency(), 0);
  }
}

TEST_F(VldTest, QueuedBatchSurvivesCrashScan) {
  ASSERT_TRUE(vld_->Write(0, Pattern(kBlockBytes, 1)).ok());
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->SubmitWrite(64 + i * 8, Pattern(kBlockBytes, 20 + i)).ok());
  }
  ASSERT_TRUE(vld_->FlushQueue().ok());
  Reopen();  // Crash: no park.
  auto info = vld_->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->used_scan);
  std::vector<std::byte> out(kBlockBytes);
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->Read(64 + i * 8, out).ok());
    EXPECT_EQ(out, Pattern(kBlockBytes, 20 + i)) << "queued write " << i;
  }
}

// A sync write whose blocks span two map pieces commits both in one map write, like a queued
// batch: logical blocks 103 and 104 sit in pieces 0 and 1.
TEST_F(VldTest, WriteAcrossAPieceBoundaryMakesOneMapWrite) {
  ASSERT_EQ(kEntriesPerSector, 104u);
  const uint64_t writes_before = disk_->stats().write_requests;
  const uint64_t appends_before = vld_->vlog().stats().appends;
  const auto data = Pattern(2 * kBlockBytes, 5);
  ASSERT_TRUE(vld_->Write(103 * 8, data).ok());
  EXPECT_EQ(vld_->vlog().stats().appends - appends_before, 2u);
  EXPECT_EQ(disk_->stats().write_requests - writes_before, 3u) << "two data blocks, one map";
  EXPECT_EQ(vld_->vlog().stats().packed_transactions, 1u);
  std::vector<std::byte> out(2 * kBlockBytes);
  ASSERT_TRUE(vld_->Read(103 * 8, out).ok());
  EXPECT_EQ(out, data);
}

// A group commit whose map write fails leaves the log as it was: the sync write acknowledged
// before it survives Park and Recover, and the failed batch reads all-old.
TEST_F(VldTest, FailedGroupCommitKeepsEarlierWritesAcrossPark) {
  const simdisk::Lba far = (vld_->logical_blocks() - 4) / 8 * 8 * 8;
  ASSERT_TRUE(vld_->Write(0, Pattern(kBlockBytes, 1)).ok());
  ASSERT_TRUE(vld_->SubmitWrite(8, Pattern(kBlockBytes, 2)).ok());
  ASSERT_TRUE(vld_->SubmitWrite(far, Pattern(kBlockBytes, 3)).ok());
  // Both data blocks land; the packed map write is cut by a fail-stop fault.
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{.after_writes = 2});
  EXPECT_FALSE(vld_->FlushQueue().ok());
  disk_->SetWriteFault(std::nullopt);
  ExpectMapInvariants(*vld_);
  ASSERT_TRUE(vld_->Park().ok());
  Reopen();
  auto info = vld_->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->used_scan);
  EXPECT_EQ(info->mapped_blocks, 1u);
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld_->Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 1)) << "the acknowledged write must survive";
  ASSERT_TRUE(vld_->Read(8, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(kBlockBytes));
  ASSERT_TRUE(vld_->Read(far, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(kBlockBytes));
  ExpectMapInvariants(*vld_);
}

// Tear the packed map-block write: none of the batch's requests may be half-visible — the
// whole group rolls back (it was never acknowledged). The batch's blocks are spaced one map
// piece apart (kEntriesPerSector blocks) so its 8 map sectors genuinely pack into one
// multi-sector (tearable) block write.
TEST_F(VldTest, TornGroupCommitRollsBackWholeBatch) {
  auto lba_of = [](uint32_t i) {
    return static_cast<simdisk::Lba>(i) * (kEntriesPerSector + 6) * 8;
  };
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->Write(lba_of(i), Pattern(kBlockBytes, i)).ok());
  }
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->SubmitWrite(lba_of(i), Pattern(kBlockBytes, 40 + i)).ok());
  }
  // 8 data-block writes succeed, then the single packed log write tears mid-block.
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
      .mode = simdisk::SimDisk::WriteFaultMode::kTornPrefix,
      .after_writes = 8,
      .keep_sectors = 3});
  EXPECT_FALSE(vld_->FlushQueue().ok());
  disk_->SetWriteFault(std::nullopt);
  Reopen();
  auto info = vld_->Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->discarded_txn_sectors, 1u);
  std::vector<std::byte> out(kBlockBytes);
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(vld_->Read(lba_of(i), out).ok());
    EXPECT_EQ(out, Pattern(kBlockBytes, i)) << "block " << i << " must keep its old version";
  }
}

// An overwrite that runs out of space while staging must give back the blocks it already
// staged: otherwise they stay live with nothing mapping them, and the device refuses every
// later write.
TEST(VldFailedWriteTest, OutOfSpaceOverwriteLeavesNoStagedBlocksLive) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 4), &clock);
  Vld vld(&disk, VldConfig{.compactor_enabled = false});
  ASSERT_TRUE(vld.Format().ok());
  constexpr uint32_t kExtentBlocks = 64;
  for (uint32_t b = 0; b < 10 * kExtentBlocks; b += kExtentBlocks) {
    ASSERT_TRUE(vld.Write(b * 8, Pattern(kExtentBlocks * kBlockBytes, b)).ok()) << "block " << b;
  }
  const auto rewrite = Pattern(kExtentBlocks * kBlockBytes, 99);
  EXPECT_EQ(vld.Write(0, rewrite).code(), common::StatusCode::kOutOfSpace);
  ExpectMapInvariants(vld);
  // The failed overwrite left blocks 0-63 as they were.
  std::vector<std::byte> out(kExtentBlocks * kBlockBytes);
  ASSERT_TRUE(vld.Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kExtentBlocks * kBlockBytes, 0));
  // And the device still takes a write that fits.
  ASSERT_TRUE(vld.Write(0, Pattern(kBlockBytes, 7)).ok());
  ExpectMapInvariants(vld);
}

// The queued twin: a batch that runs out of space while staging is dropped whole, freeing what
// it staged and ending its requests' spans.
TEST(VldFailedWriteTest, OutOfSpaceQueuedOverwriteLeavesNoStagedBlocksLive) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 4), &clock);
  obs::TraceRecorder tracer(&clock);
  disk.set_tracer(&tracer);
  Vld vld(&disk, VldConfig{.compactor_enabled = false, .queue_depth = 64});
  ASSERT_TRUE(vld.Format().ok());
  constexpr uint32_t kExtentBlocks = 64;
  const auto submit_extent = [&](uint32_t first_block, uint32_t seed) {
    for (uint32_t b = first_block; b < first_block + kExtentBlocks; ++b) {
      ASSERT_TRUE(vld.SubmitWrite(b * 8, Pattern(kBlockBytes, seed + b)).ok());
    }
  };
  for (uint32_t b = 0; b < 10 * kExtentBlocks; b += kExtentBlocks) {
    submit_extent(b, 0);
    ASSERT_TRUE(vld.FlushQueue().ok()) << "block " << b;
  }
  submit_extent(0, 99);
  EXPECT_EQ(vld.FlushQueue().status().code(), common::StatusCode::kOutOfSpace);
  EXPECT_EQ(vld.QueuedRequests(), 0u);
  ExpectMapInvariants(vld);
  for (const obs::TraceRecorder::Span& span : tracer.spans()) {
    EXPECT_FALSE(span.open);
  }
  // The failed batch left extent 0 as it was.
  std::vector<std::byte> out(kBlockBytes);
  for (uint32_t b = 0; b < kExtentBlocks; ++b) {
    ASSERT_TRUE(vld.Read(b * 8, out).ok());
    EXPECT_EQ(out, Pattern(kBlockBytes, b)) << "block " << b;
  }
  // And the device still takes a queued batch and a sync write that fit.
  ASSERT_TRUE(vld.SubmitWrite(0, Pattern(kBlockBytes, 7)).ok());
  ASSERT_TRUE(vld.FlushQueue().ok());
  ASSERT_TRUE(vld.Write(8, Pattern(kBlockBytes, 8)).ok());
  ExpectMapInvariants(vld);
}

// A write whose map sector finds no free block must fail before the map moves: block 0 keeps
// its old bytes in memory and on the media, the blocks the write staged are free again, and
// the device takes the next write. Writing each of the 4-cylinder disk's 658 logical blocks
// once leaves exactly 16 blocks free, so a 16-block write stages into all of them.
TEST(VldFailedWriteTest, MapSectorOutOfSpaceLeavesTheWriteInvisible) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 4), &clock);
  const VldConfig config{.compactor_enabled = false};
  Vld vld(&disk, config);
  ASSERT_TRUE(vld.Format().ok());
  ASSERT_EQ(vld.logical_blocks(), 658u);
  for (uint32_t b = 0; b < vld.logical_blocks(); ++b) {
    ASSERT_TRUE(vld.Write(b * 8, Pattern(kBlockBytes, b)).ok()) << "block " << b;
  }
  ASSERT_EQ(vld.space().free_blocks(), 16u);
  EXPECT_EQ(vld.Write(0, Pattern(16 * kBlockBytes, 99)).code(), common::StatusCode::kOutOfSpace);
  EXPECT_EQ(vld.space().free_blocks(), 16u);
  ExpectMapInvariants(vld);
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld.Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 0));
  common::Clock fork_clock;
  simdisk::SimDisk fork = disk.Fork(&fork_clock);
  Vld recovered(&fork, config);
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_TRUE(recovered.Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 0));
  ASSERT_TRUE(vld.Write(0, Pattern(kBlockBytes, 7)).ok());
  ExpectMapInvariants(vld);
}

// A write whose data block lands but whose map write fails must leave the running device as it
// was: the map, the free-space accounting, and the old data on a read. The next write works.
TEST(VldFailedWriteTest, FailedMapWriteLeavesTheWriteInvisible) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 4), &clock);
  Vld vld(&disk, VldConfig{.compactor_enabled = false});
  ASSERT_TRUE(vld.Format().ok());
  ASSERT_TRUE(vld.Write(0, Pattern(kBlockBytes, 1)).ok());
  const uint64_t free_before = vld.space().free_blocks();
  disk.SetWriteFault(simdisk::SimDisk::WriteFault{.after_writes = 1});  // Data lands, map fails.
  EXPECT_FALSE(vld.Write(0, Pattern(kBlockBytes, 2)).ok());
  disk.SetWriteFault(std::nullopt);
  EXPECT_EQ(vld.space().free_blocks(), free_before);
  ExpectMapInvariants(vld);
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld.Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 1));
  ASSERT_TRUE(vld.Write(0, Pattern(kBlockBytes, 3)).ok());
  ASSERT_TRUE(vld.Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 3));
  ExpectMapInvariants(vld);
}

// The same failure with the pinned-sector valve due: the valve's checkpoint lands, then the map
// write fails. The checkpoint must hold the map from before the write, or recovery from it
// makes the failed write visible after a Park.
TEST(VldFailedWriteTest, FailedCommitAfterValveCheckpointStaysInvisible) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 100), &clock);
  const VldConfig config{.compactor_enabled = false};
  Vld vld(&disk, config);
  ASSERT_TRUE(vld.Format().ok());
  ASSERT_TRUE(vld.Write(0, Pattern(kBlockBytes, 1)).ok());
  common::Rng rng(3);
  const uint32_t pinned_limit = vld.vlog().config().pinned_limit;
  for (int i = 0; i < 100000 && vld.vlog().PinnedCount() <= pinned_limit; ++i) {
    const uint32_t b = 1 + static_cast<uint32_t>(rng.Below(vld.logical_blocks() - 1));
    ASSERT_TRUE(vld.Write(static_cast<simdisk::Lba>(b) * 8, Pattern(kBlockBytes, b)).ok());
  }
  ASSERT_GT(vld.vlog().PinnedCount(), pinned_limit);
  const uint64_t checkpoints = vld.vlog().stats().checkpoints;
  // The data block, the checkpoint body and the checkpoint header land; the map write fails.
  disk.SetWriteFault(simdisk::SimDisk::WriteFault{.after_writes = 3});
  EXPECT_FALSE(vld.Write(0, Pattern(kBlockBytes, 2)).ok());
  disk.SetWriteFault(std::nullopt);
  ASSERT_EQ(vld.vlog().stats().checkpoints, checkpoints + 1);
  ExpectMapInvariants(vld);
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld.Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 1));
  ASSERT_TRUE(vld.Park().ok());
  common::Clock fork_clock;
  simdisk::SimDisk fork = disk.Fork(&fork_clock);
  Vld recovered(&fork, config);
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_TRUE(recovered.Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 1));
}

// The queued twin: sixteen 1-block writes in one batch stage into the last 16 free blocks and
// leave none for the packed map sector. The batch fails whole and ends every span it opened.
TEST(VldFailedWriteTest, QueuedMapSectorOutOfSpaceLeavesTheBatchInvisible) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 4), &clock);
  obs::TraceRecorder tracer(&clock);
  disk.set_tracer(&tracer);
  Vld vld(&disk, VldConfig{.compactor_enabled = false, .queue_depth = 64});
  ASSERT_TRUE(vld.Format().ok());
  for (uint32_t b = 0; b < vld.logical_blocks(); ++b) {
    ASSERT_TRUE(vld.Write(b * 8, Pattern(kBlockBytes, b)).ok()) << "block " << b;
  }
  ASSERT_EQ(vld.space().free_blocks(), 16u);
  for (uint32_t b = 0; b < 16; ++b) {
    ASSERT_TRUE(vld.SubmitWrite(b * 8, Pattern(kBlockBytes, 99 + b)).ok());
  }
  EXPECT_EQ(vld.FlushQueue().status().code(), common::StatusCode::kOutOfSpace);
  EXPECT_EQ(vld.QueuedRequests(), 0u);
  EXPECT_EQ(vld.space().free_blocks(), 16u);
  ExpectMapInvariants(vld);
  for (const obs::TraceRecorder::Span& span : tracer.spans()) {
    EXPECT_FALSE(span.open);
  }
  std::vector<std::byte> out(kBlockBytes);
  for (uint32_t b = 0; b < 16; ++b) {
    ASSERT_TRUE(vld.Read(b * 8, out).ok());
    EXPECT_EQ(out, Pattern(kBlockBytes, b)) << "block " << b;
  }
  ASSERT_TRUE(vld.SubmitWrite(0, Pattern(kBlockBytes, 7)).ok());
  ASSERT_TRUE(vld.FlushQueue().ok());
  ExpectMapInvariants(vld);
}

// A Trim whose map sectors would not all find a free block fails before the map moves, so the
// map still matches the disk and no block is lost. With two slack blocks, writing each of the
// 12-cylinder disk's 2,024 logical blocks once leaves 2 blocks free, and trimming them all
// rewrites 20 pieces: 3 blocks of packed map sectors.
TEST(VldFailedWriteTest, TrimWithoutRoomForItsMapSectorsLeavesTheMapAlone) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 12), &clock);
  const VldConfig config{.compactor_enabled = false, .slack_blocks = 2};
  Vld vld(&disk, config);
  ASSERT_TRUE(vld.Format().ok());
  ASSERT_EQ(vld.logical_blocks(), 2024u);
  ASSERT_EQ(vld.vlog().config().pieces, 20u);
  for (uint32_t b = 0; b < vld.logical_blocks(); ++b) {
    ASSERT_TRUE(vld.Write(b * 8, Pattern(kBlockBytes, b)).ok()) << "block " << b;
  }
  ASSERT_EQ(vld.space().free_blocks(), 2u);
  EXPECT_EQ(vld.Trim(0, uint64_t{2024} * 8).code(), common::StatusCode::kOutOfSpace);
  EXPECT_EQ(vld.space().free_blocks(), 2u);
  EXPECT_EQ(vld.stats().trims, 0u);
  ExpectMapInvariants(vld);
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(vld.Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 0));
  common::Clock fork_clock;
  simdisk::SimDisk fork = disk.Fork(&fork_clock);
  Vld recovered(&fork, config);
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_TRUE(recovered.Read(0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 0));
  // A trim of one piece still fits.
  ASSERT_TRUE(vld.Trim(0, 8).ok());
  ExpectMapInvariants(vld);
  ASSERT_TRUE(vld.Read(0, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(kBlockBytes));
}

TEST_F(VldTest, RejectedWriteAtomicStagesNothing) {
  const uint64_t live = vld_->space().live_blocks();
  const auto block = Pattern(kBlockBytes, 1);
  const auto misaligned = Pattern(kBlockBytes / 2, 2);
  const std::vector<Vld::AtomicWrite> writes = {{0, block}, {8, misaligned}};
  EXPECT_EQ(vld_->WriteAtomic(writes).code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(vld_->space().live_blocks(), live);
}

}  // namespace
}  // namespace vlog::core
