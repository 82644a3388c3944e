#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/core/virtual_log.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {
namespace {

constexpr uint32_t kPieces = 6;
constexpr uint32_t kBlockSectors = 8;

// A VirtualLog with its supporting disk/space/allocator, on a small HP-like disk.
class VirtualLogTest : public ::testing::Test {
 protected:
  VirtualLogTest() { Reset(/*pinned_limit=*/64); }

  void Reset(uint32_t pinned_limit) {
    clock_ = common::Clock();
    disk_.emplace(simdisk::Truncated(simdisk::Hp97560(), 6), &clock_);
    space_.emplace(disk_->geometry(), kBlockSectors);
    MarkSystemRegion();
    allocator_.emplace(&*disk_, &*space_, AllocatorConfig{});
    vlog_.emplace(&*disk_, &*allocator_,
                  VirtualLogConfig{.pieces = kPieces,
                                   .block_sectors = kBlockSectors,
                                   .park_lba = 0,
                                   .checkpoint_lba = 1,
                                   .pinned_limit = pinned_limit});
    ASSERT_TRUE(vlog_->Format().ok());
  }

  // System region: park sector + the double-buffered checkpoint region (2*(pieces+1) sectors).
  void MarkSystemRegion() {
    const uint32_t sectors = VirtualLog::ReservedSectors(kPieces);
    for (uint32_t b = 0; b < (sectors + kBlockSectors - 1) / kBlockSectors; ++b) {
      space_->MarkSystem(b);
    }
  }

  // Simulates a restart: fresh in-memory state over the same media.
  void Reopen() {
    space_.emplace(disk_->geometry(), kBlockSectors);
    MarkSystemRegion();
    allocator_.emplace(&*disk_, &*space_, AllocatorConfig{});
    VirtualLogConfig cfg = vlog_->config();
    vlog_.emplace(&*disk_, &*allocator_, cfg);
  }

  static std::vector<uint32_t> Entries(uint32_t fill) {
    std::vector<uint32_t> e(kEntriesPerSector, kUnmappedBlock);
    e[0] = fill;
    e[1] = fill * 2 + 1;
    return e;
  }

  // Entries(fill), owned by the fixture until the test ends. Commits take spans, and a span
  // bound to a temporary vector (say in a PieceUpdate) dangles once the temporary dies.
  std::span<const uint32_t> Owned(uint32_t fill) { return owned_.emplace_back(Entries(fill)); }

  // A one-piece commit: a standalone map sector.
  common::Status CommitOne(uint32_t piece, std::span<const uint32_t> entries) {
    const VirtualLog::PieceUpdate update{piece, entries};
    return vlog_->Commit({&update, 1});
  }

  // An entries provider over per-piece vectors the caller keeps alive.
  static VirtualLog::EntriesOfPiece SlicesOf(const std::vector<std::vector<uint32_t>>& pieces) {
    return [&pieces](uint32_t piece) { return std::span<const uint32_t>(pieces[piece]); };
  }

  // After recovery, live map blocks must be re-marked before further appends.
  void RemarkLiveBlocks() {
    for (uint32_t k = 0; k < kPieces; ++k) {
      if (const auto block = vlog_->LiveBlockOfPiece(k)) {
        space_->MarkLive(*block);
      }
    }
    for (const uint32_t block : vlog_->PinnedBlocks()) {
      space_->MarkLive(block);
    }
  }

  // PinnedInTrack is an incremental index; it must always equal a recount of PinnedBlocks().
  void ExpectPinnedInTrackMatchesRecount(const char* where) {
    std::vector<uint32_t> recount(space_->total_tracks(), 0);
    for (const uint32_t block : vlog_->PinnedBlocks()) {
      ++recount[space_->TrackOfBlock(block)];
    }
    for (uint64_t t = 0; t < space_->total_tracks(); ++t) {
      ASSERT_EQ(vlog_->PinnedInTrack(t), recount[t]) << where << ": track " << t;
    }
  }

  common::Clock clock_;
  std::optional<simdisk::SimDisk> disk_;
  std::optional<FreeSpaceMap> space_;
  std::optional<EagerAllocator> allocator_;
  std::optional<VirtualLog> vlog_;
  std::deque<std::vector<uint32_t>> owned_;
};

TEST_F(VirtualLogTest, FreshLogRecoversEmpty) {
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->used_scan);
  for (const auto& piece : result->pieces) {
    EXPECT_TRUE(piece.empty());
  }
}

TEST_F(VirtualLogTest, AppendParkRecoverRoundTrip) {
  ASSERT_TRUE(CommitOne(0, Owned(10)).ok());
  ASSERT_TRUE(CommitOne(3, Owned(20)).ok());
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->used_scan);
  EXPECT_EQ(result->pieces[0], Entries(10));
  EXPECT_EQ(result->pieces[3], Entries(20));
  EXPECT_TRUE(result->pieces[1].empty());
  EXPECT_TRUE(result->uncovered_pieces.empty());
}

TEST_F(VirtualLogTest, YoungestVersionWinsAfterOverwrites) {
  for (uint32_t v = 0; v < 25; ++v) {
    ASSERT_TRUE(CommitOne(1, Owned(v)).ok());
  }
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pieces[1], Entries(24));
}

TEST_F(VirtualLogTest, OverwritingRecyclesBlocks) {
  for (uint32_t v = 0; v < 25; ++v) {
    ASSERT_TRUE(CommitOne(1, Owned(v)).ok());
  }
  // One live sector plus maybe a few pinned: nearly all 25 appends were recycled.
  EXPECT_GE(vlog_->stats().recycled_blocks, 20u);
  EXPECT_LE(space_->live_blocks(), 1 + vlog_->PinnedCount());
}

TEST_F(VirtualLogTest, CrashWithoutParkFallsBackToScan) {
  ASSERT_TRUE(CommitOne(2, Owned(7)).ok());
  // No Park: a crash. The stale park sector was cleared at Format.
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_scan);
  EXPECT_EQ(result->pieces[2], Entries(7));
}

TEST_F(VirtualLogTest, ParkIsClearedAfterRecovery) {
  ASSERT_TRUE(CommitOne(0, Owned(1)).ok());
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  ASSERT_TRUE(vlog_->Recover().ok());
  RemarkLiveBlocks();
  ASSERT_TRUE(CommitOne(0, Owned(2)).ok());
  // Crash now: the old park record must not be trusted (it was cleared), so scan runs and
  // finds the newer version.
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_scan);
  EXPECT_EQ(result->pieces[0], Entries(2));
}

TEST_F(VirtualLogTest, TransactionAppliedAtomicallyWhenComplete) {
  std::vector<VirtualLog::PieceUpdate> updates;
  updates.push_back({0, Owned(100)});
  updates.push_back({1, Owned(101)});
  updates.push_back({2, Owned(102)});
  ASSERT_TRUE(vlog_->Commit(updates).ok());
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pieces[0], Entries(100));
  EXPECT_EQ(result->pieces[1], Entries(101));
  EXPECT_EQ(result->pieces[2], Entries(102));
  EXPECT_EQ(result->discarded_txn_sectors, 0u);
}

TEST_F(VirtualLogTest, InterruptedTransactionRollsBackEveryPiece) {
  ASSERT_TRUE(CommitOne(0, Owned(1)).ok());
  ASSERT_TRUE(CommitOne(1, Owned(2)).ok());
  // Crash while the two-piece transaction's one block write is in flight: only its first
  // sector reaches the disk.
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
      .mode = simdisk::SimDisk::WriteFaultMode::kTornPrefix, .keep_sectors = 1});
  std::vector<VirtualLog::PieceUpdate> updates;
  updates.push_back({0, Owned(50)});
  updates.push_back({1, Owned(51)});
  EXPECT_FALSE(vlog_->Commit(updates).ok());
  disk_->SetWriteFault(std::nullopt);
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->discarded_txn_sectors, 1u);
  EXPECT_EQ(result->pieces[0], Entries(1)) << "must roll back to the pre-transaction version";
  EXPECT_EQ(result->pieces[1], Entries(2));
}

// A commit whose write fails moves nothing in memory: the chain, the park record written after
// it and the free-space count are all as before the commit. A Park that named the failed
// commit's unwritten sectors as the tail would make recovery lose every piece.
TEST_F(VirtualLogTest, FailedCommitLeavesTheLogAsItWas) {
  for (uint32_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(CommitOne(k, Owned(10 + k)).ok());
  }
  const uint64_t free_before = space_->free_blocks();
  const uint64_t next_seq = vlog_->NextSeq();
  std::vector<VirtualLog::PieceUpdate> updates;
  updates.push_back({1, Owned(60)});
  updates.push_back({2, Owned(61)});
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{});  // Fail-stop at the next write.
  EXPECT_FALSE(vlog_->Commit(updates).ok());
  disk_->SetWriteFault(std::nullopt);
  EXPECT_EQ(space_->free_blocks(), free_before) << "the commit's block must be freed";
  EXPECT_EQ(vlog_->NextSeq(), next_seq);
  // A one-piece commit frees its block too.
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{});
  EXPECT_FALSE(CommitOne(3, Owned(62)).ok());
  disk_->SetWriteFault(std::nullopt);
  EXPECT_EQ(space_->free_blocks(), free_before);

  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->used_scan);
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(result->pieces[k], Entries(10 + k)) << "piece " << k;
  }
}

TEST_F(VirtualLogTest, CheckpointSeedsRecoveryAndFreesLog) {
  std::vector<std::vector<uint32_t>> all(kPieces);
  for (uint32_t k = 0; k < kPieces; ++k) {
    all[k] = Entries(k + 60);
    ASSERT_TRUE(CommitOne(k, all[k]).ok());
  }
  const uint64_t live_before = space_->live_blocks();
  ASSERT_TRUE(vlog_->WriteCheckpoint(SlicesOf(all)).ok());
  EXPECT_LT(space_->live_blocks(), live_before);
  // Post-checkpoint append, then clean shutdown.
  ASSERT_TRUE(CommitOne(2, Owned(99)).ok());
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->from_checkpoint);
  EXPECT_EQ(result->pieces[2], Entries(99)) << "log beats checkpoint";
  EXPECT_EQ(result->pieces[4], Entries(64)) << "checkpoint fills unlogged pieces";
}

TEST_F(VirtualLogTest, ScanRecoveryHonorsCheckpointBoundary) {
  std::vector<std::vector<uint32_t>> all(kPieces);
  for (uint32_t k = 0; k < kPieces; ++k) {
    all[k] = Entries(k);
    ASSERT_TRUE(CommitOne(k, all[k]).ok());
  }
  all[1] = Entries(500);
  ASSERT_TRUE(CommitOne(1, all[1]).ok());
  ASSERT_TRUE(vlog_->WriteCheckpoint(SlicesOf(all)).ok());
  ASSERT_TRUE(CommitOne(0, Owned(700)).ok());
  Reopen();  // Crash (no park) -> scan.
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_scan);
  EXPECT_EQ(result->pieces[0], Entries(700));
  EXPECT_EQ(result->pieces[1], Entries(500));
}

TEST_F(VirtualLogTest, AutoCheckpointValveBoundsPinnedSectors) {
  Reset(/*pinned_limit=*/0);
  std::vector<std::vector<uint32_t>> shadow(kPieces);
  vlog_->SetEntriesProvider(SlicesOf(shadow));
  common::Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const uint32_t piece = static_cast<uint32_t>(rng.Below(kPieces));
    shadow[piece] = Entries(static_cast<uint32_t>(i));
    ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
    ASSERT_LE(vlog_->PinnedCount(), 1u);
  }
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  for (uint32_t k = 0; k < kPieces; ++k) {
    EXPECT_EQ(result->pieces[k], shadow[k]) << "piece " << k;
  }
}

// The crown-jewel property test: random appends/transactions with freed blocks being actively
// reused as "data" (overwritten with junk), interleaved with random crashes (scan recovery) and
// clean shutdowns (park recovery). After every recovery the map must equal the shadow model.
TEST_F(VirtualLogTest, RandomizedCrashRecoveryMatchesShadow) {
  common::Rng rng(20260706);
  std::vector<std::vector<uint32_t>> shadow(kPieces);
  uint32_t version = 0;

  for (int round = 0; round < 30; ++round) {
    const int ops = 1 + static_cast<int>(rng.Below(40));
    for (int op = 0; op < ops; ++op) {
      if (rng.Chance(0.25)) {
        // Multi-piece transaction.
        std::vector<VirtualLog::PieceUpdate> updates;
        const uint32_t count = 2 + static_cast<uint32_t>(rng.Below(3));
        std::vector<std::vector<uint32_t>> staged = shadow;
        for (uint32_t i = 0; i < count; ++i) {
          uint32_t piece = static_cast<uint32_t>(rng.Below(kPieces));
          bool duplicate = false;
          for (const auto& u : updates) {
            duplicate |= u.piece == piece;
          }
          if (duplicate) {
            continue;
          }
          staged[piece] = Entries(++version);
          updates.push_back({piece, staged[piece]});
        }
        ASSERT_TRUE(vlog_->Commit(updates).ok());
        shadow = staged;
      } else {
        const uint32_t piece = static_cast<uint32_t>(rng.Below(kPieces));
        shadow[piece] = Entries(++version);
        ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
      }
      // Aggressively reuse freed space: overwrite a random free block with junk, simulating
      // the VLD putting file data there. This is what makes stale map sectors disappear.
      for (int j = 0; j < 2; ++j) {
        const uint32_t block = static_cast<uint32_t>(rng.Below(space_->total_blocks()));
        if (space_->state(block) == BlockState::kFree) {
          std::vector<std::byte> junk(kBlockSectors * 512);
          for (auto& b : junk) {
            b = static_cast<std::byte>(rng.Next());
          }
          ASSERT_TRUE(disk_->InternalWrite(space_->BlockToLba(block), junk).ok());
        }
      }
    }

    const bool clean = rng.Chance(0.5);
    if (clean) {
      ASSERT_TRUE(vlog_->Park().ok());
    }
    Reopen();
    auto result = vlog_->Recover();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->used_scan, !clean) << "round " << round;
    for (uint32_t k = 0; k < kPieces; ++k) {
      ASSERT_EQ(result->pieces[k], shadow[k]) << "round " << round << " piece " << k
                                              << (clean ? " (park)" : " (scan)");
    }
    RemarkLiveBlocks();
    // Repair any uncovered pieces, as the VLD would.
    for (const uint32_t piece : result->uncovered_pieces) {
      ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
    }
  }
}

TEST_F(VirtualLogTest, RecoveryCostIsProportionalToLiveLog) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(CommitOne(static_cast<uint32_t>(i) % kPieces, Owned(i)).ok());
  }
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  // Tail traversal touches roughly the live sectors (plus stale-but-valid stragglers), far
  // fewer than the 100 appends and vastly fewer than a disk scan.
  EXPECT_LT(result->sectors_read, 60u);
}


// Regression for the double-recycle hazard that breaks the paper's literal Figure 3b rule:
// with pieces a, b, c written in order, rewriting b twice recycles first W_b and then N_b —
// the sector whose bypass pointer was covering W_c. If both recycled blocks are physically
// reused, a naive implementation loses W_c (piece c's live sector). The designated-cover
// machinery must keep recovery correct regardless, including when the freed blocks are
// overwritten with garbage.
TEST_F(VirtualLogTest, DoubleRecycleOfBypassCarrierKeepsLogConnected) {
  ASSERT_TRUE(CommitOne(2, Owned(300)).ok());  // W_c (oldest, stays live).
  ASSERT_TRUE(CommitOne(1, Owned(301)).ok());  // W_b.
  ASSERT_TRUE(CommitOne(0, Owned(302)).ok());  // W_a.
  ASSERT_TRUE(CommitOne(1, Owned(303)).ok());  // N_b: bypass covers W_c, frees W_b.
  ASSERT_TRUE(CommitOne(1, Owned(304)).ok());  // N_b2: frees (or pins) N_b.
  // Destroy every freed block's contents, simulating data reuse.
  common::Rng rng(1);
  for (uint32_t block = 0; block < space_->total_blocks(); ++block) {
    if (space_->state(block) == BlockState::kFree) {
      std::vector<std::byte> junk(kBlockSectors * 512);
      for (auto& b : junk) {
        b = static_cast<std::byte>(rng.Next());
      }
      ASSERT_TRUE(disk_->InternalWrite(space_->BlockToLba(block), junk).ok());
    }
  }
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->used_scan);
  EXPECT_EQ(result->pieces[2], Entries(300)) << "W_c must stay reachable through covers";
  EXPECT_EQ(result->pieces[0], Entries(302));
  EXPECT_EQ(result->pieces[1], Entries(304));
}

// When a sector that still carries covers is obsoleted, it must be pinned (its block stays
// unallocatable) until its targets are re-covered — observable through PinnedCount.
TEST_F(VirtualLogTest, LoadBearingObsoleteSectorsArePinnedThenReleased) {
  ASSERT_TRUE(CommitOne(0, Owned(1)).ok());
  // The head sector of piece 0 is covered by the next append's prev pointer...
  ASSERT_TRUE(CommitOne(1, Owned(2)).ok());
  // ...so obsoleting piece 1 (the current head, which carries that cover) pins it.
  ASSERT_TRUE(CommitOne(1, Owned(3)).ok());
  const size_t pinned_after = vlog_->PinnedCount();
  // Rewriting piece 0 re-covers it with the new sector, unpinning the old carrier eventually.
  ASSERT_TRUE(CommitOne(0, Owned(4)).ok());
  ASSERT_TRUE(CommitOne(0, Owned(5)).ok());
  EXPECT_LE(vlog_->PinnedCount(), pinned_after + 1);
  // Regardless of pinning dynamics, recovery stays exact.
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pieces[0], Entries(5));
  EXPECT_EQ(result->pieces[1], Entries(3));
}

TEST_F(VirtualLogTest, PinnedInTrackMatchesRecountThroughEveryPath) {
  std::vector<std::vector<uint32_t>> shadow(kPieces);
  vlog_->SetEntriesProvider(SlicesOf(shadow));
  common::Rng rng(17);
  uint32_t version = 0;
  size_t max_pinned = 0;
  // Single appends and packed commits, checked after every one.
  auto churn = [&](int ops) {
    for (int op = 0; op < ops; ++op) {
      if (rng.Chance(0.3)) {
        std::vector<VirtualLog::PieceUpdate> updates;
        for (uint32_t k = 0; k < kPieces; ++k) {
          if (rng.Chance(0.5)) {
            shadow[k] = Entries(++version);
            updates.push_back({k, shadow[k]});
          }
        }
        ASSERT_TRUE(vlog_->Commit(updates).ok());
      } else {
        const uint32_t piece = static_cast<uint32_t>(rng.Below(kPieces));
        shadow[piece] = Entries(++version);
        ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
      }
      max_pinned = std::max(max_pinned, vlog_->PinnedCount());
      ExpectPinnedInTrackMatchesRecount("append");
    }
  };
  auto recover = [&](const char* where) {
    Reopen();
    vlog_->SetEntriesProvider(SlicesOf(shadow));
    auto result = vlog_->Recover();
    ASSERT_TRUE(result.ok());
    RemarkLiveBlocks();
    for (const uint32_t piece : result->uncovered_pieces) {
      ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
    }
    ExpectPinnedInTrackMatchesRecount(where);
  };

  churn(200);
  ASSERT_GT(max_pinned, 0u) << "the history must pin sectors for the index to be tested";
  ASSERT_TRUE(vlog_->WriteCheckpoint(SlicesOf(shadow)).ok());
  ExpectPinnedInTrackMatchesRecount("checkpoint");
  EXPECT_EQ(vlog_->PinnedCount(), 0u);
  churn(200);
  ASSERT_TRUE(vlog_->Park().ok());
  recover("park recovery");
  churn(200);
  recover("scan recovery");  // No park: a crash.
  churn(200);
}

TEST_F(VirtualLogTest, AppendRejectsOutOfRangePiece) {
  EXPECT_FALSE(CommitOne(kPieces, Owned(0)).ok());
}

// Satellite (a) regression: map sectors from a previous format generation must not be
// resurrected by a crash scan after reformat, even though they are internally consistent.
TEST_F(VirtualLogTest, ReformatRejectsStaleGenerationSectorsInScan) {
  EXPECT_EQ(vlog_->Epoch(), 1u);
  ASSERT_TRUE(CommitOne(0, Owned(10)).ok());
  ASSERT_TRUE(CommitOne(4, Owned(11)).ok());
  // Sanity: a crash scan in the same generation finds them.
  Reopen();
  {
    auto result = vlog_->Recover();
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->used_scan);
    EXPECT_EQ(result->pieces[0], Entries(10));
  }
  // Reformat over the same media. The generation-1 map sectors still sit in the data region.
  Reopen();
  ASSERT_TRUE(vlog_->Format().ok());
  EXPECT_EQ(vlog_->Epoch(), 2u);
  // Crash immediately (no park, no appends): the scan walks the whole disk past the stale
  // generation-1 sectors and must reject every one of them.
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_scan);
  EXPECT_EQ(vlog_->Epoch(), 2u);
  for (const auto& piece : result->pieces) {
    EXPECT_TRUE(piece.empty());
  }
}

TEST_F(VirtualLogTest, EpochSurvivesParkAndCrashRecovery) {
  Reopen();
  ASSERT_TRUE(vlog_->Format().ok());
  Reopen();
  ASSERT_TRUE(vlog_->Format().ok());
  EXPECT_EQ(vlog_->Epoch(), 3u);
  ASSERT_TRUE(CommitOne(1, Owned(5)).ok());
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  ASSERT_TRUE(vlog_->Recover().ok());
  EXPECT_EQ(vlog_->Epoch(), 3u);
  RemarkLiveBlocks();
  // New appends in epoch 3 are found by a crash scan after a restart without park.
  ASSERT_TRUE(CommitOne(1, Owned(6)).ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_scan);
  EXPECT_EQ(result->pieces[1], Entries(6));
}

// --- Packed group-commit transactions ---

TEST_F(VirtualLogTest, PackedTransactionUsesOneWritePerBlock) {
  std::vector<VirtualLog::PieceUpdate> updates;
  for (uint32_t k = 0; k < 5; ++k) {
    updates.push_back({.piece = k, .entries = Owned(30 + k)});
  }
  const uint64_t writes_before = disk_->stats().write_requests;
  ASSERT_TRUE(vlog_->Commit(updates).ok());
  // Five sectors fit one 8-sector block: a single media write.
  EXPECT_EQ(disk_->stats().write_requests - writes_before, 1u);
  EXPECT_EQ(vlog_->stats().packed_transactions, 1u);
  EXPECT_EQ(vlog_->stats().packed_sectors, 5u);

  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  for (uint32_t k = 0; k < 5; ++k) {
    EXPECT_EQ(result->pieces[k], Entries(30 + k));
  }
}

TEST_F(VirtualLogTest, PackedTransactionSurvivesCrashScan) {
  ASSERT_TRUE(CommitOne(0, Owned(1)).ok());
  std::vector<VirtualLog::PieceUpdate> updates;
  for (uint32_t k = 0; k < kPieces; ++k) {
    updates.push_back({.piece = k, .entries = Owned(50 + k)});
  }
  ASSERT_TRUE(vlog_->Commit(updates).ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->used_scan);
  for (uint32_t k = 0; k < kPieces; ++k) {
    EXPECT_EQ(result->pieces[k], Entries(50 + k));
  }
}

TEST_F(VirtualLogTest, TornPackedTransactionRollsBackEveryPiece) {
  for (uint32_t k = 0; k < kPieces; ++k) {
    ASSERT_TRUE(CommitOne(k, Owned(k)).ok());
  }
  std::vector<VirtualLog::PieceUpdate> updates;
  for (uint32_t k = 0; k < kPieces; ++k) {
    updates.push_back({.piece = k, .entries = Owned(70 + k)});
  }
  // All six sectors pack into one 8-sector block write; tear it so only the first three
  // sectors persist.
  disk_->SetWriteFault(simdisk::SimDisk::WriteFault{
      .mode = simdisk::SimDisk::WriteFaultMode::kTornPrefix,
      .after_writes = 0,
      .keep_sectors = 3});
  EXPECT_FALSE(vlog_->Commit(updates).ok());
  disk_->SetWriteFault(std::nullopt);
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  // The trailing incomplete transaction is discarded: every piece rolls back to its
  // pre-transaction version.
  for (uint32_t k = 0; k < kPieces; ++k) {
    EXPECT_EQ(result->pieces[k], Entries(k)) << "piece " << k;
  }
}

TEST_F(VirtualLogTest, PackedTransactionRejectsDuplicatePieces) {
  std::vector<VirtualLog::PieceUpdate> updates;
  updates.push_back({.piece = 1, .entries = Owned(1)});
  updates.push_back({.piece = 1, .entries = Owned(2)});
  EXPECT_FALSE(vlog_->Commit(updates).ok());
}

}  // namespace
}  // namespace vlog::core
