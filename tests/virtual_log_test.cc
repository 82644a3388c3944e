#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <deque>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/core/virtual_log.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {
namespace {

constexpr uint32_t kPieces = 6;
// The incremental-checkpoint tests need room for several runs of dirty pieces.
constexpr uint32_t kManyPieces = 24;
constexpr uint32_t kBlockSectors = 8;

// A VirtualLog with its supporting disk/space/allocator, on a small HP-like disk.
class VirtualLogTest : public ::testing::Test {
 protected:
  VirtualLogTest() { Reset(/*pinned_limit=*/64); }

  void Reset(uint32_t pinned_limit, uint32_t pieces = kPieces) {
    pieces_ = pieces;
    clock_ = common::Clock();
    disk_.emplace(simdisk::Truncated(simdisk::Hp97560(), 6), &clock_);
    ResetSpace();
    vlog_.emplace(&*disk_, &*allocator_,
                  VirtualLogConfig{.pieces = pieces_,
                                   .block_sectors = kBlockSectors,
                                   .park_lba = 0,
                                   .checkpoint_lba = 1,
                                   .pinned_limit = pinned_limit});
    ASSERT_TRUE(vlog_->Format().ok());
  }

  // System region: park sector + the double-buffered checkpoint region (2*(pieces+1) sectors).
  void MarkSystemRegion() {
    const uint32_t sectors = VirtualLog::ReservedSectors(pieces_);
    for (uint32_t b = 0; b < (sectors + kBlockSectors - 1) / kBlockSectors; ++b) {
      space_->MarkSystem(b);
    }
  }

  // A fresh free-space map and allocator, rebuilt in place so the log's pointers stay valid:
  // what Vld::Format and Vld::Recover do before they format or recover their own log.
  void ResetSpace() {
    space_.emplace(disk_->geometry(), kBlockSectors);
    MarkSystemRegion();
    allocator_.emplace(&*disk_, &*space_, AllocatorConfig{});
  }

  // Simulates a restart: fresh in-memory state over the same media.
  void Reopen() {
    ResetSpace();
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

  // Commits every piece k as Entries(k + 1), one sector each, and returns those entries.
  std::vector<std::vector<uint32_t>> CommitEveryPiece() {
    std::vector<std::vector<uint32_t>> pieces(pieces_);
    for (uint32_t k = 0; k < pieces_; ++k) {
      pieces[k] = Entries(k + 1);
      EXPECT_TRUE(CommitOne(k, pieces[k]).ok());
    }
    return pieces;
  }

  // An entries provider over per-piece vectors the caller keeps alive.
  static VirtualLog::EntriesOfPiece SlicesOf(const std::vector<std::vector<uint32_t>>& pieces) {
    return [&pieces](uint32_t piece) { return std::span<const uint32_t>(pieces[piece]); };
  }

  // After recovery, live map blocks must be re-marked before further appends.
  // A packed commit puts several pieces in one block, so the blocks are collected first and
  // each is marked once, as Vld::Recover does.
  void RemarkLiveBlocks() {
    std::set<uint32_t> blocks;
    for (uint32_t k = 0; k < pieces_; ++k) {
      if (const auto block = vlog_->LiveBlockOfPiece(k)) {
        blocks.insert(*block);
      }
    }
    for (const uint32_t block : vlog_->PinnedBlocks()) {
      blocks.insert(block);
    }
    for (const uint32_t block : blocks) {
      space_->MarkLive(block);
    }
  }

  // Random commits and transactions, with freed blocks actively reused as "data" (overwritten
  // with junk), each round ending in a crash (scan recovery) or a clean shutdown (park
  // recovery); after every recovery the map must equal the shadow model. With
  // `checkpoint_chance` > 0 each commit is followed by a checkpoint with that probability, and
  // `mixed_slot_recoveries` counts the park ([0]) and scan ([1]) recoveries that loaded a slot
  // holding pieces from more than one checkpoint.
  void RunRandomizedCrashRecovery(uint64_t seed, int rounds, double checkpoint_chance,
                                  std::array<int, 2>* mixed_slot_recoveries = nullptr) {
    common::Rng rng(seed);
    std::vector<std::vector<uint32_t>> shadow(pieces_);
    uint32_t version = 0;

    for (int round = 0; round < rounds; ++round) {
      const int ops = 1 + static_cast<int>(rng.Below(40));
      for (int op = 0; op < ops; ++op) {
        if (rng.Chance(0.25)) {
          // Multi-piece transaction.
          std::vector<VirtualLog::PieceUpdate> updates;
          const uint32_t count = 2 + static_cast<uint32_t>(rng.Below(3));
          std::vector<std::vector<uint32_t>> staged = shadow;
          for (uint32_t i = 0; i < count; ++i) {
            uint32_t piece = static_cast<uint32_t>(rng.Below(pieces_));
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
          const uint32_t piece = static_cast<uint32_t>(rng.Below(pieces_));
          shadow[piece] = Entries(++version);
          ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
        }
        if (checkpoint_chance > 0 && rng.Chance(checkpoint_chance)) {
          ASSERT_TRUE(vlog_->WriteCheckpoint(SlicesOf(shadow)).ok());
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
      for (uint32_t k = 0; k < pieces_; ++k) {
        ASSERT_EQ(result->pieces[k], shadow[k]) << "round " << round << " piece " << k
                                                << (clean ? " (park)" : " (scan)");
      }
      if (mixed_slot_recoveries != nullptr && result->from_checkpoint &&
          CheckpointsInSlot(vlog_->CheckpointSeq()) > 1) {
        ++(*mixed_slot_recoveries)[result->used_scan ? 1 : 0];
      }
      RemarkLiveBlocks();
      // Repair any uncovered pieces, as the VLD would.
      for (const uint32_t piece : result->uncovered_pieces) {
        ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
      }
    }
  }

  // How many checkpoints wrote the piece sectors of the slot whose header carries
  // `checkpoint_seq` (0 when neither does): the distinct sequence numbers among its pieces. A
  // slot starts at the region's first sector, and its header keeps the sequence at byte 8.
  size_t CheckpointsInSlot(uint64_t checkpoint_seq) const {
    const VirtualLogConfig& cfg = vlog_->config();
    std::vector<std::byte> slot(static_cast<size_t>(vlog_->CheckpointSlotSectors()) * 512);
    for (uint32_t s = 0; s < 2; ++s) {
      disk_->PeekMedia(cfg.checkpoint_lba + s * vlog_->CheckpointSlotSectors(), slot);
      if (common::LoadLe<uint64_t>(slot, 8) != checkpoint_seq) {
        continue;
      }
      std::set<uint64_t> seqs;
      for (uint32_t k = 0; k < cfg.pieces; ++k) {
        const auto piece = MapSector::Parse(
            std::span<const std::byte>(slot).subspan(static_cast<size_t>(k + 1) * 512, 512),
            vlog_->Epoch());
        if (piece.ok()) {
          seqs.insert(piece->seq);
        }
      }
      return seqs.size();
    }
    return 0;
  }

  // Takes a checkpoint of `pieces` and returns the sectors it wrote, checking that
  // VirtualLogStats::checkpoint_sectors and the traced kCheckpoint event (piece sectors, so one
  // less) count the same.
  uint64_t SectorsOfCheckpoint(const std::vector<std::vector<uint32_t>>& pieces) {
    obs::TraceRecorder tracer(&clock_);
    disk_->set_tracer(&tracer);
    const uint64_t written = disk_->stats().sectors_written;
    const uint64_t counted = vlog_->stats().checkpoint_sectors;
    EXPECT_TRUE(vlog_->WriteCheckpoint(SlicesOf(pieces)).ok());
    disk_->set_tracer(nullptr);
    const uint64_t sectors = disk_->stats().sectors_written - written;
    EXPECT_EQ(vlog_->stats().checkpoint_sectors - counted, sectors);
    uint64_t traced = 0;
    for (const obs::TraceEvent& e : tracer.Events()) {
      if (e.type == obs::EventType::kCheckpoint) {
        traced += e.b + 1;
      }
    }
    EXPECT_EQ(traced, sectors);
    return sectors;
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

  uint32_t pieces_ = kPieces;
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

// Once both slots hold the map, a checkpoint writes only the pieces committed since its slot
// was last written, plus the header: touching k pieces and then checkpointing into each slot
// writes k + 1 sectors each time.
TEST_F(VirtualLogTest, CheckpointWritesOnlyThePiecesItsSlotIsMissing) {
  Reset(/*pinned_limit=*/64, kManyPieces);
  std::vector<std::vector<uint32_t>> shadow = CommitEveryPiece();
  uint32_t version = kManyPieces;
  EXPECT_EQ(SectorsOfCheckpoint(shadow), kManyPieces + 1);
  EXPECT_EQ(SectorsOfCheckpoint(shadow), kManyPieces + 1);
  common::Rng rng(5);
  for (const uint32_t touched : {1u, 0u, 3u, 7u, 2u, kManyPieces, 5u}) {
    // `touched` distinct pieces at random, so they form varying runs; one commit for them all.
    std::vector<uint32_t> order(kManyPieces);
    std::iota(order.begin(), order.end(), 0u);
    for (uint32_t i = 0; i < touched; ++i) {
      std::swap(order[i], order[i + rng.Below(kManyPieces - i)]);
    }
    std::vector<VirtualLog::PieceUpdate> updates;
    for (uint32_t i = 0; i < touched; ++i) {
      shadow[order[i]] = Entries(++version);
      updates.push_back({order[i], shadow[order[i]]});
    }
    ASSERT_TRUE(vlog_->Commit(updates).ok());
    EXPECT_EQ(SectorsOfCheckpoint(shadow), touched + 1) << touched << " pieces, first slot";
    EXPECT_EQ(SectorsOfCheckpoint(shadow), touched + 1) << touched << " pieces, second slot";
  }
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->from_checkpoint);
  EXPECT_EQ(result->pieces, shadow);
}

// A reformat does not know which pieces each slot holds, so the first checkpoint into each slot
// after one writes every piece; the next ones are incremental again. A recovery knows only the
// slot it loaded: the first checkpoint into the other slot writes every piece, and the first
// into the loaded slot writes only the pieces the log replay restored (none here) and its
// header. Each runs on the log object that took the earlier checkpoints, as Vld::Format and
// Vld::Recover do.
TEST_F(VirtualLogTest, FirstCheckpointIntoEachSlotWritesEveryPiece) {
  Reset(/*pinned_limit=*/64, kManyPieces);
  std::vector<std::vector<uint32_t>> shadow = CommitEveryPiece();
  uint32_t version = kManyPieces;
  // Two checkpoints of `first` and `second` sectors, then an incremental one of the single
  // piece touched since.
  const auto expect_checkpoints = [&](uint64_t first, uint64_t second, const char* where) {
    EXPECT_EQ(SectorsOfCheckpoint(shadow), first) << where;
    EXPECT_EQ(SectorsOfCheckpoint(shadow), second) << where;
    shadow[9] = Entries(++version);
    ASSERT_TRUE(CommitOne(9, shadow[9]).ok());
    EXPECT_EQ(SectorsOfCheckpoint(shadow), 2u) << where;
  };
  const auto expect_full_then_incremental = [&](const char* where) {
    expect_checkpoints(kManyPieces + 1, kManyPieces + 1, where);
  };
  expect_full_then_incremental("after format");

  // A reformat over the same media: both slots still hold the previous generation's pieces,
  // though only one piece of the new map is ever committed.
  ResetSpace();
  ASSERT_TRUE(vlog_->Format().ok());
  shadow.assign(kManyPieces, {});
  shadow[4] = Entries(++version);
  ASSERT_TRUE(CommitOne(4, shadow[4]).ok());
  expect_full_then_incremental("after reformat");

  for (const bool park : {true, false}) {
    if (park) {
      ASSERT_TRUE(vlog_->Park().ok());
    }
    ResetSpace();
    auto result = vlog_->Recover();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->used_scan, !park);
    EXPECT_EQ(result->pieces, shadow);
    RemarkLiveBlocks();
    for (const uint32_t piece : result->uncovered_pieces) {
      ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
    }
    // The log was empty since the last checkpoint, so the slot recovery loaded holds every
    // piece: the first checkpoint (into the other slot) writes them all, the second only its
    // header.
    expect_checkpoints(kManyPieces + 1, 1, park ? "after park recovery" : "after scan recovery");
  }
}

// After a recovery whose log replay restores k pieces, the checkpoint back into the slot
// recovery loaded writes just those k and its header; a crash inside that write recovers the
// other slot, written by the first checkpoint after the restart, exactly.
TEST_F(VirtualLogTest, CheckpointIntoTheLoadedSlotWritesOnlyTheReplayedPieces) {
  // k = 5 pieces in two runs, committed after the last checkpoint before the restart.
  const std::vector<uint32_t> replayed = {2, 3, 4, 11, 20};
  for (const bool park : {true, false}) {
    for (const bool crash : {false, true}) {
      Reset(/*pinned_limit=*/64, kManyPieces);
      std::vector<std::vector<uint32_t>> shadow = CommitEveryPiece();
      uint32_t version = kManyPieces;
      ASSERT_TRUE(vlog_->WriteCheckpoint(SlicesOf(shadow)).ok());
      for (const uint32_t k : replayed) {
        shadow[k] = Entries(++version);
        ASSERT_TRUE(CommitOne(k, shadow[k]).ok());
      }
      if (park) {
        ASSERT_TRUE(vlog_->Park().ok());
      }
      Reopen();
      auto result = vlog_->Recover();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->used_scan, !park);
      EXPECT_EQ(result->pieces, shadow);
      RemarkLiveBlocks();
      for (const uint32_t piece : result->uncovered_pieces) {
        ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
      }
      EXPECT_EQ(SectorsOfCheckpoint(shadow), kManyPieces + 1) << "the other slot, all dirty";
      if (!crash) {
        EXPECT_EQ(SectorsOfCheckpoint(shadow), replayed.size() + 1) << "the loaded slot";
        continue;
      }
      // Cut power once the loaded slot's first run (pieces 2-4) has landed.
      const uint64_t other_slot_seq = vlog_->CheckpointSeq();
      const uint64_t written = disk_->stats().sectors_written;
      disk_->SetWriteFault(simdisk::SimDisk::WriteFault{.after_writes = 1});
      EXPECT_FALSE(vlog_->WriteCheckpoint(SlicesOf(shadow)).ok());
      disk_->SetWriteFault(std::nullopt);
      EXPECT_EQ(disk_->stats().sectors_written - written, 3u);
      Reopen();
      result = vlog_->Recover();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->used_scan);
      EXPECT_TRUE(result->from_checkpoint);
      EXPECT_EQ(vlog_->CheckpointSeq(), other_slot_seq);
      EXPECT_EQ(result->pieces, shadow);
    }
  }
}

// A checkpoint whose body fails partway leaves its slot's old header in place: a crash then
// recovers from the other slot, the previous checkpoint, plus the log written since. Without a
// crash, the retry rewrites every piece the failed one was to write.
TEST_F(VirtualLogTest, CheckpointWithFailedBodyRecoversThePreviousSlot) {
  Reset(/*pinned_limit=*/64, kManyPieces);
  std::vector<std::vector<uint32_t>> shadow = CommitEveryPiece();
  uint32_t version = kManyPieces;
  // Touches pieces in two runs, so the next checkpoint's body is two writes, and fails the
  // second: the first run's new piece sectors sit in the slot under its old header.
  const auto fail_checkpoint_partway = [&] {
    for (const uint32_t k : {2u, 3u, 15u}) {
      shadow[k] = Entries(++version);
      ASSERT_TRUE(CommitOne(k, shadow[k]).ok());
    }
    const uint64_t previous = vlog_->CheckpointSeq();
    const uint64_t written = disk_->stats().sectors_written;
    disk_->SetWriteFault(simdisk::SimDisk::WriteFault{.after_writes = 1});
    EXPECT_FALSE(vlog_->WriteCheckpoint(SlicesOf(shadow)).ok());
    disk_->SetWriteFault(std::nullopt);
    EXPECT_EQ(disk_->stats().sectors_written - written, 2u) << "the first run landed";
    EXPECT_EQ(vlog_->CheckpointSeq(), previous);
  };
  ASSERT_TRUE(vlog_->WriteCheckpoint(SlicesOf(shadow)).ok());
  ASSERT_TRUE(vlog_->WriteCheckpoint(SlicesOf(shadow)).ok());
  const uint64_t previous = vlog_->CheckpointSeq();
  fail_checkpoint_partway();

  Reopen();  // Crash (no park) -> scan.
  auto result = vlog_->Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->from_checkpoint);
  EXPECT_EQ(vlog_->CheckpointSeq(), previous);
  EXPECT_EQ(result->pieces, shadow);
  RemarkLiveBlocks();
  for (const uint32_t piece : result->uncovered_pieces) {
    ASSERT_TRUE(CommitOne(piece, shadow[piece]).ok());
  }

  // Incremental again, then the failure without a crash: the retry takes the same slot.
  ASSERT_TRUE(vlog_->WriteCheckpoint(SlicesOf(shadow)).ok());
  ASSERT_TRUE(vlog_->WriteCheckpoint(SlicesOf(shadow)).ok());
  fail_checkpoint_partway();
  EXPECT_EQ(SectorsOfCheckpoint(shadow), 4u) << "pieces 2, 3 and 15 and the header";
  const uint64_t retried = vlog_->CheckpointSeq();
  ASSERT_TRUE(vlog_->Park().ok());
  Reopen();
  result = vlog_->Recover();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(vlog_->CheckpointSeq(), retried);
  EXPECT_EQ(result->pieces, shadow);
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
  RunRandomizedCrashRecovery(/*seed=*/20260706, /*rounds=*/30, /*checkpoint_chance=*/0);
}

// The same with checkpoints at random points of a log with more pieces: between two recoveries
// a slot takes several incremental checkpoints, so both recovery paths load slots whose piece
// sectors come from several checkpoints.
TEST_F(VirtualLogTest, RandomizedCrashRecoveryWithCheckpointsMatchesShadow) {
  Reset(/*pinned_limit=*/64, kManyPieces);
  std::array<int, 2> mixed_slot_recoveries{};
  RunRandomizedCrashRecovery(/*seed=*/20261019, /*rounds=*/30, /*checkpoint_chance=*/0.15,
                             &mixed_slot_recoveries);
  EXPECT_GE(mixed_slot_recoveries[0], 5) << "park recoveries from a slot of several checkpoints";
  EXPECT_GE(mixed_slot_recoveries[1], 5) << "scan recoveries from a slot of several checkpoints";
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

// A packed commit places each block from where the previous block's write left the head. The
// first block fills the arm's track, so the second goes to another track; chosen before the
// first was written, it would lie behind the head by then and wait out most of a revolution.
TEST_F(VirtualLogTest, PackedCommitsSecondBlockOnAnotherTrackWaitsNoRevolution) {
  Reset(/*pinned_limit=*/64, kManyPieces);
  // The system region takes blocks 0-6 of track 0, where Format left the arm; block 7 is
  // taken too, so block 8 (sectors 64-71) is the track's one free block.
  space_->MarkLive(7);
  std::vector<VirtualLog::PieceUpdate> updates;
  for (uint32_t k = 0; k < kBlockSectors + 1; ++k) {
    updates.push_back({.piece = k, .entries = Owned(40 + k)});
  }
  clock_.Advance(disk_->RotationalWait(64, clock_.Now()));  // Block 8 arrives now.
  const common::Duration estimated = allocator_->stats().estimated_locate;
  const common::Duration charged = disk_->stats().breakdown.locate;
  ASSERT_TRUE(vlog_->Commit(updates).ok());
  ASSERT_EQ(vlog_->LiveBlockOfPiece(0).value_or(0), 8u);
  const auto second = vlog_->LiveBlockOfPiece(kBlockSectors);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(space_->TrackOfBlock(*second), 0u);
  // The second write pays the head switch and at most one block's rotation.
  EXPECT_LE(disk_->last_request().locate,
            disk_->params().head_switch + disk_->params().SectorTime() * kBlockSectors);
  EXPECT_EQ(allocator_->stats().estimated_locate - estimated,
            disk_->stats().breakdown.locate - charged);
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
