// The virtual log (§3.2): a log of map sectors whose entries are not physically contiguous.
//
// Appending a new version of a piece writes one eager sector whose `prev` pointer is the old
// log tail (the previous tree root) and whose `bypass` pointer is the chain successor of the
// sector it obsoletes, so that sector can usually be recycled immediately without recopying:
// recovery traversal routes around it (the paper's Figure 3b).
//
// Soundness refinement. The paper describes the single-recycle case; when a sector carrying a
// bypass pointer is itself recycled, a naively freed sector can orphan part of the log. This
// implementation therefore tracks a *designated cover* for every non-tail live sector: the
// (unique, in-memory) newer sector whose on-disk pointer guarantees its reachability. The
// invariant is that designated-cover chains have strictly increasing age and terminate at the
// log tail, so every live sector is reachable from the tail through valid sectors. An obsolete
// sector that still carries covers is *pinned* — its block is not recycled until all of its
// cover targets have been re-covered or removed, and the compactor cannot empty its track.
// Pinned sectors are rare and bounded by two rules on one limit. Idle time checkpoints once
// more than half of `pinned_limit` are pinned (IdleCheckpointDue): a checkpoint rewrites every
// piece changed since its slot was last written, so it is worth paying only when pins have piled
// up. When the count exceeds `pinned_limit` anyway, the next append first takes an automatic
// checkpoint (the foreground valve). A checkpoint resets all cover bookkeeping and frees every
// log block.
//
// Recovery bootstraps from the log tail parked at a fixed sector during power-down; if the park
// record is missing or corrupt, a full-disk scan for signed map sectors finds the live map
// instead. A checkpoint (§3.3) bounds both paths: the whole map lies contiguously in a reserved
// region and traversal prunes below the checkpoint sequence number.
//
// The checkpoint region is double-buffered: two slots of (header + one sector per piece),
// written alternately. A slot is written incrementally: each piece carries one dirty bit per
// slot, which every commit sets in both and Format sets everywhere, and a checkpoint writes only
// its slot's dirty pieces (one write per maximal run of them) before clearing that slot's bits.
// Recover sets every bit too, except in the slot it loads for the pieces the log replay did not
// supply: that slot already holds them. Every clean piece sector still holds what an earlier
// checkpoint into the slot wrote, which no commit has changed since, so the slot holds the whole
// map once its header lands; its piece sectors carry sequence numbers up to the header's. Within
// a slot the piece sectors go down first and the CRC-signed header last, so the header write is
// the commit point; a crash anywhere in the middle leaves the previous checkpoint (in the other
// slot, which this one never writes) intact. Recovery trusts the newest slot whose header parses.
//
// Format epoch. Every map sector's CRC is seeded with the log's format epoch, a counter bumped
// by each Format() over the same media. A scan recovery therefore only accepts sectors signed
// under the current generation — sequence numbers restarting at 1 after a reformat can never
// collide with an old generation's surviving sectors. The epoch lives redundantly in the park
// record and in both checkpoint-slot headers (Format stamps both), so it survives any single
// damaged sector; a cleared park record still carries it (with `parked` false, which routes
// recovery to the scan path exactly like the old zeroed-sector clearing did).
//
// One commit (Commit()). Every map update, of one piece or of many, is the same step: new map
// sectors are written near the head and chained by prev/bypass pointers. A single piece is one
// standalone sector (txn_id 0). Several pieces form one transaction: their sectors share a
// txn_id and are packed contiguously into whole physical blocks (block_sectors map sectors per
// block), one media write per block, so a queue's worth of eager writes costs one or two log
// writes instead of one per request (§4.2's group commit). Each block is placed eagerly from
// where the previous block's write left the head. Packing means a log block can hold
// several live (or pinned) sectors; a block is recycled only when its last live/pinned sector
// leaves. In-memory state moves only once every write of the commit has landed, so a failed
// commit leaves the log as it was.
#ifndef SRC_CORE_VIRTUAL_LOG_H_
#define SRC_CORE_VIRTUAL_LOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/core/eager_allocator.h"
#include "src/core/map_sector.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {

struct VirtualLogConfig {
  uint32_t pieces = 0;         // Number of map pieces (ceil(logical blocks / entries/sector)).
  uint32_t block_sectors = 8;  // Physical block size in sectors.
  simdisk::Lba park_lba = 0;   // The landing-zone sector holding the parked tail.
  simdisk::Lba checkpoint_lba = 1;  // First sector of the reserved (double-slot) checkpoint region.
  // Auto-checkpoint when more obsolete sectors than this are pinned; idle time checkpoints
  // above half of it (VirtualLog::IdleCheckpointDue).
  uint32_t pinned_limit = 64;
  // Issue durability barriers (disk Flush) where recoverability depends on write ordering:
  // around every map append (data blocks before their map sectors, commits before the next
  // ack), between a checkpoint's body and its header, and around the park record. Free no-ops
  // on a write-through disk. Disable only to demonstrate that a write-back cache breaks the
  // log without them (the crash sweep's negative control).
  bool barriers = true;
};

struct RecoveryResult {
  // Recovered entries per piece; an empty vector means the piece was never written.
  std::vector<std::vector<uint32_t>> pieces;
  bool used_scan = false;         // True when the park record was unusable.
  bool from_checkpoint = false;   // True when a checkpoint seeded part of the map.
  uint64_t sectors_read = 0;      // Log sectors examined (traversal or scan).
  uint64_t discarded_txn_sectors = 0;  // Tail sectors dropped from an incomplete transaction.
  // Live pieces for which no surviving sector holds a pointer (possible only on the scan path);
  // the caller should re-append them promptly so traversal-based recovery can find them again.
  std::vector<uint32_t> uncovered_pieces;
};

struct VirtualLogStats {
  uint64_t appends = 0;
  uint64_t recycled_blocks = 0;  // Obsolete map-sector blocks returned to the free pool.
  uint64_t pinned_peak = 0;      // High-water mark of simultaneously pinned sectors.
  uint64_t checkpoints = 0;
  uint64_t auto_checkpoints = 0;  // Checkpoints forced by the pinned-sector valve.
  uint64_t checkpoint_sectors = 0;  // Sectors checkpoints wrote: their piece sectors and headers.
  uint64_t packed_transactions = 0;  // Multi-piece commits (their sectors share blocks).
  uint64_t packed_sectors = 0;       // Map sectors written by multi-piece commits.

  // Snapshot/diff: stats are plain values, so a measurement window is a copy + subtraction.
  VirtualLogStats operator-(const VirtualLogStats& rhs) const {
    VirtualLogStats d;
    d.appends = appends - rhs.appends;
    d.recycled_blocks = recycled_blocks - rhs.recycled_blocks;
    // High-water marks do not difference meaningfully; keep the window-end value.
    d.pinned_peak = pinned_peak;
    d.checkpoints = checkpoints - rhs.checkpoints;
    d.auto_checkpoints = auto_checkpoints - rhs.auto_checkpoints;
    d.checkpoint_sectors = checkpoint_sectors - rhs.checkpoint_sectors;
    d.packed_transactions = packed_transactions - rhs.packed_transactions;
    d.packed_sectors = packed_sectors - rhs.packed_sectors;
    return d;
  }
};

class VirtualLog {
 public:
  VirtualLog(simdisk::SimDisk* disk, EagerAllocator* allocator, VirtualLogConfig config);

  // Initializes an empty log on a fresh disk: zeroes the park record. The caller is responsible
  // for having marked the park/checkpoint region as system blocks.
  common::Status Format();

  // Entries are passed as slices of the owner's map (at most kEntriesPerSector each) and are
  // read only during the call they are passed to: a map write serializes them straight from
  // the map instead of copying them first.
  using EntriesOfPiece = std::function<std::span<const uint32_t>(uint32_t piece)>;

  // Supplies current entries of a piece, enabling automatic checkpoints (the valve above).
  void SetEntriesProvider(EntriesOfPiece provider) { entries_provider_ = std::move(provider); }

  struct PieceUpdate {
    uint32_t piece;
    // Must stay valid until the commit returns: a span binds to a temporary vector too.
    std::span<const uint32_t> entries;
  };
  // Atomically writes new versions of distinct pieces. One update writes one standalone
  // sector; N >= 2 share a transaction id and pack into ceil(N / block_sectors) whole-block
  // writes. Recovery discards a trailing transaction whose sectors are not all present, so
  // either every piece update takes effect or none does. The sequence is the same for every
  // commit: the automatic checkpoint (the valve above), a barrier, one check that every block
  // fits, then each block allocated just before it is written (so the next is placed from where
  // that write left the head), and a second barrier; only then do the chain, covers and pins
  // move and the obsoleted sectors get recycled. A commit that fails frees the blocks it
  // allocated and changes no in-memory state.
  common::Status Commit(std::span<const PieceUpdate> updates);

  // Whether a commit of `updates` piece updates finds a free block for every block it writes,
  // counting the log blocks its automatic checkpoint would free first. A commit that fails this
  // check would fail before writing anything, so callers check it before changing their own
  // state.
  bool HasRoomFor(size_t updates) const;

  // The foreground valve: checkpoints when more than `pinned_limit` sectors are pinned, and
  // does nothing otherwise. Commit runs it first; a caller that changes the map its entries
  // provider reads before committing runs it before that change, so the checkpoint never
  // records translations whose commit may still fail.
  common::Status MaybeAutoCheckpoint();

  // Brings the next checkpoint slot up to the whole map, frees all log blocks (live and
  // pinned), and resets the chain. Only the slot's dirty pieces are written, one write per
  // maximal run of them, then the header; `entries_of_piece(k)` must return the current entries
  // of piece k and is asked only for those pieces. A checkpoint that fails leaves the slot's
  // dirty bits set, so the next one rewrites every piece this one may have torn.
  common::Status WriteCheckpoint(const EntriesOfPiece& entries_of_piece);

  // Firmware power-down: records the log tail (and checkpoint seq) at the park sector.
  common::Status Park();

  // Rebuilds the in-memory state from disk. Uses the parked tail when valid (then clears it),
  // otherwise falls back to scanning the disk for signed map sectors. The allocator's free-space
  // map must already have system blocks marked; the caller re-marks live blocks afterwards
  // (data blocks from the recovered map, map blocks from LiveBlockOfPiece and PinnedBlocks).
  common::StatusOr<RecoveryResult> Recover();

  // The physical block currently holding `piece`'s live map sector (nullopt when the piece has
  // never been written or lives in the checkpoint region).
  std::optional<uint32_t> LiveBlockOfPiece(uint32_t piece) const;
  // All pieces whose live map sectors occupy `block` (several when a packed transaction shared
  // the block). Empty when the block holds no live map sector. Used by the compactor.
  std::vector<uint32_t> PiecesAtBlock(uint32_t block) const;
  // Whether `block` holds any live or pinned map sector. With PiecesAtBlock empty, the block
  // holds pinned sectors only, which no compaction can move until a checkpoint releases them.
  bool HoldsLogSectors(uint32_t block) const { return block_sector_count_.contains(block); }
  // Blocks held only because an obsolete sector in them still covers live sectors (one entry
  // per pinned sector, so a block holding two appears twice).
  std::vector<uint32_t> PinnedBlocks() const;
  // Pinned sectors whose blocks lie in `track`. The compactor never picks a track holding one,
  // because a pinned sector's on-disk pointers are load-bearing and it cannot be moved.
  uint32_t PinnedInTrack(uint64_t track) const { return pinned_in_track_[track]; }

  uint64_t NextSeq() const { return next_seq_; }
  uint64_t CheckpointSeq() const { return checkpoint_seq_; }
  // The format generation; bumped by every Format() over the same media and mixed into every
  // map sector's CRC seed.
  uint64_t Epoch() const { return epoch_; }
  size_t PinnedCount() const { return pinned_.size(); }
  // Whether idle time should checkpoint: more than half of `pinned_limit` sectors are pinned.
  // Idle time then releases the pins before the foreground valve has to, and a few pins never
  // cost a checkpoint.
  bool IdleCheckpointDue() const { return pinned_.size() > config_.pinned_limit / 2; }
  const VirtualLogStats& stats() const { return stats_; }
  const VirtualLogConfig& config() const { return config_; }
  // Sectors in one checkpoint slot: one header plus one per piece.
  uint32_t CheckpointSlotSectors() const { return config_.pieces + 1; }
  // Total sectors of the reserved checkpoint region (both slots).
  uint32_t CheckpointSectors() const { return 2 * CheckpointSlotSectors(); }
  // Reserved sectors at the front of the disk for the default layout (park at sector 0,
  // checkpoint region right behind it): park + two checkpoint slots.
  static constexpr uint32_t ReservedSectors(uint32_t pieces) { return 1 + 2 * (pieces + 1); }

 private:
  struct PieceState {
    DiskPtr loc;                // Live sector (null = never written or checkpoint-resident).
    bool in_checkpoint = false;
  };
  struct ChainNode {
    uint32_t piece;
    simdisk::Lba lba;
    // Intrusive age-ordered list links: the next-older / next-newer live sequence (0 = none;
    // sequences start at 1 so 0 is a safe sentinel).
    uint64_t older = 0;
    uint64_t newer = 0;
  };
  // One sector of the commit in flight, from serialization until its state is applied.
  struct CommitSector {
    simdisk::Lba lba;
    DiskPtr bypass;     // As written: the chain successor of `obsoleted`.
    DiskPtr obsoleted;  // The piece's live sector before the commit (null when none).
  };

  DiskPtr ChainHead() const;
  // Chain successor (next older live sector) of the live sector with sequence `seq`.
  DiskPtr ChainSuccessorOf(uint64_t seq) const;

  // --- Intrusive chain list maintenance ---
  // Appends carry the largest sequence so far (push at the newest end); recovery applies
  // sectors youngest-first (push at the oldest end). Both are O(1).
  void ChainPushNewest(uint64_t seq, uint32_t piece, simdisk::Lba lba);
  void ChainPushOldest(uint64_t seq, uint32_t piece, simdisk::Lba lba);
  void ChainErase(uint64_t seq);
  void ChainClear();

  // --- Per-block sector refcounts (packed transactions share blocks) ---
  void NoteSectorInBlock(uint32_t block);
  // Releases one live/pinned sector from `block`, recycling the block when it was the last.
  void ReleaseSectorInBlock(uint32_t block);

  // The newest epoch recorded in a valid checkpoint-slot header (0 when neither parses). The
  // fallback epoch source when the park record is unreadable.
  common::StatusOr<uint64_t> EpochFromCheckpointHeaders();

  // --- Designated-cover bookkeeping ---
  void SetCover(uint64_t target_seq, uint64_t carrier_seq);
  void DropCover(uint64_t target_seq);
  void DecrementLoad(uint64_t carrier_seq);
  // Called when a sector leaves the live chain: pins it if it still carries covers, otherwise
  // recycles its block.
  void RemoveObsolete(uint32_t block, uint64_t seq);
  // Pinned-set maintenance, keeping pinned_in_track_ and the peak in step with pinned_.
  void Pin(uint64_t seq, uint32_t block);
  void ClearPins();
  void FreeLogBlock(uint32_t block);

  simdisk::Lba CkptSlotLba(uint32_t slot) const {
    return config_.checkpoint_lba + slot * CheckpointSlotSectors();
  }

  // Durability barrier: flushes the disk's write-back cache (no-op when disabled by config or
  // when the disk has no cache).
  common::Status Barrier();

  // Commit's argument check: every piece in range, none twice.
  common::Status CheckPieces(std::span<const PieceUpdate> updates);
  // The pinned-sector valve: every commit first checkpoints when this holds.
  bool AutoCheckpointDue() const {
    return pinned_.size() > config_.pinned_limit && entries_provider_ != nullptr;
  }
  common::Status WritePark(bool clear);
  common::StatusOr<RecoveryResult> RecoverFromTail(DiskPtr tail, uint64_t checkpoint_seq);
  common::StatusOr<RecoveryResult> RecoverByScan();
  // Shared tail of both recovery paths: pick the youngest complete version per piece, fill from
  // the checkpoint, rebuild chain and cover state.
  common::StatusOr<RecoveryResult> ApplyRecovered(
      std::vector<std::pair<simdisk::Lba, MapSector>> sectors, uint64_t checkpoint_seq,
      bool used_scan, uint64_t sectors_read);
  common::StatusOr<std::vector<std::vector<uint32_t>>> LoadCheckpoint(uint64_t checkpoint_seq);

  simdisk::SimDisk* disk_;
  EagerAllocator* allocator_;
  VirtualLogConfig config_;
  uint64_t next_seq_ = 1;
  uint64_t checkpoint_seq_ = 0;  // 0 = no checkpoint taken.
  uint64_t epoch_ = 0;           // Format generation (CRC seed); 0 = never formatted.
  uint32_t next_ckpt_slot_ = 0;  // Slot the next checkpoint writes to (alternates).
  std::vector<PieceState> piece_state_;
  // Live map sectors keyed by sequence, threaded into a doubly-linked list ordered by age
  // (chain_oldest_ .. chain_newest_ via ChainNode::older/newer). Replaces a std::map: the
  // append path paid a red-black-tree node allocation and rebalance per map write, while every
  // ordered use here only ever needs the two ends, a neighbor, or a full ascending walk.
  std::unordered_map<uint64_t, ChainNode> chain_;
  uint64_t chain_oldest_ = 0;  // Smallest live seq (0 = chain empty).
  uint64_t chain_newest_ = 0;  // Largest live seq (0 = chain empty).
  // Physical block -> number of live or pinned map sectors it holds (absent = none). A block is
  // returned to the free pool only when its count reaches zero.
  std::unordered_map<uint32_t, uint32_t> block_sector_count_;
  // Designated covers: target sector -> the newer sector whose on-disk pointer keeps it
  // reachable. Every live or pinned sector except the tail has exactly one entry.
  std::unordered_map<uint64_t, uint64_t> cover_of_;
  std::unordered_map<uint64_t, uint32_t> carrier_load_;  // carrier -> number of cover targets.
  std::unordered_map<uint64_t, uint32_t> pinned_;  // Obsolete carrier seq -> its physical block.
  // Track -> pinned sectors in it (see PinnedInTrack). 16 bits suffice: every pinned sector
  // occupies its own sector of the track, and no modeled track has 65,536 sectors.
  std::vector<uint16_t> pinned_in_track_;
  EntriesOfPiece entries_provider_;
  // Commit's working state, kept across calls so a commit reuses its buffers instead of
  // allocating them: the blocks it writes, its sectors, their bytes, and the pieces it has seen.
  std::vector<uint32_t> commit_blocks_;
  std::vector<CommitSector> commit_sectors_;
  std::vector<std::byte> commit_buffer_;
  std::vector<bool> in_commit_;
  // Per piece, bit `slot` set when that checkpoint slot's copy of the piece may be stale.
  std::vector<uint8_t> ckpt_dirty_;
  VirtualLogStats stats_;
};

}  // namespace vlog::core

#endif  // SRC_CORE_VIRTUAL_LOG_H_
