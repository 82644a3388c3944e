#include "src/core/virtual_log.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <set>
#include <unordered_set>

#include "src/common/bytes.h"
#include "src/common/crc32.h"

namespace vlog::core {
namespace {

constexpr uint64_t kParkMagic = 0x564c4f475041524bULL;  // "VLOGPARK"
constexpr uint64_t kCkptMagic = 0x564c4f47434b5054ULL;  // "VLOGCKPT"
constexpr uint32_t kSectorBytes = kMapSectorBytes;
constexpr uint8_t kBothSlots = 0b11;  // A piece's checkpoint dirty bits: one per slot.

// The park record and the checkpoint headers carry the format epoch in the clear (their own
// CRCs use the default seed): they are how recovery learns which generation's map-sector CRC
// seed to use. `parked` distinguishes a real power-down park (trust the tail) from a cleared
// record (scan) — a cleared record still names the epoch, which a zeroed sector could not.
struct ParkRecord {
  DiskPtr tail;
  uint64_t checkpoint_seq = 0;
  uint64_t next_seq = 1;
  uint64_t epoch = 0;
  bool parked = false;
};

std::vector<std::byte> SerializePark(const ParkRecord& rec) {
  std::vector<std::byte> raw(kSectorBytes);
  std::span<std::byte> out(raw);
  common::StoreLe<uint64_t>(out, 0, kParkMagic);
  common::StoreLe<uint64_t>(out, 8, rec.tail.lba);
  common::StoreLe<uint64_t>(out, 16, rec.tail.seq);
  common::StoreLe<uint64_t>(out, 24, rec.checkpoint_seq);
  common::StoreLe<uint64_t>(out, 32, rec.next_seq);
  common::StoreLe<uint64_t>(out, 40, rec.epoch);
  common::StoreLe<uint32_t>(out, 48, rec.parked ? 1 : 0);
  common::StoreLe<uint32_t>(
      out, kSectorBytes - 4,
      common::Crc32c(std::span<const std::byte>(raw).first(kSectorBytes - 4)));
  return raw;
}

std::optional<ParkRecord> ParsePark(std::span<const std::byte> raw) {
  if (common::LoadLe<uint64_t>(raw, 0) != kParkMagic) {
    return std::nullopt;
  }
  if (common::LoadLe<uint32_t>(raw, kSectorBytes - 4) !=
      common::Crc32c(raw.first(kSectorBytes - 4))) {
    return std::nullopt;
  }
  ParkRecord rec;
  rec.tail.lba = common::LoadLe<uint64_t>(raw, 8);
  rec.tail.seq = common::LoadLe<uint64_t>(raw, 16);
  rec.checkpoint_seq = common::LoadLe<uint64_t>(raw, 24);
  rec.next_seq = common::LoadLe<uint64_t>(raw, 32);
  rec.epoch = common::LoadLe<uint64_t>(raw, 40);
  rec.parked = common::LoadLe<uint32_t>(raw, 48) != 0;
  return rec;
}

std::vector<std::byte> SerializeCkptHeader(uint64_t seq, uint32_t pieces, uint64_t epoch) {
  std::vector<std::byte> raw(kSectorBytes);
  std::span<std::byte> out(raw);
  common::StoreLe<uint64_t>(out, 0, kCkptMagic);
  common::StoreLe<uint64_t>(out, 8, seq);
  common::StoreLe<uint32_t>(out, 16, pieces);
  common::StoreLe<uint64_t>(out, 20, epoch);
  common::StoreLe<uint32_t>(
      out, kSectorBytes - 4,
      common::Crc32c(std::span<const std::byte>(raw).first(kSectorBytes - 4)));
  return raw;
}

struct CkptHeader {
  uint64_t seq = 0;
  uint32_t pieces = 0;
  uint64_t epoch = 0;
};

std::optional<CkptHeader> ParseCkptHeader(std::span<const std::byte> raw) {
  if (common::LoadLe<uint64_t>(raw, 0) != kCkptMagic) {
    return std::nullopt;
  }
  if (common::LoadLe<uint32_t>(raw, kSectorBytes - 4) !=
      common::Crc32c(raw.first(kSectorBytes - 4))) {
    return std::nullopt;
  }
  return CkptHeader{common::LoadLe<uint64_t>(raw, 8), common::LoadLe<uint32_t>(raw, 16),
                    common::LoadLe<uint64_t>(raw, 20)};
}

}  // namespace

VirtualLog::VirtualLog(simdisk::SimDisk* disk, EagerAllocator* allocator, VirtualLogConfig config)
    : disk_(disk), allocator_(allocator), config_(config) {
  piece_state_.resize(config_.pieces);
  in_commit_.assign(config_.pieces, false);
  ckpt_dirty_.assign(config_.pieces, kBothSlots);
  assert(disk_->geometry().sectors_per_track <= UINT16_MAX && "pinned_in_track_ is 16-bit");
  pinned_in_track_.assign(allocator_->space().total_tracks(), 0);
}

common::StatusOr<uint64_t> VirtualLog::EpochFromCheckpointHeaders() {
  uint64_t epoch = 0;
  std::vector<std::byte> raw(kSectorBytes);
  for (uint32_t slot = 0; slot < 2; ++slot) {
    RETURN_IF_ERROR(disk_->InternalRead(CkptSlotLba(slot), raw));
    if (const auto header = ParseCkptHeader(raw)) {
      epoch = std::max(epoch, header->epoch);
    }
  }
  return epoch;
}

common::Status VirtualLog::Format() {
  // Bump the format epoch past any generation this media has seen: the park record is the
  // primary carrier, the checkpoint headers the fallback (at most one of the three sectors can
  // be lost to a single crashed write, so the previous epoch is always recoverable here).
  uint64_t prev_epoch = 0;
  {
    std::vector<std::byte> raw(kSectorBytes);
    RETURN_IF_ERROR(disk_->InternalRead(config_.park_lba, raw));
    if (const auto park = ParsePark(raw)) {
      prev_epoch = park->epoch;
    } else {
      ASSIGN_OR_RETURN(prev_epoch, EpochFromCheckpointHeaders());
    }
  }
  epoch_ = prev_epoch + 1;
  next_seq_ = 1;
  checkpoint_seq_ = 0;
  next_ckpt_slot_ = 0;
  // The slots hold no piece of this generation: the first checkpoint into each writes them all.
  ckpt_dirty_.assign(config_.pieces, kBothSlots);
  piece_state_.assign(config_.pieces, PieceState{});
  ChainClear();
  block_sector_count_.clear();
  cover_of_.clear();
  carrier_load_.clear();
  ClearPins();
  chain_.reserve(config_.pieces * 2);
  cover_of_.reserve(config_.pieces * 2);
  carrier_load_.reserve(config_.pieces * 2);
  // Stamp both checkpoint slots with the new epoch and seq 0 ("no checkpoint"): this both
  // invalidates any stale checkpoint from a previous life of the media (a scan would otherwise
  // trust an old map over the new log) and makes the new epoch recoverable even if a later
  // crash damages the park sector before the first checkpoint completes.
  RETURN_IF_ERROR(disk_->InternalWrite(CkptSlotLba(0),
                                       SerializeCkptHeader(/*seq=*/0, config_.pieces, epoch_)));
  RETURN_IF_ERROR(disk_->InternalWrite(CkptSlotLba(1),
                                       SerializeCkptHeader(/*seq=*/0, config_.pieces, epoch_)));
  return WritePark(/*clear=*/true);
}

DiskPtr VirtualLog::ChainHead() const {
  if (chain_newest_ == 0) {
    return DiskPtr{};
  }
  return DiskPtr{chain_.at(chain_newest_).lba, chain_newest_};
}

DiskPtr VirtualLog::ChainSuccessorOf(uint64_t seq) const {
  const auto it = chain_.find(seq);
  assert(it != chain_.end());
  const uint64_t older = it->second.older;
  if (older == 0) {
    return DiskPtr{};
  }
  return DiskPtr{chain_.at(older).lba, older};
}

void VirtualLog::ChainPushNewest(uint64_t seq, uint32_t piece, simdisk::Lba lba) {
  assert(seq > chain_newest_);
  chain_.emplace(seq, ChainNode{piece, lba, chain_newest_, 0});
  if (chain_newest_ != 0) {
    chain_.at(chain_newest_).newer = seq;
  } else {
    chain_oldest_ = seq;
  }
  chain_newest_ = seq;
}

void VirtualLog::ChainPushOldest(uint64_t seq, uint32_t piece, simdisk::Lba lba) {
  assert(chain_oldest_ == 0 || seq < chain_oldest_);
  chain_.emplace(seq, ChainNode{piece, lba, 0, chain_oldest_});
  if (chain_oldest_ != 0) {
    chain_.at(chain_oldest_).older = seq;
  } else {
    chain_newest_ = seq;
  }
  chain_oldest_ = seq;
}

void VirtualLog::ChainErase(uint64_t seq) {
  const auto it = chain_.find(seq);
  if (it == chain_.end()) {
    return;
  }
  const ChainNode node = it->second;
  chain_.erase(it);
  if (node.older != 0) {
    chain_.at(node.older).newer = node.newer;
  } else {
    chain_oldest_ = node.newer;
  }
  if (node.newer != 0) {
    chain_.at(node.newer).older = node.older;
  } else {
    chain_newest_ = node.older;
  }
}

void VirtualLog::ChainClear() {
  chain_.clear();
  chain_oldest_ = 0;
  chain_newest_ = 0;
}

void VirtualLog::FreeLogBlock(uint32_t block) {
  allocator_->Free(block);
  ++stats_.recycled_blocks;
}

void VirtualLog::NoteSectorInBlock(uint32_t block) { ++block_sector_count_[block]; }

void VirtualLog::ReleaseSectorInBlock(uint32_t block) {
  const auto it = block_sector_count_.find(block);
  assert(it != block_sector_count_.end() && it->second > 0);
  if (--it->second > 0) {
    return;  // A packed sibling (live or pinned) still occupies the block.
  }
  block_sector_count_.erase(it);
  FreeLogBlock(block);
}

void VirtualLog::SetCover(uint64_t target_seq, uint64_t carrier_seq) {
  DropCover(target_seq);
  cover_of_[target_seq] = carrier_seq;
  ++carrier_load_[carrier_seq];
}

void VirtualLog::DropCover(uint64_t target_seq) {
  const auto it = cover_of_.find(target_seq);
  if (it == cover_of_.end()) {
    return;
  }
  const uint64_t carrier = it->second;
  cover_of_.erase(it);
  DecrementLoad(carrier);
}

void VirtualLog::DecrementLoad(uint64_t carrier_seq) {
  const auto it = carrier_load_.find(carrier_seq);
  assert(it != carrier_load_.end() && it->second > 0);
  if (--it->second > 0) {
    return;
  }
  carrier_load_.erase(it);
  // An unloaded pinned sector has served its purpose: recycle it (possibly cascading).
  const auto pin = pinned_.find(carrier_seq);
  if (pin != pinned_.end()) {
    const uint32_t block = pin->second;
    pinned_.erase(pin);
    --pinned_in_track_[allocator_->space().TrackOfBlock(block)];
    DropCover(carrier_seq);
    ReleaseSectorInBlock(block);
  }
}

void VirtualLog::RemoveObsolete(uint32_t block, uint64_t seq) {
  ChainErase(seq);
  if (carrier_load_.contains(seq)) {
    // Still the designated cover of a younger removal's bypass target: keep the sector readable
    // until every dependent has been re-covered or removed. Its block refcount is kept too.
    Pin(seq, block);
  } else {
    DropCover(seq);
    ReleaseSectorInBlock(block);
  }
}

void VirtualLog::Pin(uint64_t seq, uint32_t block) {
  pinned_.emplace(seq, block);
  ++pinned_in_track_[allocator_->space().TrackOfBlock(block)];
  stats_.pinned_peak = std::max<uint64_t>(stats_.pinned_peak, pinned_.size());
}

void VirtualLog::ClearPins() {
  for (const auto& [seq, block] : pinned_) {
    --pinned_in_track_[allocator_->space().TrackOfBlock(block)];
  }
  pinned_.clear();
}

common::Status VirtualLog::MaybeAutoCheckpoint() {
  if (!AutoCheckpointDue()) {
    return common::OkStatus();
  }
  ++stats_.auto_checkpoints;
  return WriteCheckpoint(entries_provider_);
}

common::Status VirtualLog::Barrier() {
  if (!config_.barriers) {
    return common::OkStatus();
  }
  return disk_->Flush();
}

common::Status VirtualLog::CheckPieces(std::span<const PieceUpdate> updates) {
  size_t checked = 0;
  while (checked < updates.size()) {
    const uint32_t piece = updates[checked].piece;
    if (piece >= config_.pieces || in_commit_[piece]) {
      break;
    }
    in_commit_[piece] = true;
    ++checked;
  }
  for (size_t i = 0; i < checked; ++i) {
    in_commit_[updates[i].piece] = false;
  }
  if (checked < updates.size()) {
    return common::InvalidArgument(
        "VirtualLog::Commit: piece out of range or repeated (merge entries first)");
  }
  return common::OkStatus();
}

common::Status VirtualLog::Commit(std::span<const PieceUpdate> updates) {
  if (updates.empty()) {
    return common::OkStatus();
  }
  RETURN_IF_ERROR(CheckPieces(updates));
  RETURN_IF_ERROR(MaybeAutoCheckpoint());
  // Neither checkpoint slot holds these pieces' new entries. Marked before anything is written,
  // so even after a failed commit the next checkpoint writes what the entries provider holds.
  for (const PieceUpdate& update : updates) {
    ckpt_dirty_[update.piece] = kBothSlots;
  }
  // Pre-barrier: the data blocks these map sectors point at must be on media before the sectors
  // can land (a reordered destage would otherwise commit a mapping to lost data).
  RETURN_IF_ERROR(Barrier());

  // A single piece is one standalone sector; a transaction fills whole blocks, so a block
  // holds sectors of one commit only.
  const size_t n = updates.size();
  const uint32_t per_block = config_.block_sectors;
  const size_t write_sectors = n == 1 ? 1 : per_block;
  const size_t blocks = (n + per_block - 1) / per_block;
  const auto free_blocks = [this] {
    for (const uint32_t block : commit_blocks_) {
      allocator_->Free(block);
    }
  };
  // Room for every block is checked once, up front, so no block is written unless all fit.
  // Each block is then allocated just before it is written, from where the head is after the
  // block before it.
  if (!HasRoomFor(n)) {
    return common::OutOfSpace("virtual log: no free block for map sectors");
  }

  // The first sector's sequence number doubles as a never-reused transaction id. Each sector's
  // prev is the one before it (the old log tail for the first); its bypass is the chain
  // successor of the sector it obsoletes. Pointers only reach back, so a block's sectors can be
  // serialized once its own block is chosen.
  //
  // One media write per block. A crash tearing any of them leaves an incomplete transaction
  // whose surviving sectors recovery discards wholesale (all-or-nothing). The post-barrier makes
  // the commit durable before any request it covers is acknowledged.
  const uint64_t first_seq = next_seq_;
  commit_blocks_.clear();
  commit_sectors_.clear();
  DiskPtr prev = ChainHead();
  for (size_t b = 0; b < blocks; ++b) {
    // Only a one-block commit can find no block here (the compactor's hole-plug pick never
    // takes its victim's free blocks), and it has written nothing yet.
    const auto block = allocator_->Allocate();
    if (!block) {
      assert(b == 0 && "only a one-block commit can fail to allocate");
      free_blocks();
      return common::OutOfSpace("virtual log: no free block for map sectors");
    }
    commit_blocks_.push_back(*block);
    const simdisk::Lba lba = allocator_->space().BlockToLba(*block);
    commit_buffer_.assign(write_sectors * kSectorBytes, std::byte{0});
    const size_t end = std::min(n, (b + 1) * per_block);
    for (size_t i = b * per_block; i < end; ++i) {
      const uint32_t piece = updates[i].piece;
      CommitSector cs{lba + i % per_block, DiskPtr{}, DiskPtr{}};
      const PieceState& old = piece_state_[piece];
      if (!old.loc.IsNull() && !old.in_checkpoint) {
        cs.obsoleted = old.loc;
        cs.bypass = ChainSuccessorOf(old.loc.seq);
      }
      MapSector sector;
      sector.seq = first_seq + i;
      sector.piece = piece;
      sector.txn_id = n == 1 ? 0 : first_seq;
      sector.txn_index = static_cast<uint16_t>(i);
      sector.txn_total = static_cast<uint16_t>(n);
      sector.prev = prev;
      sector.bypass = cs.bypass;
      sector.SerializeInto(std::span<std::byte>(commit_buffer_)
                               .subspan((i % per_block) * kSectorBytes, kSectorBytes),
                           updates[i].entries, epoch_);
      prev = DiskPtr{cs.lba, sector.seq};
      commit_sectors_.push_back(cs);
    }
    if (const common::Status st = disk_->InternalWrite(lba, commit_buffer_); !st.ok()) {
      free_blocks();
      return st;
    }
    if (obs::TraceRecorder* tracer = disk_->tracer(); tracer != nullptr) {
      tracer->Annotate(obs::EventType::kMapAppend, obs::Layer::kVlog, end - b * per_block, lba);
    }
  }
  if (const common::Status st = Barrier(); !st.ok()) {
    free_blocks();
    return st;
  }

  // Commit point passed: move the chain. Designated covers: each sector's prev edge covers the
  // sector before it (even the one being obsoleted: if it ends up pinned, this edge is what keeps
  // it reachable) and its bypass edge covers the obsoleted sector's chain successor.
  DiskPtr head = ChainHead();
  for (size_t i = 0; i < n; ++i) {
    const CommitSector& cs = commit_sectors_[i];
    const uint64_t seq = first_seq + i;
    if (!head.IsNull()) {
      SetCover(head.seq, seq);
    }
    if (!cs.bypass.IsNull()) {
      SetCover(cs.bypass.seq, seq);
    }
    ChainPushNewest(seq, updates[i].piece, cs.lba);
    NoteSectorInBlock(commit_blocks_[i / per_block]);
    piece_state_[updates[i].piece] = PieceState{DiskPtr{cs.lba, seq}, false};
    head = DiskPtr{cs.lba, seq};
  }
  next_seq_ += n;
  stats_.appends += n;
  // Recycle the obsoleted sectors only after every new one is chained: a later sector's
  // bypass may cover an earlier sector's obsoleted one.
  for (const CommitSector& cs : commit_sectors_) {
    if (!cs.obsoleted.IsNull()) {
      RemoveObsolete(allocator_->space().LbaToBlock(cs.obsoleted.lba), cs.obsoleted.seq);
    }
  }
  if (n > 1) {
    ++stats_.packed_transactions;
    stats_.packed_sectors += n;
  }
  return common::OkStatus();
}

bool VirtualLog::HasRoomFor(size_t updates) const {
  const size_t blocks = (updates + config_.block_sectors - 1) / config_.block_sectors;
  uint64_t available = allocator_->space().free_blocks();
  if (AutoCheckpointDue()) {
    available += block_sector_count_.size();  // The checkpoint recycles every log block.
  }
  return available >= blocks;
}

common::Status VirtualLog::WriteCheckpoint(const EntriesOfPiece& entries_of_piece) {
  const uint64_t seq = next_seq_++;
  const uint32_t slot = next_ckpt_slot_;
  const uint8_t dirty = static_cast<uint8_t>(1u << slot);
  // Piece sectors first, CRC-signed header last: the header write is the commit point. A crash
  // before it leaves the other slot's checkpoint (and the log it bounds) untouched. Only the
  // pieces this slot is missing go down, one write per maximal run of them; every other piece
  // sector already holds the piece's current entries, under an older checkpoint's sequence
  // number. The barrier between body and header keeps a destage reorder from committing a
  // header over a stale body; the one after makes the checkpoint durable before its log blocks
  // are recycled for reuse.
  uint32_t piece_sectors = 0;
  // One run's piece sectors, reused across the runs of this checkpoint only: the first
  // checkpoint into a slot writes the whole map, which a full-size map makes megabytes.
  std::vector<std::byte> run_bytes;
  for (uint32_t begin = 0; begin < config_.pieces;) {
    if ((ckpt_dirty_[begin] & dirty) == 0) {
      ++begin;
      continue;
    }
    uint32_t end = begin + 1;
    while (end < config_.pieces && (ckpt_dirty_[end] & dirty) != 0) {
      ++end;
    }
    run_bytes.resize(static_cast<size_t>(end - begin) * kSectorBytes);
    const std::span<std::byte> run(run_bytes);
    for (uint32_t k = begin; k < end; ++k) {
      MapSector sector;
      sector.seq = seq;
      sector.piece = k;
      sector.SerializeInto(run.subspan(static_cast<size_t>(k - begin) * kSectorBytes),
                           entries_of_piece(k), epoch_);
    }
    RETURN_IF_ERROR(disk_->InternalWrite(CkptSlotLba(slot) + 1 + begin, run_bytes));
    piece_sectors += end - begin;
    begin = end;
  }
  RETURN_IF_ERROR(Barrier());
  RETURN_IF_ERROR(
      disk_->InternalWrite(CkptSlotLba(slot), SerializeCkptHeader(seq, config_.pieces, epoch_)));
  RETURN_IF_ERROR(Barrier());
  next_ckpt_slot_ = 1 - slot;
  for (uint8_t& bits : ckpt_dirty_) {
    bits &= static_cast<uint8_t>(~dirty);
  }
  if (obs::TraceRecorder* tracer = disk_->tracer(); tracer != nullptr) {
    tracer->Annotate(obs::EventType::kCheckpoint, obs::Layer::kVlog, seq, piece_sectors);
  }

  // Every log sector — live or pinned — is now redundant: recycle every block that holds one
  // (each block exactly once, however many packed sectors it carries).
  for (const auto& [block, count] : block_sector_count_) {
    FreeLogBlock(block);
  }
  block_sector_count_.clear();
  ChainClear();
  cover_of_.clear();
  carrier_load_.clear();
  ClearPins();
  for (auto& state : piece_state_) {
    state = PieceState{DiskPtr{}, true};
  }
  checkpoint_seq_ = seq;
  ++stats_.checkpoints;
  stats_.checkpoint_sectors += piece_sectors + 1;
  return common::OkStatus();
}

common::Status VirtualLog::WritePark(bool clear) {
  // A cleared record (parked=false) routes recovery to the scan path but still names the format
  // epoch — a plain zeroed sector would lose it.
  ParkRecord rec;
  rec.epoch = epoch_;
  rec.parked = !clear;
  if (!clear) {
    rec.tail = ChainHead();
    rec.checkpoint_seq = checkpoint_seq_;
    rec.next_seq = next_seq_;
  }
  // The tail the record names must be durable before the record, and the record itself durable
  // before power-down completes.
  RETURN_IF_ERROR(Barrier());
  RETURN_IF_ERROR(disk_->InternalWrite(config_.park_lba, SerializePark(rec)));
  return Barrier();
}

common::Status VirtualLog::Park() { return WritePark(/*clear=*/false); }

common::StatusOr<RecoveryResult> VirtualLog::Recover() {
  // Reset in-memory state; it is rebuilt below (LoadCheckpoint re-derives next_ckpt_slot_).
  // Both slots start all dirty; ApplyRecovered marks clean, in the slot it loads, every piece
  // the log replay does not supply.
  next_ckpt_slot_ = 0;
  ckpt_dirty_.assign(config_.pieces, kBothSlots);
  piece_state_.assign(config_.pieces, PieceState{});
  ChainClear();
  block_sector_count_.clear();
  chain_.reserve(config_.pieces * 2);
  cover_of_.reserve(config_.pieces * 2);
  carrier_load_.reserve(config_.pieces * 2);
  cover_of_.clear();
  carrier_load_.clear();
  ClearPins();

  std::vector<std::byte> raw(kSectorBytes);
  RETURN_IF_ERROR(disk_->InternalRead(config_.park_lba, raw));
  const auto park = ParsePark(raw);
  if (!park) {
    // The park sector itself was lost (e.g. a crash mid-park-write): the checkpoint headers are
    // the redundant epoch carriers.
    ASSIGN_OR_RETURN(epoch_, EpochFromCheckpointHeaders());
    return RecoverByScan();
  }
  epoch_ = park->epoch;
  // Clear the park record so a stale tail is never trusted after a crash (§3.2).
  RETURN_IF_ERROR(WritePark(/*clear=*/true));
  if (!park->parked) {
    return RecoverByScan();
  }
  next_seq_ = park->next_seq;
  const DiskPtr tail = park->tail;
  if (!tail.IsNull() && tail.lba >= disk_->SectorCount()) {
    return RecoverByScan();
  }
  return RecoverFromTail(tail, park->checkpoint_seq);
}

common::StatusOr<RecoveryResult> VirtualLog::RecoverFromTail(DiskPtr tail,
                                                             uint64_t checkpoint_seq) {
  std::vector<std::pair<simdisk::Lba, MapSector>> collected;
  uint64_t sectors_read = 0;

  // Frontier ordered by age: always extend the youngest pointer first.
  auto by_seq = [](const DiskPtr& a, const DiskPtr& b) { return a.seq < b.seq; };
  std::priority_queue<DiskPtr, std::vector<DiskPtr>, decltype(by_seq)> frontier(by_seq);
  std::unordered_set<simdisk::Lba> visited;
  if (!tail.IsNull()) {
    frontier.push(tail);
  }
  std::vector<std::byte> raw(kSectorBytes);
  while (!frontier.empty()) {
    const DiskPtr ptr = frontier.top();
    frontier.pop();
    if (ptr.IsNull() || ptr.seq <= checkpoint_seq || visited.contains(ptr.lba)) {
      continue;
    }
    visited.insert(ptr.lba);
    if (ptr.lba >= disk_->SectorCount()) {
      continue;
    }
    if (!disk_->InternalRead(ptr.lba, raw).ok()) {
      continue;
    }
    ++sectors_read;
    auto parsed = MapSector::Parse(raw, epoch_);
    if (!parsed.ok() || parsed->seq != ptr.seq) {
      continue;  // Recycled: the block was reused; a bypass edge covers what lay beyond.
    }
    frontier.push(parsed->prev);
    frontier.push(parsed->bypass);
    collected.emplace_back(ptr.lba, std::move(*parsed));
  }
  return ApplyRecovered(std::move(collected), checkpoint_seq, /*used_scan=*/false, sectors_read);
}

common::StatusOr<RecoveryResult> VirtualLog::RecoverByScan() {
  // Read both slots' checkpoint headers first: the newest valid one bounds which sequence
  // numbers are still meaningful. A slot whose header fails its CRC is an interrupted or
  // damaged checkpoint and is simply ignored.
  uint64_t checkpoint_seq = 0;
  std::vector<std::byte> raw(kSectorBytes);
  for (uint32_t slot = 0; slot < 2; ++slot) {
    RETURN_IF_ERROR(disk_->InternalRead(CkptSlotLba(slot), raw));
    if (const auto header = ParseCkptHeader(raw);
        header && header->pieces == config_.pieces && header->epoch == epoch_) {
      checkpoint_seq = std::max(checkpoint_seq, header->seq);
    }
  }

  // Full scan, track by track, for cryptographically signed map sectors. Since the scan sees
  // every surviving sector, reachability is not needed: the youngest valid version of each
  // piece is by construction the live one.
  const auto& geom = disk_->geometry();
  const simdisk::Lba ckpt_begin = config_.checkpoint_lba;
  const simdisk::Lba ckpt_end = config_.checkpoint_lba + CheckpointSectors();
  std::vector<std::pair<simdisk::Lba, MapSector>> collected;
  uint64_t sectors_read = 0;
  for (uint64_t t = 0; t < geom.TotalTracks(); ++t) {
    const simdisk::Lba base = geom.TrackStart(t);
    // Zero-copy track view: same charged mechanics as InternalRead, no per-track copy (the
    // scan touches every sector on the disk, so the copies dominated sweep profiles).
    const auto track = disk_->InternalReadView(base, geom.sectors_per_track);
    if (track.empty()) {
      return common::IoError("RecoverByScan: track read failed");
    }
    sectors_read += geom.sectors_per_track;
    for (uint32_t s = 0; s < geom.sectors_per_track; ++s) {
      const simdisk::Lba lba = base + s;
      if (lba == config_.park_lba || (lba >= ckpt_begin && lba < ckpt_end)) {
        continue;
      }
      const auto sector_bytes = track.Sector(s);
      // Almost every sector on disk is data, not map: reject on the 8-byte magic before
      // paying for Parse's CRC pass and StatusOr construction.
      if (!MapSector::HasMagic(sector_bytes)) {
        continue;
      }
      auto parsed = MapSector::Parse(sector_bytes, epoch_);
      if (parsed.ok() && parsed->seq > checkpoint_seq) {
        collected.emplace_back(lba, std::move(*parsed));
      }
    }
  }
  uint64_t max_seq = checkpoint_seq;
  for (const auto& [lba, sector] : collected) {
    max_seq = std::max(max_seq, sector.seq);
  }
  next_seq_ = max_seq + 1;
  return ApplyRecovered(std::move(collected), checkpoint_seq, /*used_scan=*/true, sectors_read);
}

common::StatusOr<RecoveryResult> VirtualLog::ApplyRecovered(
    std::vector<std::pair<simdisk::Lba, MapSector>> sectors, uint64_t checkpoint_seq,
    bool used_scan, uint64_t sectors_read) {
  RecoveryResult result;
  result.used_scan = used_scan;
  result.sectors_read = sectors_read;
  result.pieces.resize(config_.pieces);

  std::sort(sectors.begin(), sectors.end(),
            [](const auto& a, const auto& b) { return a.second.seq > b.second.seq; });

  // An interrupted atomic commit can only be the very last thing written: discard the trailing
  // transaction iff the youngest sector belongs to it and not all of its members survived.
  std::unordered_set<simdisk::Lba> discarded;
  if (!sectors.empty() && sectors.front().second.txn_id != 0) {
    const uint64_t txn = sectors.front().second.txn_id;
    const uint16_t total = sectors.front().second.txn_total;
    std::set<uint16_t> members;
    std::vector<simdisk::Lba> lbas;
    for (const auto& [lba, sector] : sectors) {
      if (sector.txn_id == txn) {
        members.insert(sector.txn_index);
        lbas.push_back(lba);
      }
    }
    if (members.size() < total) {
      discarded.insert(lbas.begin(), lbas.end());
      result.discarded_txn_sectors = lbas.size();
    }
  }

  // Youngest surviving version per piece wins.
  for (const auto& [lba, sector] : sectors) {
    if (discarded.contains(lba) || sector.piece >= config_.pieces) {
      continue;
    }
    PieceState& state = piece_state_[sector.piece];
    if (!state.loc.IsNull()) {
      continue;  // A younger version was already applied.
    }
    state.loc = DiskPtr{lba, sector.seq};
    result.pieces[sector.piece] = sector.entries;
    ChainPushOldest(sector.seq, sector.piece, lba);
    NoteSectorInBlock(allocator_->space().LbaToBlock(lba));
    next_seq_ = std::max(next_seq_, sector.seq + 1);
  }

  // Rebuild designated covers so that future appends keep recycling safely. For each live
  // (and then transitively each pinned) non-tail sector, pick a surviving sector holding a
  // pointer to it — preferring live carriers; an obsolete carrier gets pinned.
  {
    auto is_live = [&](uint64_t seq, simdisk::Lba lba) {
      const auto it = chain_.find(seq);
      return it != chain_.end() && it->second.lba == lba;
    };
    auto find_carrier = [&](const DiskPtr& target) -> const std::pair<simdisk::Lba, MapSector>* {
      const std::pair<simdisk::Lba, MapSector>* fallback = nullptr;
      for (const auto& entry : sectors) {
        if (discarded.contains(entry.first)) {
          continue;
        }
        const MapSector& s = entry.second;
        if (s.prev == target || s.bypass == target) {
          if (is_live(s.seq, entry.first)) {
            return &entry;
          }
          if (fallback == nullptr) {
            fallback = &entry;
          }
        }
      }
      return fallback;
    };

    std::vector<DiskPtr> worklist;
    const DiskPtr tail = ChainHead();
    worklist.reserve(chain_.size());
    for (uint64_t seq = chain_oldest_; seq != 0; seq = chain_.at(seq).newer) {
      if (seq != tail.seq) {
        worklist.push_back(DiskPtr{chain_.at(seq).lba, seq});
      }
    }
    std::unordered_set<uint64_t> queued;
    for (const auto& ptr : worklist) {
      queued.insert(ptr.seq);
    }
    while (!worklist.empty()) {
      const DiskPtr target = worklist.back();
      worklist.pop_back();
      const auto* carrier = find_carrier(target);
      if (carrier == nullptr) {
        continue;  // Handled by the safety closure below.
      }
      SetCover(target.seq, carrier->second.seq);
      if (!is_live(carrier->second.seq, carrier->first) &&
          !pinned_.contains(carrier->second.seq)) {
        const uint32_t carrier_block = allocator_->space().LbaToBlock(carrier->first);
        Pin(carrier->second.seq, carrier_block);
        NoteSectorInBlock(carrier_block);
        // A pinned carrier must itself stay reachable: cover it too.
        if (!queued.contains(carrier->second.seq)) {
          queued.insert(carrier->second.seq);
          worklist.push_back(DiskPtr{carrier->first, carrier->second.seq});
        }
      }
    }

    // Safety closure: a sector is safe iff its designated-cover chain reaches the tail. Any
    // live sector left unsafe (possible only after a scan, where surviving pointers may be
    // missing) must be re-appended by the caller so future traversals can reach it.
    std::unordered_map<uint64_t, bool> safe;
    std::function<bool(uint64_t)> is_safe = [&](uint64_t seq) -> bool {
      if (seq == tail.seq) {
        return true;
      }
      const auto cached = safe.find(seq);
      if (cached != safe.end()) {
        return cached->second;
      }
      safe[seq] = false;  // Break cycles conservatively (cover chains are acyclic by age).
      const auto it = cover_of_.find(seq);
      const bool ok = it != cover_of_.end() && is_safe(it->second);
      safe[seq] = ok;
      return ok;
    };
    for (uint64_t seq = chain_oldest_; seq != 0; seq = chain_.at(seq).newer) {
      if (!is_safe(seq)) {
        result.uncovered_pieces.push_back(chain_.at(seq).piece);
      }
    }
  }

  if (checkpoint_seq > 0) {
    ASSIGN_OR_RETURN(auto ckpt_pieces, LoadCheckpoint(checkpoint_seq));
    // A piece the log replay did not supply keeps the checkpoint's entries, which the slot just
    // loaded already holds: the next checkpoint into that slot need not write it. The other
    // slot's copy may be older, so it stays dirty.
    const uint8_t loaded_slot = static_cast<uint8_t>(1u << (1 - next_ckpt_slot_));
    for (uint32_t k = 0; k < config_.pieces; ++k) {
      if (!piece_state_[k].loc.IsNull()) {
        continue;
      }
      ckpt_dirty_[k] &= static_cast<uint8_t>(~loaded_slot);
      if (!ckpt_pieces[k].empty()) {
        piece_state_[k] = PieceState{DiskPtr{}, true};
        result.pieces[k] = std::move(ckpt_pieces[k]);
      }
    }
    result.from_checkpoint = true;
    next_seq_ = std::max(next_seq_, checkpoint_seq + 1);
  }
  checkpoint_seq_ = checkpoint_seq;
  return result;
}

common::StatusOr<std::vector<std::vector<uint32_t>>> VirtualLog::LoadCheckpoint(
    uint64_t checkpoint_seq) {
  std::vector<std::byte> region(static_cast<size_t>(CheckpointSlotSectors()) * kSectorBytes);
  for (uint32_t slot = 0; slot < 2; ++slot) {
    RETURN_IF_ERROR(disk_->InternalRead(CkptSlotLba(slot), region));
    const auto header = ParseCkptHeader(std::span<const std::byte>(region).first(kSectorBytes));
    if (!header || header->seq != checkpoint_seq || header->pieces != config_.pieces ||
        header->epoch != epoch_) {
      continue;
    }
    // The header is the commit point and is written after the piece sectors, so a slot with a
    // matching header must have intact pieces, each written by this checkpoint or by an earlier
    // one into the same slot; anything else is real media corruption.
    std::vector<std::vector<uint32_t>> pieces(config_.pieces);
    for (uint32_t k = 0; k < config_.pieces; ++k) {
      auto parsed = MapSector::Parse(
          std::span<const std::byte>(region).subspan(static_cast<size_t>(k + 1) * kSectorBytes,
                                                     kSectorBytes),
          epoch_);
      if (!parsed.ok() || parsed->seq > checkpoint_seq || parsed->piece != k) {
        return common::Corruption("checkpoint piece sector corrupt");
      }
      pieces[k] = std::move(parsed->entries);
    }
    next_ckpt_slot_ = 1 - slot;  // Keep alternating: don't overwrite the slot just recovered.
    return pieces;
  }
  return common::Corruption("checkpoint header mismatch");
}

std::optional<uint32_t> VirtualLog::LiveBlockOfPiece(uint32_t piece) const {
  const PieceState& state = piece_state_[piece];
  if (state.loc.IsNull() || state.in_checkpoint) {
    return std::nullopt;
  }
  return allocator_->space().LbaToBlock(state.loc.lba);
}

std::vector<uint32_t> VirtualLog::PiecesAtBlock(uint32_t block) const {
  std::vector<uint32_t> pieces;
  if (!block_sector_count_.contains(block)) {
    return pieces;  // Not a log block (the compactor asks this of every data block it moves).
  }
  for (uint64_t seq = chain_oldest_; seq != 0; seq = chain_.at(seq).newer) {
    const ChainNode& node = chain_.at(seq);
    if (allocator_->space().LbaToBlock(node.lba) == block) {
      pieces.push_back(node.piece);
    }
  }
  return pieces;
}

std::vector<uint32_t> VirtualLog::PinnedBlocks() const {
  std::vector<uint32_t> blocks;
  blocks.reserve(pinned_.size());
  for (const auto& [seq, block] : pinned_) {
    blocks.push_back(block);
  }
  return blocks;
}

}  // namespace vlog::core
