#include "src/core/vld.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <set>

#include "src/obs/timeline.h"

namespace vlog::core {

void Vld::RegisterTimelineProbes(obs::Timeline& timeline, const std::string& prefix) const {
  // Counters — per-window deltas are host/compactor throughput and log activity.
  timeline.AddCounter(prefix + "vld.host_writes", [this] { return stats_.host_writes; });
  timeline.AddCounter(prefix + "vld.host_reads", [this] { return stats_.host_reads; });
  timeline.AddCounter(prefix + "vld.blocks_written", [this] { return stats_.blocks_written; });
  timeline.AddCounter(prefix + "vld.relocations", [this] { return stats_.relocations; });
  timeline.AddCounter(prefix + "vld.group_commits", [this] { return stats_.group_commits; });
  timeline.AddCounter(prefix + "vld.log_appends", [this] { return vlog_.stats().appends; });
  timeline.AddCounter(prefix + "vld.checkpoints", [this] { return vlog_.stats().checkpoints; });
  timeline.AddCounter(prefix + "vld.auto_checkpoints",
                      [this] { return vlog_.stats().auto_checkpoints; });
  timeline.AddCounter(prefix + "vld.compactor_tracks",
                      [this] { return compactor_->stats().tracks_compacted; });
  timeline.AddCounter(prefix + "vld.compactor_busy_ns", [this] {
    return static_cast<uint64_t>(compactor_->stats().busy_time);
  });
  // Gauges — instantaneous state at each window close.
  timeline.AddGauge(prefix + "vld.queue_depth",
                    [this] { return static_cast<uint64_t>(queue_.size()); });
  timeline.AddGauge(prefix + "vld.free_blocks", [this] { return space_.free_blocks(); });
  timeline.AddGauge(prefix + "vld.utilization_ppm", [this] {
    return static_cast<uint64_t>(space_.Utilization() * 1e6);
  });
  timeline.AddGauge(prefix + "vld.empty_tracks", [this] { return space_.EmptyTrackCount(); });
  // Compaction debt: tracks too full for the fill-to-threshold allocator until hole-plugged.
  timeline.AddGauge(prefix + "vld.compaction_debt_tracks", [this] {
    return space_.TracksBelowFreeFraction(config_.track_switch_threshold);
  });
  // Pins build up between checkpoints; with the counters above they show when one fired.
  timeline.AddGauge(prefix + "vld.pinned_sectors",
                    [this] { return static_cast<uint64_t>(vlog_.PinnedCount()); });
  disk_->RegisterTimelineProbes(timeline, prefix);
}

Vld::Layout Vld::ComputeLayout(const simdisk::DiskGeometry& geometry, const VldConfig& config) {
  Layout layout;
  layout.total_blocks =
      static_cast<uint32_t>(geometry.TotalSectors() / config.block_sectors);
  // The logical size, piece count, and reserved region depend on each other; iterate to a fixed
  // point (converges immediately in practice).
  uint32_t pieces = 0;
  for (int iter = 0; iter < 8; ++iter) {
    // Park sector + the double-buffered checkpoint region.
    const uint32_t system_sectors = VirtualLog::ReservedSectors(pieces);
    const uint32_t system_blocks =
        (system_sectors + config.block_sectors - 1) / config.block_sectors;
    // Live map sectors occupy up to `pieces` blocks; slack keeps eager writing possible.
    const int64_t logical = static_cast<int64_t>(layout.total_blocks) - system_blocks - pieces -
                            config.slack_blocks;
    assert(logical > 0 && "disk too small for a VLD");
    const uint32_t new_pieces =
        (static_cast<uint32_t>(logical) + kEntriesPerSector - 1) / kEntriesPerSector;
    layout.system_blocks = system_blocks;
    layout.logical_blocks = static_cast<uint32_t>(logical);
    if (new_pieces == pieces) {
      break;
    }
    pieces = new_pieces;
  }
  layout.pieces = pieces;
  return layout;
}

Vld::Vld(simdisk::SimDisk* disk, VldConfig config)
    : disk_(disk),
      config_(config),
      space_(disk->geometry(), config.block_sectors),
      allocator_(disk, &space_,
                 AllocatorConfig{.fill_to_threshold = config.compactor_enabled,
                                 .track_switch_threshold = config.track_switch_threshold}),
      vlog_(disk, &allocator_,
            VirtualLogConfig{
                .pieces = ComputeLayout(disk->geometry(), config).pieces,
                .block_sectors = config.block_sectors,
                .park_lba = 0,
                .checkpoint_lba = 1,
                .barriers = config.barriers,
            }) {
  const Layout layout = ComputeLayout(disk->geometry(), config);
  logical_blocks_ = layout.logical_blocks;
  system_blocks_ = layout.system_blocks;
  map_.assign(logical_blocks_, kUnmappedBlock);
  reverse_.assign(layout.total_blocks, kUnmappedBlock);
  MarkSystemBlocks();
  vlog_.SetEntriesProvider([this](uint32_t piece) { return PieceEntries(piece); });
  compactor_ = std::make_unique<Compactor>(
      this, disk_, &allocator_, &vlog_,
      CompactorConfig{.target_empty_tracks = config_.target_empty_tracks}, config_.seed);
  // The standard read-ahead policy purges prematurely when physical addresses are not
  // monotonic; the VLD prefetches whole tracks instead (§4.2).
  disk_->set_read_ahead_policy(simdisk::ReadAheadPolicy::kAggressiveTrack);
}

void Vld::MarkSystemBlocks() {
  for (uint32_t b = 0; b < system_blocks_; ++b) {
    space_.MarkSystem(b);
  }
}

std::span<const uint32_t> Vld::PieceEntries(uint32_t piece) const {
  const uint32_t begin = piece * kEntriesPerSector;
  const uint32_t end = std::min<uint32_t>(begin + kEntriesPerSector, logical_blocks_);
  return std::span<const uint32_t>(map_).subspan(begin, end - begin);
}

common::Status Vld::Format() {
  map_.assign(logical_blocks_, kUnmappedBlock);
  reverse_.assign(space_.total_blocks(), kUnmappedBlock);
  space_ = FreeSpaceMap(disk_->geometry(), config_.block_sectors);
  MarkSystemBlocks();
  allocator_ = EagerAllocator(disk_, &space_,
                              AllocatorConfig{.fill_to_threshold = config_.compactor_enabled,
                                              .track_switch_threshold =
                                                  config_.track_switch_threshold});
  // VirtualLog::Format also invalidates any stale checkpoint headers from a previous life of
  // the media.
  return vlog_.Format();
}

common::Status Vld::Park() { return vlog_.Park(); }

common::Status Vld::Checkpoint() {
  return vlog_.WriteCheckpoint([this](uint32_t piece) { return PieceEntries(piece); });
}

common::StatusOr<VldRecoveryInfo> Vld::Recover() {
  space_ = FreeSpaceMap(disk_->geometry(), config_.block_sectors);
  MarkSystemBlocks();
  allocator_ = EagerAllocator(disk_, &space_,
                              AllocatorConfig{.fill_to_threshold = config_.compactor_enabled,
                                              .track_switch_threshold =
                                                  config_.track_switch_threshold});
  ASSIGN_OR_RETURN(RecoveryResult recovered, vlog_.Recover());

  map_.assign(logical_blocks_, kUnmappedBlock);
  reverse_.assign(space_.total_blocks(), kUnmappedBlock);
  VldRecoveryInfo info;
  info.used_scan = recovered.used_scan;
  info.from_checkpoint = recovered.from_checkpoint;
  info.log_sectors_read = recovered.sectors_read;
  info.discarded_txn_sectors = recovered.discarded_txn_sectors;
  for (uint32_t k = 0; k < recovered.pieces.size(); ++k) {
    const auto& entries = recovered.pieces[k];
    for (uint32_t i = 0; i < entries.size(); ++i) {
      const uint64_t logical = static_cast<uint64_t>(k) * kEntriesPerSector + i;
      if (logical >= logical_blocks_ || entries[i] == kUnmappedBlock) {
        continue;
      }
      map_[logical] = entries[i];
      reverse_[entries[i]] = static_cast<uint32_t>(logical);
      space_.MarkLive(entries[i]);
      ++info.mapped_blocks;
    }
  }
  // A packed group commit can leave several live (or pinned) map sectors in one physical
  // block: collect the blocks first so each is marked live exactly once.
  std::set<uint32_t> map_blocks;
  for (uint32_t k = 0; k < vlog_.config().pieces; ++k) {
    if (const auto block = vlog_.LiveBlockOfPiece(k)) {
      map_blocks.insert(*block);
    }
  }
  for (const uint32_t block : vlog_.PinnedBlocks()) {
    map_blocks.insert(block);
  }
  for (const uint32_t block : map_blocks) {
    space_.MarkLive(block);
  }
  // Re-append pieces whose on-disk reachability could not be re-established (scan path only).
  for (const uint32_t piece : recovered.uncovered_pieces) {
    RETURN_IF_ERROR(RewritePiece(piece));
    ++info.repaired_pieces;
  }
  return info;
}

common::Status Vld::Read(simdisk::Lba lba, std::span<std::byte> out) {
  RETURN_IF_ERROR(CheckRange(lba, out.size(), "Vld::Read"));
  obs::SpanScope span(disk_->tracer(), obs::Layer::kVld, lba, out.size() / disk_->SectorBytes(),
                      obs::SpanKind::kRead);
  disk_->ChargeHostCommand();
  ++stats_.host_reads;
  return ReadMapped(lba, out, {});
}

uint32_t Vld::PreBatchBlock(uint32_t logical_block, std::span<const StagedWrite> staged) const {
  for (const StagedWrite& s : staged) {
    if (s.logical_block == logical_block) {
      return s.old_phys;
    }
  }
  return map_[logical_block];
}

common::Status Vld::ReadMapped(simdisk::Lba lba, std::span<std::byte> out,
                               std::span<const StagedWrite> staged) {
  const uint32_t sector_bytes = disk_->SectorBytes();
  // Translate sector by sector, coalescing physically contiguous runs into single accesses.
  const uint64_t sectors = out.size() / sector_bytes;
  uint64_t i = 0;
  while (i < sectors) {
    const simdisk::Lba logical_sector = lba + i;
    const uint32_t lblock = static_cast<uint32_t>(logical_sector / config_.block_sectors);
    const uint32_t offset = static_cast<uint32_t>(logical_sector % config_.block_sectors);
    const uint32_t block = PreBatchBlock(lblock, staged);
    if (block == kUnmappedBlock) {
      std::memset(out.data() + i * sector_bytes, 0, sector_bytes);
      ++stats_.unmapped_reads;
      ++i;
      continue;
    }
    simdisk::Lba phys = space_.BlockToLba(block) + offset;
    uint64_t run = 1;
    while (i + run < sectors) {
      const simdisk::Lba next_logical = lba + i + run;
      const uint32_t nb = PreBatchBlock(
          static_cast<uint32_t>(next_logical / config_.block_sectors), staged);
      const uint32_t no = static_cast<uint32_t>(next_logical % config_.block_sectors);
      if (nb == kUnmappedBlock || space_.BlockToLba(nb) + no != phys + run) {
        break;
      }
      ++run;
    }
    RETURN_IF_ERROR(disk_->InternalRead(
        phys, out.subspan(i * sector_bytes, run * sector_bytes)));
    i += run;
  }
  return common::OkStatus();
}

common::Status Vld::StageBlockWrite(uint32_t logical_block, std::span<const std::byte> data,
                                    std::vector<StagedWrite>* staged) {
  assert(data.size() == static_cast<size_t>(config_.block_sectors) * disk_->SectorBytes());
  const auto block = allocator_.Allocate();
  if (!block) {
    return common::OutOfSpace("VLD full");
  }
  if (const common::Status st = disk_->InternalWrite(space_.BlockToLba(*block), data); !st.ok()) {
    allocator_.Free(*block);
    return st;
  }
  // The staged old block must reflect earlier staged writes to the same logical block.
  uint32_t old_phys = map_[logical_block];
  for (const StagedWrite& s : *staged) {
    if (s.logical_block == logical_block) {
      old_phys = s.new_phys;
    }
  }
  staged->push_back(StagedWrite{logical_block, *block, old_phys});
  ++stats_.blocks_written;
  return common::OkStatus();
}

void Vld::Unstage(const std::vector<StagedWrite>& staged) {
  for (const StagedWrite& s : staged) {
    if (s.new_phys != kUnmappedBlock) {
      allocator_.Free(s.new_phys);
    }
  }
}

common::Status Vld::CommitStaged(const std::vector<StagedWrite>& staged) {
  if (staged.empty()) {
    return common::OkStatus();
  }
  std::vector<uint32_t> affected_pieces;
  for (const StagedWrite& s : staged) {
    const uint32_t piece = PieceOf(s.logical_block);
    if (std::find(affected_pieces.begin(), affected_pieces.end(), piece) ==
        affected_pieces.end()) {
      affected_pieces.push_back(piece);
    }
  }
  if (!vlog_.HasRoomFor(affected_pieces.size())) {
    Unstage(staged);
    return common::OutOfSpace("VLD full: no free block for the map sectors");
  }
  // The valve checkpoints the map as it stands, so it runs before the staged translations
  // enter map_: a checkpoint of them would outlive a commit that then fails.
  if (const common::Status st = vlog_.MaybeAutoCheckpoint(); !st.ok()) {
    Unstage(staged);
    return st;
  }
  // Apply the map changes in memory first so PieceEntries sees the new translations, then
  // persist every affected piece in one commit.
  for (const StagedWrite& s : staged) {
    map_[s.logical_block] = s.new_phys;
  }
  std::vector<VirtualLog::PieceUpdate> updates;
  updates.reserve(affected_pieces.size());
  for (const uint32_t piece : affected_pieces) {
    updates.push_back(VirtualLog::PieceUpdate{piece, PieceEntries(piece)});
  }
  if (const common::Status st = vlog_.Commit(updates); !st.ok()) {
    // The map sectors did not land: put the map back (in reverse, so a block staged twice ends
    // at its first old value) and free what was staged. The device reads all-old again.
    for (auto s = staged.rbegin(); s != staged.rend(); ++s) {
      map_[s->logical_block] = s->old_phys;
    }
    Unstage(staged);
    return st;
  }
  if (updates.size() > 1) {
    ++stats_.atomic_commits;
  }
  // Commit point passed: release the obsoleted data blocks and fix the reverse map.
  for (const StagedWrite& s : staged) {
    if (s.old_phys != kUnmappedBlock) {
      allocator_.Free(s.old_phys);
      reverse_[s.old_phys] = kUnmappedBlock;
    }
    if (s.new_phys != kUnmappedBlock) {
      reverse_[s.new_phys] = s.logical_block;
    }
  }
  return common::OkStatus();
}

common::Status Vld::StageHostWrite(simdisk::Lba lba, std::span<const std::byte> in,
                                   std::vector<StagedWrite>* staged) {
  const uint32_t sector_bytes = disk_->SectorBytes();
  const uint32_t bs = config_.block_sectors;
  const size_t block_bytes = static_cast<size_t>(bs) * sector_bytes;
  std::vector<std::byte> merged;  // Sized on the first sub-block edge; whole blocks skip it.
  uint64_t i = 0;
  const uint64_t sectors = in.size() / sector_bytes;
  while (i < sectors) {
    const simdisk::Lba logical_sector = lba + i;
    const uint32_t lblock = static_cast<uint32_t>(logical_sector / bs);
    const uint32_t offset = static_cast<uint32_t>(logical_sector % bs);
    const uint64_t in_block = std::min<uint64_t>(bs - offset, sectors - i);
    if (offset == 0 && in_block == bs) {
      RETURN_IF_ERROR(StageBlockWrite(lblock, in.subspan(i * sector_bytes, block_bytes), staged));
    } else {
      // Sub-block write: read-modify-write the physical block (internal fragmentation biases
      // against the VLD exactly as §4.2 notes).
      ++stats_.read_modify_writes;
      merged.resize(block_bytes);
      uint32_t source = map_[lblock];
      for (const StagedWrite& s : *staged) {
        if (s.logical_block == lblock) {
          source = s.new_phys;  // Merge over an earlier staged write to the same block.
        }
      }
      if (source != kUnmappedBlock) {
        RETURN_IF_ERROR(disk_->InternalRead(space_.BlockToLba(source), merged));
      } else {
        std::fill(merged.begin(), merged.end(), std::byte{0});
      }
      std::memcpy(merged.data() + static_cast<size_t>(offset) * sector_bytes,
                  in.data() + i * sector_bytes, in_block * sector_bytes);
      RETURN_IF_ERROR(StageBlockWrite(lblock, merged, staged));
    }
    i += in_block;
  }
  return common::OkStatus();
}

common::Status Vld::Write(simdisk::Lba lba, std::span<const std::byte> in) {
  RETURN_IF_ERROR(CheckRange(lba, in.size(), "Vld::Write"));
  obs::SpanScope span(disk_->tracer(), obs::Layer::kVld, lba, in.size() / disk_->SectorBytes(),
                      obs::SpanKind::kWrite);
  disk_->ChargeHostCommand();
  ++stats_.host_writes;
  std::vector<StagedWrite> staged;
  if (const common::Status st = StageHostWrite(lba, in, &staged); !st.ok()) {
    Unstage(staged);
    return st;
  }
  return CommitStaged(staged);
}

size_t Vld::QueuedWrites() const {
  size_t n = 0;
  for (const QueuedRequest& req : queue_) {
    n += req.is_write ? 1 : 0;
  }
  return n;
}

common::StatusOr<uint64_t> Vld::SubmitWrite(simdisk::Lba lba, std::span<const std::byte> in) {
  RETURN_IF_ERROR(CheckRange(lba, in.size(), "Vld::SubmitWrite"));
  if (queue_.size() >= config_.queue_depth) {
    return common::FailedPrecondition("Vld::SubmitWrite: queue full");
  }
  QueuedRequest req;
  req.id = next_queued_id_++;
  req.is_write = true;
  req.lba = lba;
  req.sectors = in.size() / disk_->SectorBytes();
  req.data.assign(in.begin(), in.end());
  req.submit_time = disk_->clock()->Now();
  if (obs::TraceRecorder* tracer = disk_->tracer();
      tracer != nullptr && tracer->current_span() == 0) {
    // One span per submitted request, opened here and closed when FlushQueue acknowledges it.
    // (When an upper layer's span is current we leave span 0: ownership stays above.)
    req.span = tracer->BeginSpanDetached(obs::Layer::kVld, lba, req.sectors,
                                         obs::SpanKind::kWrite);
  }
  queue_.push_back(std::move(req));
  ++stats_.queued_writes;
  return queue_.back().id;
}

common::StatusOr<uint64_t> Vld::SubmitRead(simdisk::Lba lba, uint64_t sectors) {
  if (sectors == 0 || !InRange(lba, sectors)) {
    return common::InvalidArgument("Vld::SubmitRead: bad range");
  }
  if (queue_.size() >= config_.queue_depth) {
    return common::FailedPrecondition("Vld::SubmitRead: queue full");
  }
  QueuedRequest req;
  req.id = next_queued_id_++;
  req.is_write = false;
  req.lba = lba;
  req.sectors = sectors;
  req.submit_time = disk_->clock()->Now();
  if (obs::TraceRecorder* tracer = disk_->tracer();
      tracer != nullptr && tracer->current_span() == 0) {
    req.span = tracer->BeginSpanDetached(obs::Layer::kVld, lba, sectors, obs::SpanKind::kRead);
  }
  queue_.push_back(std::move(req));
  ++stats_.queued_reads;
  return queue_.back().id;
}

const Vld::QueuedRequest* Vld::CoveringWrite(const std::vector<QueuedRequest>& batch,
                                             size_t index, simdisk::Lba sector) {
  for (size_t j = index; j-- > 0;) {
    const QueuedRequest& w = batch[j];
    if (w.is_write && sector >= w.lba && sector < w.lba + w.sectors) {
      return &w;
    }
  }
  return nullptr;
}

common::Status Vld::ServiceQueuedRead(const std::vector<QueuedRequest>& batch, size_t index,
                                      std::span<const StagedWrite> staged,
                                      std::span<std::byte> out, uint64_t* forwarded_sectors) {
  const QueuedRequest& req = batch[index];
  const uint32_t sector_bytes = disk_->SectorBytes();
  *forwarded_sectors = 0;
  // Uncovered sectors come off the media through the pre-batch translation, so they read
  // pre-batch data whether the read is served before or after the batch's commit.
  uint64_t i = 0;
  while (i < req.sectors) {
    if (const QueuedRequest* covering = CoveringWrite(batch, index, req.lba + i)) {
      std::memcpy(out.data() + i * sector_bytes,
                  covering->data.data() + (req.lba + i - covering->lba) * sector_bytes,
                  sector_bytes);
      ++*forwarded_sectors;
      ++i;
      continue;
    }
    // Maximal uncovered run -> one mapped media access (ReadMapped coalesces further).
    uint64_t run = 1;
    while (i + run < req.sectors && CoveringWrite(batch, index, req.lba + i + run) == nullptr) {
      ++run;
    }
    RETURN_IF_ERROR(
        ReadMapped(req.lba + i, out.subspan(i * sector_bytes, run * sector_bytes), staged));
    i += run;
  }
  return common::OkStatus();
}

common::Duration Vld::QueuedReadCost(const std::vector<QueuedRequest>& batch, size_t index,
                                     std::span<const StagedWrite> staged, common::Time now,
                                     std::vector<MediaAccess>& first_media) const {
  // The first media access is a property of the batch, not of the dispatch: same-batch
  // coverage is fixed at submission order and the pre-batch translation does not change when
  // the batch commits, so the coverage/translation scan runs once per candidate and later
  // dispatches reuse it — only the disk's state (buffer, clock and arm) changes between them.
  MediaAccess& access = first_media[index];
  if (access.lba == kCostUnknown) {
    access.lba = kCostNoMedia;
    const QueuedRequest& req = batch[index];
    // The physical LBA of logical sector i of the request, or nothing when the media does not
    // serve it: forwarded from an earlier batch write, or unmapped (no mechanical time).
    const auto media_lba = [&](uint64_t i) -> std::optional<simdisk::Lba> {
      const simdisk::Lba logical_sector = req.lba + i;
      const uint32_t block = PreBatchBlock(
          static_cast<uint32_t>(logical_sector / config_.block_sectors), staged);
      if (CoveringWrite(batch, index, logical_sector) != nullptr || block == kUnmappedBlock) {
        return std::nullopt;
      }
      return space_.BlockToLba(block) + logical_sector % config_.block_sectors;
    };
    // ServiceQueuedRead's first InternalRead: the first media-served sector, and the sectors
    // after it that stay media-served and physically contiguous.
    for (uint64_t i = 0; i < req.sectors; ++i) {
      const auto lba = media_lba(i);
      if (!lba) {
        continue;
      }
      access.lba = static_cast<int64_t>(*lba);
      access.sectors = 1;
      while (i + access.sectors < req.sectors &&
             media_lba(i + access.sectors) == *lba + access.sectors) {
        ++access.sectors;
      }
      break;
    }
  }
  if (access.lba == kCostNoMedia) {
    return 0;  // Fully forwarded/unmapped: a pure controller-RAM service.
  }
  const auto lba = static_cast<simdisk::Lba>(access.lba);
  if (disk_->ReadHitsBuffer(lba, access.sectors)) {
    return 0;  // The track buffer or the write-back cache serves it: no positioning.
  }
  return disk_->EstimatePosition(lba, now);
}

size_t Vld::PickNextQueued(const std::vector<QueuedRequest>& batch,
                           const std::vector<bool>& serviced, size_t oldest,
                           std::span<const StagedWrite> staged,
                           std::vector<MediaAccess>& first_media) const {
  if (config_.read_policy == SchedulerPolicy::kFcfs) {
    return oldest;
  }
  const common::Time now = disk_->clock()->Now();
  // SPTF over the batch's reads and its oldest unserviced write; writes stay FIFO among
  // themselves. A write costs what the allocator would pay for its next block now: near zero
  // in greedy mode, where it lands wherever the head is, but a seek back to the fill track in
  // fill-to-threshold mode. Ties break toward the older (lower-index) request, so equal-cost
  // service order is deterministic and FIFO.
  size_t best = batch.size();
  common::Duration best_cost = 0;
  bool write_seen = false;
  for (size_t i = oldest; i < batch.size(); ++i) {
    if (serviced[i]) {
      continue;
    }
    if (batch[i].is_write && write_seen) {
      continue;
    }
    write_seen |= batch[i].is_write;
    const common::Duration cost = batch[i].is_write
                                      ? allocator_.EstimateLocate()
                                      : QueuedReadCost(batch, i, staged, now, first_media);
    if (best == batch.size() || cost < best_cost) {
      best = i;
      best_cost = cost;
    }
  }
  return best;
}

common::StatusOr<std::vector<Vld::QueuedCompletion>> Vld::FlushQueue() {
  std::vector<QueuedCompletion> completions;
  if (queue_.empty()) {
    return completions;
  }
  std::vector<QueuedRequest> batch;
  batch.swap(queue_);
  obs::TraceRecorder* tracer = disk_->tracer();
  // Service the batch in scheduler order — each request's controller overhead (pipelined
  // against earlier media work), then its eager data-block writes or its media reads. Disk
  // events land on the request's own span. Reads complete at their own service time: they need
  // no map commit. The writes complete together at the batch's one group commit, which runs as
  // soon as the last of them is staged, so they do not wait out the reads served after it.
  std::vector<StagedWrite> staged;
  std::vector<common::Time> dispatch(batch.size());
  std::vector<common::Time> read_done(batch.size(), 0);
  std::vector<std::vector<std::byte>> read_data(batch.size());
  std::vector<common::Status> read_status(batch.size());
  std::vector<bool> serviced(batch.size(), false);
  std::vector<MediaAccess> first_media(batch.size());
  const size_t writes =
      std::count_if(batch.begin(), batch.end(), [](const QueuedRequest& r) { return r.is_write; });
  // Writes service FIFO among themselves, so a batch without reads is plain FIFO.
  const bool has_reads = writes < batch.size();
  size_t oldest = 0;  // The oldest unserviced request.
  // Nothing commits before the last write is staged, so a write that fails to stage, or a
  // commit that fails, drops the batch whole: every span it still holds open is ended (EndSpan
  // skips the closed ones). A staging failure also frees the blocks the batch staged; a failed
  // CommitStaged has already freed them. A read that fails changes no state, so it completes
  // with its error and the batch carries on.
  const auto drop_batch = [&](const common::Status& st) {
    if (tracer != nullptr) {
      for (const QueuedRequest& req : batch) {
        tracer->EndSpan(req.span);
      }
    }
    batch.clear();
    queue_.swap(batch);  // Keeps the storage, as below.
    return st;
  };
  size_t write_count = 0;
  common::Time commit_done = 0;
  [[maybe_unused]] uint64_t allocations_at_commit = 0;
  for (size_t n = 0; n < batch.size(); ++n) {
    while (serviced[oldest]) {
      ++oldest;
    }
    const size_t i =
        has_reads ? PickNextQueued(batch, serviced, oldest, staged, first_media) : oldest;
    serviced[i] = true;
    const QueuedRequest& req = batch[i];
    {
      obs::SpanScope span(req.span != 0 ? tracer : nullptr, req.span);
      ctrl_free_ = disk_->ChargeQueuedCommand(ctrl_free_, req.submit_time);
      dispatch[i] = disk_->clock()->Now();
      if (req.is_write) {
        ++write_count;
        ++stats_.host_writes;
        if (const common::Status st = StageHostWrite(req.lba, req.data, &staged); !st.ok()) {
          Unstage(staged);
          return drop_batch(st);
        }
      } else {
        ++stats_.host_reads;
        read_data[i].resize(req.sectors * disk_->SectorBytes());
        uint64_t forwarded = 0;
        read_status[i] = ServiceQueuedRead(batch, i, staged, read_data[i], &forwarded);
        if (!read_status[i].ok()) {
          read_data[i].clear();
        } else {
          stats_.forwarded_read_sectors += forwarded;
          if (forwarded > 0 && tracer != nullptr) {
            tracer->Annotate(obs::EventType::kReadForward, obs::Layer::kVld, req.lba,
                             forwarded);
          }
        }
        read_done[i] = disk_->clock()->Now();
        if (tracer != nullptr && req.span != 0) {
          tracer->EndSpan(req.span);
        }
      }
    }
    if (!req.is_write || write_count < writes) {
      continue;
    }
    // The last write is staged: one packed group commit covers every write's map entries, and
    // only once it reaches the media are the writes acknowledged — the commit is the atomicity
    // and durability point for all of them. A single write's commit is that request's own
    // work (its span shows zero queueing, matching the sync path); a shared commit belongs to
    // no single request, so its time shows up as queueing on every member and one
    // kGroupCommit marker records it. A read-only batch never commits: read traffic leaves no
    // VLD state behind.
    {
      obs::SpanScope span(writes == 1 && req.span != 0 ? tracer : nullptr, req.span);
      if (const common::Status st = CommitStaged(staged); !st.ok()) {
        return drop_batch(st);
      }
    }
    if (writes > 1) {
      ++stats_.group_commits;
      if (tracer != nullptr) {
        tracer->Annotate(obs::EventType::kGroupCommit, obs::Layer::kVld, writes, staged.size());
      }
    }
    commit_done = disk_->clock()->Now();
    if (tracer != nullptr) {
      for (const QueuedRequest& w : batch) {
        if (w.is_write && w.span != 0) {
          tracer->EndSpan(w.span);
        }
      }
    }
    allocations_at_commit = allocator_.stats().allocations;
  }
  // The reads served after the commit translated through the blocks it freed; nothing
  // allocated since, so those blocks still held their pre-batch bytes.
  assert(writes == 0 || allocator_.stats().allocations == allocations_at_commit);
  completions.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    QueuedRequest& req = batch[i];
    QueuedCompletion c;
    c.id = req.id;
    c.is_write = req.is_write;
    c.lba = req.lba;
    c.submit_time = req.submit_time;
    c.complete_time = req.is_write ? commit_done : read_done[i];
    c.dispatch_time = dispatch[i];
    c.span_id = req.span;
    c.status = std::move(read_status[i]);
    c.data = std::move(read_data[i]);
    completions.push_back(std::move(c));
  }
  // Hand the batch's storage back to the (still empty) queue, so the next batch does not
  // regrow it from nothing.
  batch.clear();
  queue_.swap(batch);
  return completions;
}

common::Status Vld::WriteAtomic(std::span<const AtomicWrite> writes) {
  obs::SpanScope span(disk_->tracer(), obs::Layer::kVld, writes.size(), 0,
                      obs::SpanKind::kWrite);
  disk_->ChargeHostCommand();
  ++stats_.host_writes;
  const uint32_t sector_bytes = disk_->SectorBytes();
  const uint32_t bs = config_.block_sectors;
  const size_t block_bytes = static_cast<size_t>(bs) * sector_bytes;
  // Every extent is checked before any is staged, so a bad one leaves nothing behind.
  for (const AtomicWrite& w : writes) {
    if (w.lba % bs != 0 || w.data.size() % block_bytes != 0 ||
        !InRange(w.lba, w.data.size() / sector_bytes)) {
      return common::InvalidArgument("WriteAtomic: extents must be whole aligned blocks");
    }
  }
  std::vector<StagedWrite> staged;
  for (const AtomicWrite& w : writes) {
    for (size_t off = 0; off < w.data.size(); off += block_bytes) {
      const uint32_t lblock = static_cast<uint32_t>(w.lba / bs + off / block_bytes);
      if (const common::Status st =
              StageBlockWrite(lblock, w.data.subspan(off, block_bytes), &staged);
          !st.ok()) {
        Unstage(staged);
        return st;
      }
    }
  }
  return CommitStaged(staged);
}

common::Status Vld::Trim(simdisk::Lba lba, uint64_t sectors) {
  if (!InRange(lba, sectors)) {
    return common::InvalidArgument("Trim: bad range");
  }
  obs::SpanScope span(disk_->tracer(), obs::Layer::kVld, lba, sectors);
  disk_->ChargeHostCommand();
  const uint32_t bs = config_.block_sectors;
  // Only whole blocks are dropped; partial edges are ignored. Each mapped block becomes a
  // staged write to kUnmappedBlock, committed like any other write.
  const uint32_t first = static_cast<uint32_t>((lba + bs - 1) / bs);
  const uint32_t end = static_cast<uint32_t>((lba + sectors) / bs);
  std::vector<StagedWrite> staged;
  for (uint32_t b = first; b < end; ++b) {
    if (map_[b] != kUnmappedBlock) {
      staged.push_back(StagedWrite{b, kUnmappedBlock, map_[b]});
    }
  }
  RETURN_IF_ERROR(CommitStaged(staged));
  stats_.trims += staged.size();
  return common::OkStatus();
}

void Vld::RunIdle(common::Duration budget) {
  if (!config_.compactor_enabled || budget <= 0) {
    return;
  }
  const common::Time deadline = disk_->clock()->Now() + budget;
  // Idle time is also when checkpoints are cheap (§3.3); a checkpoint releases every pinned
  // map sector, which in turn lets the compactor empty the tracks holding them. It rewrites
  // every piece changed since its slot was last written, though, so it waits until pins pile
  // up; a few pins block only their tracks.
  if (vlog_.IdleCheckpointDue()) {
    (void)Checkpoint();
  }
  if (disk_->clock()->Now() < deadline) {
    compactor_->RunUntil(deadline);
  }
}

void Vld::RunGovernedBurst(common::Duration budget, uint32_t target_empty_tracks) {
  if (!config_.compactor_enabled || budget <= 0) {
    return;
  }
  const common::Time deadline = disk_->clock()->Now() + budget;
  // Mirror RunIdle step for step (the governor-vs-idle differential depends on it); the only
  // difference is that the compactor run is preemptible at block granularity.
  if (vlog_.IdleCheckpointDue()) {
    (void)Checkpoint();
  }
  if (disk_->clock()->Now() < deadline) {
    compactor_->RunBounded(deadline, target_empty_tracks);
  }
}

common::Status Vld::RelocateDataBlock(uint32_t phys_block) {
  const uint32_t logical = reverse_[phys_block];
  if (logical == kUnmappedBlock) {
    return common::FailedPrecondition("RelocateDataBlock: not a data block");
  }
  const uint32_t sector_bytes = disk_->SectorBytes();
  std::vector<std::byte> data(static_cast<size_t>(config_.block_sectors) * sector_bytes);
  RETURN_IF_ERROR(disk_->InternalRead(space_.BlockToLba(phys_block), data));
  std::vector<StagedWrite> staged;
  RETURN_IF_ERROR(StageBlockWrite(logical, data, &staged));
  RETURN_IF_ERROR(CommitStaged(staged));
  ++stats_.relocations;
  --stats_.blocks_written;  // Compaction traffic is not host write traffic.
  return common::OkStatus();
}

common::Status Vld::RewritePiece(uint32_t piece) {
  const VirtualLog::PieceUpdate update{piece, PieceEntries(piece)};
  return vlog_.Commit({&update, 1});
}

}  // namespace vlog::core
