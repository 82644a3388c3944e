#include "src/vlfs/vlfs.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "src/common/bytes.h"

namespace vlog::vlfs {

using ufs::DirEntry;
using ufs::Inode;
using ufs::InodeType;
using ufs::kBlockBytes;
using ufs::kDirectPtrs;
using ufs::kDirEntriesPerBlock;
using ufs::kDirEntryBytes;
using ufs::kInodesPerBlock;
using ufs::kNoAddr;
using ufs::kNoInode;
using ufs::kPtrsPerBlock;
using ufs::kRootInode;
using ufs::SplitPath;

namespace {

constexpr uint32_t kIndirectFbi = 0xFFFFFFFF;  // Owner tag for a file's indirect block.

uint32_t PiecesFor(uint32_t inode_blocks) {
  return (inode_blocks + core::kEntriesPerSector - 1) / core::kEntriesPerSector;
}

}  // namespace

Vlfs::Vlfs(simdisk::SimDisk* disk, simdisk::HostModel* host, VlfsConfig config)
    : disk_(disk),
      host_(host),
      config_(config),
      space_(disk->geometry(), config.block_sectors),
      allocator_(disk, &space_,
                 core::AllocatorConfig{.fill_to_threshold = true,
                                       .track_switch_threshold = config.track_switch_threshold}),
      vlog_(disk, &allocator_,
            core::VirtualLogConfig{.pieces = PiecesFor(config.inode_blocks),
                                   .block_sectors = config.block_sectors,
                                   .park_lba = 0,
                                   .checkpoint_lba = 1}) {
  inode_map_.assign(config_.inode_blocks, core::kUnmappedBlock);
  owner_.assign(space_.total_blocks(), kOwnerNone);
  inode_used_.assign(InodeCount(), false);
  const uint32_t system_sectors =
      core::VirtualLog::ReservedSectors(PiecesFor(config_.inode_blocks));
  const uint32_t system_blocks =
      (system_sectors + config_.block_sectors - 1) / config_.block_sectors;
  for (uint32_t b = 0; b < system_blocks; ++b) {
    space_.MarkSystem(b);
  }
  vlog_.SetEntriesProvider([this](uint32_t piece) { return MapPieceEntries(piece); });
  compactor_ = std::make_unique<core::Compactor>(
      this, disk_, &allocator_, &vlog_,
      core::CompactorConfig{.target_empty_tracks = config_.target_empty_tracks});
  disk_->set_read_ahead_policy(simdisk::ReadAheadPolicy::kAggressiveTrack);
}

std::span<const uint32_t> Vlfs::MapPieceEntries(uint32_t piece) const {
  const uint32_t begin = piece * core::kEntriesPerSector;
  const uint32_t end =
      std::min<uint32_t>(begin + core::kEntriesPerSector, config_.inode_blocks);
  return std::span<const uint32_t>(inode_map_).subspan(begin, end - begin);
}

common::Status Vlfs::Format() {
  const uint64_t system = space_.system_blocks();
  space_ = core::FreeSpaceMap(disk_->geometry(), config_.block_sectors);
  for (uint32_t b = 0; b < system; ++b) {
    space_.MarkSystem(b);
  }
  allocator_ = core::EagerAllocator(
      disk_, &space_,
      core::AllocatorConfig{.fill_to_threshold = true,
                            .track_switch_threshold = config_.track_switch_threshold});
  inode_map_.assign(config_.inode_blocks, core::kUnmappedBlock);
  owner_.assign(space_.total_blocks(), kOwnerNone);
  inode_used_.assign(InodeCount(), false);
  inode_cache_.clear();
  data_cache_.clear();
  staged_frees_.clear();
  RETURN_IF_ERROR(vlog_.Format());

  inode_used_[kNoInode] = true;
  inode_used_[kRootInode] = true;
  Inode root;
  root.type = InodeType::kDirectory;
  root.nlink = 2;
  root.mtime = static_cast<uint64_t>(host_->clock()->Now());
  RETURN_IF_ERROR(StoreInode(kRootInode, root, /*sync=*/false));
  return CommitGroup();
}

// --- Caches ---

void Vlfs::EvictDataCacheIfNeeded() {
  while (data_cache_.size() >= config_.data_cache_blocks) {
    uint32_t victim = 0;
    uint64_t best = ~0ULL;
    for (const auto& [phys, buffer] : data_cache_) {
      if (buffer.lru < best) {
        best = buffer.lru;
        victim = phys;
      }
    }
    data_cache_.erase(victim);  // Data-cache entries are never dirty (written through).
  }
}

common::StatusOr<Vlfs::Buffer*> Vlfs::GetInodeBlock(uint32_t iblock) {
  auto it = inode_cache_.find(iblock);
  if (it != inode_cache_.end()) {
    it->second.lru = ++lru_tick_;
    ++stats_.cache_hits;
    return &it->second;
  }
  ++stats_.cache_misses;
  Buffer buffer;
  buffer.data.assign(kBlockBytes, std::byte{0});
  buffer.lru = ++lru_tick_;
  if (inode_map_[iblock] != core::kUnmappedBlock) {
    RETURN_IF_ERROR(disk_->InternalRead(space_.BlockToLba(inode_map_[iblock]), buffer.data));
  }
  auto [pos, inserted] = inode_cache_.emplace(iblock, std::move(buffer));
  return &pos->second;
}

common::StatusOr<Vlfs::Buffer*> Vlfs::GetDataBlock(uint32_t phys, bool read_from_disk) {
  auto it = data_cache_.find(phys);
  if (it != data_cache_.end()) {
    it->second.lru = ++lru_tick_;
    ++stats_.cache_hits;
    return &it->second;
  }
  ++stats_.cache_misses;
  EvictDataCacheIfNeeded();
  Buffer buffer;
  buffer.data.assign(kBlockBytes, std::byte{0});
  buffer.lru = ++lru_tick_;
  if (read_from_disk) {
    RETURN_IF_ERROR(disk_->InternalRead(space_.BlockToLba(phys), buffer.data));
  }
  auto [pos, inserted] = data_cache_.emplace(phys, std::move(buffer));
  return &pos->second;
}

common::StatusOr<uint32_t> Vlfs::EagerWriteBlock(std::span<const std::byte> data,
                                                 uint64_t owner) {
  const auto block = allocator_.Allocate();
  if (!block) {
    return common::OutOfSpace("VLFS: disk full");
  }
  RETURN_IF_ERROR(disk_->InternalWrite(space_.BlockToLba(*block), data));
  owner_[*block] = owner;
  return *block;
}

void Vlfs::StageFree(uint32_t phys) { staged_frees_.push_back(phys); }

// --- Inodes ---

common::StatusOr<Inode> Vlfs::ReadInode(uint32_t ino) {
  if (ino == kNoInode || ino >= InodeCount()) {
    return common::InvalidArgument("bad inode number");
  }
  ASSIGN_OR_RETURN(Buffer * buffer, GetInodeBlock(ino / kInodesPerBlock));
  return Inode::Decode(std::span<const std::byte>(buffer->data)
                           .subspan((ino % kInodesPerBlock) * ufs::kInodeBytes));
}

common::Status Vlfs::StoreInode(uint32_t ino, const Inode& inode, bool sync) {
  ASSIGN_OR_RETURN(Buffer * buffer, GetInodeBlock(ino / kInodesPerBlock));
  inode.EncodeTo(
      std::span<std::byte>(buffer->data).subspan((ino % kInodesPerBlock) * ufs::kInodeBytes));
  buffer->dirty = true;
  if (sync) {
    return CommitGroup();
  }
  return common::OkStatus();
}

// --- Block mapping (direct + single indirect; files up to ~4 MB) ---

common::StatusOr<uint32_t> Vlfs::BmapRead(const Inode& inode, uint64_t fbi) {
  if (fbi < kDirectPtrs) {
    return inode.direct[fbi];
  }
  fbi -= kDirectPtrs;
  if (fbi >= kPtrsPerBlock) {
    return common::Unimplemented("VLFS: file larger than direct+indirect range");
  }
  if (inode.indirect == kNoAddr) {
    return kNoAddr;
  }
  ASSIGN_OR_RETURN(Buffer * table, GetDataBlock(inode.indirect, true));
  return common::LoadLe<uint32_t>(table->data, fbi * 4);
}

common::Status Vlfs::BmapSet(uint32_t ino, Inode& inode, uint64_t fbi, uint32_t phys,
                             bool sync) {
  if (fbi < kDirectPtrs) {
    inode.direct[fbi] = phys == core::kUnmappedBlock ? kNoAddr : phys;
    return StoreInode(ino, inode, sync);
  }
  fbi -= kDirectPtrs;
  if (fbi >= kPtrsPerBlock) {
    return common::Unimplemented("VLFS: file larger than direct+indirect range");
  }
  // The indirect block is itself eager-written (copy-on-write): build the new contents, write
  // them to a fresh block, point the inode at it, and stage the old copy for release.
  std::vector<std::byte> contents(kBlockBytes, std::byte{0});
  if (inode.indirect != kNoAddr) {
    ASSIGN_OR_RETURN(Buffer * table, GetDataBlock(inode.indirect, true));
    contents = table->data;
  }
  common::StoreLe<uint32_t>(contents, fbi * 4, phys == core::kUnmappedBlock ? kNoAddr : phys);
  ASSIGN_OR_RETURN(const uint32_t fresh,
                   EagerWriteBlock(contents, kOwnerData | (static_cast<uint64_t>(ino) << 32) |
                                                 kIndirectFbi));
  if (inode.indirect != kNoAddr) {
    StageFree(inode.indirect);
    ForgetDataBlock(inode.indirect);
  }
  inode.indirect = fresh;
  // Keep the fresh copy warm.
  ASSIGN_OR_RETURN(Buffer * table, GetDataBlock(fresh, false));
  table->data = std::move(contents);
  return StoreInode(ino, inode, sync);
}

common::Status Vlfs::FreeFileBlocks(Inode& inode) {
  const uint64_t blocks = (inode.size + kBlockBytes - 1) / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t phys, BmapRead(inode, fbi));
    if (phys != kNoAddr) {
      StageFree(phys);
      ForgetDataBlock(phys);
    }
  }
  if (inode.indirect != kNoAddr) {
    StageFree(inode.indirect);
    ForgetDataBlock(inode.indirect);
    inode.indirect = kNoAddr;
  }
  std::fill(std::begin(inode.direct), std::end(inode.direct), kNoAddr);
  inode.size = 0;
  return common::OkStatus();
}

common::StatusOr<uint32_t> Vlfs::AllocInodeNumber() {
  for (uint32_t i = 0; i < inode_used_.size(); ++i) {
    if (!inode_used_[i]) {
      inode_used_[i] = true;
      return i;
    }
  }
  return common::OutOfSpace("out of inodes");
}

// --- Group commit ---

common::Status Vlfs::CommitGroup() {
  std::vector<uint32_t> dirty_iblocks;
  for (auto& [iblock, buffer] : inode_cache_) {
    if (buffer.dirty) {
      dirty_iblocks.push_back(iblock);
    }
  }
  if (dirty_iblocks.empty() && staged_frees_.empty()) {
    return common::OkStatus();
  }
  std::sort(dirty_iblocks.begin(), dirty_iblocks.end());

  // Phase 1: eager-write the dirty inode blocks to fresh locations.
  std::vector<uint32_t> affected_pieces;
  for (const uint32_t iblock : dirty_iblocks) {
    Buffer& buffer = inode_cache_[iblock];
    ASSIGN_OR_RETURN(const uint32_t fresh,
                     EagerWriteBlock(buffer.data, kOwnerInodeBlock | iblock));
    if (inode_map_[iblock] != core::kUnmappedBlock) {
      StageFree(inode_map_[iblock]);
    }
    inode_map_[iblock] = fresh;
    buffer.dirty = false;
    ++stats_.inode_blocks_written;
    const uint32_t piece = PieceOfInodeBlock(iblock);
    if (std::find(affected_pieces.begin(), affected_pieces.end(), piece) ==
        affected_pieces.end()) {
      affected_pieces.push_back(piece);
    }
  }

  // Phase 2: one virtual-log transaction commits every inode-map change atomically.
  if (!affected_pieces.empty()) {
    std::vector<core::VirtualLog::PieceUpdate> updates;
    for (const uint32_t piece : affected_pieces) {
      updates.push_back({piece, MapPieceEntries(piece)});
    }
    RETURN_IF_ERROR(vlog_.Commit(updates));
    ++stats_.map_transactions;
    if (dirty_iblocks.size() > 1) {
      ++stats_.group_commits;
    }
  }

  // Phase 3: past the commit point, recycle everything the group obsoleted.
  for (const uint32_t phys : staged_frees_) {
    allocator_.Free(phys);
    owner_[phys] = kOwnerNone;
  }
  staged_frees_.clear();
  return common::OkStatus();
}

// --- Paths & directories ---

common::StatusOr<uint32_t> Vlfs::LookupPath(const std::string& path) {
  ASSIGN_OR_RETURN(const auto parts, SplitPath(path));
  uint32_t ino = kRootInode;
  for (const std::string& part : parts) {
    ASSIGN_OR_RETURN(const Inode dir, ReadInode(ino));
    if (dir.type != InodeType::kDirectory) {
      return common::InvalidArgument("not a directory on path: " + path);
    }
    ASSIGN_OR_RETURN(ino, DirFind(dir, part));
  }
  return ino;
}

common::StatusOr<uint32_t> Vlfs::ResolveParent(const std::string& path, std::string* leaf) {
  ASSIGN_OR_RETURN(auto parts, SplitPath(path));
  if (parts.empty()) {
    return common::InvalidArgument("path refers to the root");
  }
  *leaf = parts.back();
  parts.pop_back();
  uint32_t ino = kRootInode;
  for (const std::string& part : parts) {
    ASSIGN_OR_RETURN(const Inode dir, ReadInode(ino));
    ASSIGN_OR_RETURN(ino, DirFind(dir, part));
  }
  return ino;
}

common::StatusOr<uint32_t> Vlfs::DirFind(const Inode& dir, const std::string& name) {
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t phys, BmapRead(dir, fbi));
    if (phys == kNoAddr) {
      continue;
    }
    ASSIGN_OR_RETURN(Buffer * buffer, GetDataBlock(phys, true));
    if (const auto slot = DirEntry::Find(buffer->data, name)) {
      return slot->ino;
    }
  }
  return common::NotFound("no such file: " + name);
}

common::Status Vlfs::DirAdd(uint32_t dir_ino, Inode& dir, const std::string& name,
                            uint32_t child, bool sync) {
  const uint64_t blocks = dir.size / kBlockBytes;
  // Directory blocks are modified copy-on-write like everything else.
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t phys, BmapRead(dir, fbi));
    ASSIGN_OR_RETURN(Buffer * buffer, GetDataBlock(phys, true));
    if (const auto slot = DirEntry::FindFree(buffer->data)) {
      std::vector<std::byte> contents = buffer->data;
      DirEntry fresh_entry{child, name};
      fresh_entry.EncodeTo(std::span<std::byte>(contents).subspan(*slot * kDirEntryBytes));
      ASSIGN_OR_RETURN(const uint32_t fresh,
                       EagerWriteBlock(contents, kOwnerData |
                                                     (static_cast<uint64_t>(dir_ino) << 32) |
                                                     fbi));
      StageFree(phys);
      ForgetDataBlock(phys);
      ASSIGN_OR_RETURN(Buffer * warm, GetDataBlock(fresh, false));
      warm->data = std::move(contents);
      ++stats_.data_blocks_written;
      return BmapSet(dir_ino, dir, fbi, fresh, sync);
    }
  }
  // Grow the directory by one block.
  std::vector<std::byte> contents(kBlockBytes, std::byte{0});
  DirEntry fresh_entry{child, name};
  fresh_entry.EncodeTo(contents);
  ASSIGN_OR_RETURN(const uint32_t fresh,
                   EagerWriteBlock(contents, kOwnerData |
                                                 (static_cast<uint64_t>(dir_ino) << 32) |
                                                 blocks));
  ASSIGN_OR_RETURN(Buffer * warm, GetDataBlock(fresh, false));
  warm->data = std::move(contents);
  ++stats_.data_blocks_written;
  dir.size += kBlockBytes;
  dir.mtime = static_cast<uint64_t>(host_->clock()->Now());
  return BmapSet(dir_ino, dir, blocks, fresh, sync);
}

common::Status Vlfs::DirRemove(uint32_t dir_ino, Inode& dir, const std::string& name,
                               bool sync) {
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t phys, BmapRead(dir, fbi));
    ASSIGN_OR_RETURN(Buffer * buffer, GetDataBlock(phys, true));
    if (const auto slot = DirEntry::Find(buffer->data, name)) {
      std::vector<std::byte> contents = buffer->data;
      DirEntry empty;
      empty.EncodeTo(std::span<std::byte>(contents).subspan(slot->index * kDirEntryBytes));
      ASSIGN_OR_RETURN(const uint32_t fresh,
                       EagerWriteBlock(contents, kOwnerData |
                                                     (static_cast<uint64_t>(dir_ino) << 32) |
                                                     fbi));
      StageFree(phys);
      ForgetDataBlock(phys);
      ASSIGN_OR_RETURN(Buffer * warm, GetDataBlock(fresh, false));
      warm->data = std::move(contents);
      ++stats_.data_blocks_written;
      return BmapSet(dir_ino, dir, fbi, fresh, sync);
    }
  }
  return common::NotFound("no such entry: " + name);
}

common::Status Vlfs::CreateNode(const std::string& path, InodeType type) {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs);
  host_->ChargeSyscall();
  disk_->ChargeHostCommand();
  std::string leaf;
  ASSIGN_OR_RETURN(const uint32_t parent_ino, ResolveParent(path, &leaf));
  ASSIGN_OR_RETURN(Inode parent, ReadInode(parent_ino));
  if (parent.type != InodeType::kDirectory) {
    return common::InvalidArgument("parent is not a directory");
  }
  if (DirFind(parent, leaf).ok()) {
    return common::AlreadyExists(path);
  }
  ASSIGN_OR_RETURN(const uint32_t ino, AllocInodeNumber());
  Inode node;
  node.type = type;
  node.nlink = type == InodeType::kDirectory ? 2 : 1;
  node.mtime = static_cast<uint64_t>(host_->clock()->Now());
  host_->ChargeBlocks(2);
  RETURN_IF_ERROR(StoreInode(ino, node, /*sync=*/false));
  // Creates are synchronous yet cheap: everything lands near the head (§3.4).
  RETURN_IF_ERROR(DirAdd(parent_ino, parent, leaf, ino, /*sync=*/true));
  ++stats_.creates;
  return common::OkStatus();
}

common::Status Vlfs::Create(const std::string& path) {
  return CreateNode(path, InodeType::kFile);
}

common::Status Vlfs::Mkdir(const std::string& path) {
  return CreateNode(path, InodeType::kDirectory);
}

common::Status Vlfs::Remove(const std::string& path) {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs);
  host_->ChargeSyscall();
  disk_->ChargeHostCommand();
  std::string leaf;
  ASSIGN_OR_RETURN(const uint32_t parent_ino, ResolveParent(path, &leaf));
  ASSIGN_OR_RETURN(Inode parent, ReadInode(parent_ino));
  ASSIGN_OR_RETURN(const uint32_t ino, DirFind(parent, leaf));
  ASSIGN_OR_RETURN(Inode node, ReadInode(ino));
  if (node.type == InodeType::kDirectory) {
    ASSIGN_OR_RETURN(const auto entries, List(path));
    if (!entries.empty()) {
      return common::FailedPrecondition("directory not empty: " + path);
    }
  }
  host_->ChargeBlocks(2);
  RETURN_IF_ERROR(FreeFileBlocks(node));
  node.type = InodeType::kFree;
  node.nlink = 0;
  RETURN_IF_ERROR(StoreInode(ino, node, /*sync=*/false));
  RETURN_IF_ERROR(DirRemove(parent_ino, parent, leaf, /*sync=*/true));
  inode_used_[ino] = false;
  ++stats_.removes;
  return common::OkStatus();
}

common::Status Vlfs::Write(const std::string& path, uint64_t offset,
                           std::span<const std::byte> data, fs::WritePolicy policy) {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs, offset, data.size());
  host_->ChargeSyscall();
  host_->ChargeCopy(data.size());
  disk_->ChargeHostCommand();
  ASSIGN_OR_RETURN(const uint32_t ino, LookupPath(path));
  ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  if (inode.type != InodeType::kFile) {
    return common::InvalidArgument("not a regular file: " + path);
  }
  if (offset > inode.size) {
    return common::Unimplemented("sparse files not supported");
  }
  const bool sync = policy == fs::WritePolicy::kSync;

  uint64_t written = 0;
  std::vector<std::byte> merged(kBlockBytes);
  while (written < data.size()) {
    const uint64_t pos = offset + written;
    const uint64_t fbi = pos / kBlockBytes;
    const uint64_t in_block = pos % kBlockBytes;
    const uint64_t chunk = std::min<uint64_t>(kBlockBytes - in_block, data.size() - written);
    host_->ChargeBlocks(1);
    ASSIGN_OR_RETURN(const uint32_t old_phys, BmapRead(inode, fbi));
    if (in_block == 0 && chunk == kBlockBytes) {
      std::memcpy(merged.data(), data.data() + written, kBlockBytes);
    } else {
      std::fill(merged.begin(), merged.end(), std::byte{0});
      if (old_phys != kNoAddr) {
        ASSIGN_OR_RETURN(Buffer * old_buf, GetDataBlock(old_phys, true));
        merged = old_buf->data;
      }
      std::memcpy(merged.data() + in_block, data.data() + written, chunk);
    }
    ASSIGN_OR_RETURN(const uint32_t fresh,
                     EagerWriteBlock(merged, kOwnerData | (static_cast<uint64_t>(ino) << 32) |
                                                 fbi));
    if (old_phys != kNoAddr) {
      StageFree(old_phys);
      ForgetDataBlock(old_phys);
    }
    ASSIGN_OR_RETURN(Buffer * warm, GetDataBlock(fresh, false));
    warm->data = merged;
    ++stats_.data_blocks_written;
    RETURN_IF_ERROR(BmapSet(ino, inode, fbi, fresh, /*sync=*/false));
    written += chunk;
  }

  inode.size = std::max<uint64_t>(inode.size, offset + data.size());
  inode.mtime = static_cast<uint64_t>(host_->clock()->Now());
  return StoreInode(ino, inode, sync);
}

common::StatusOr<uint64_t> Vlfs::Read(const std::string& path, uint64_t offset,
                                      std::span<std::byte> out) {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs, offset, out.size());
  host_->ChargeSyscall();
  disk_->ChargeHostCommand();
  ASSIGN_OR_RETURN(const uint32_t ino, LookupPath(path));
  ASSIGN_OR_RETURN(const Inode inode, ReadInode(ino));
  if (offset >= inode.size) {
    return uint64_t{0};
  }
  const uint64_t len = std::min<uint64_t>(out.size(), inode.size - offset);
  host_->ChargeCopy(len);
  uint64_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint64_t fbi = pos / kBlockBytes;
    const uint64_t in_block = pos % kBlockBytes;
    const uint64_t chunk = std::min<uint64_t>(kBlockBytes - in_block, len - done);
    host_->ChargeBlocks(1);
    ASSIGN_OR_RETURN(const uint32_t phys, BmapRead(inode, fbi));
    if (phys == kNoAddr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      ASSIGN_OR_RETURN(Buffer * buffer, GetDataBlock(phys, true));
      std::memcpy(out.data() + done, buffer->data.data() + in_block, chunk);
    }
    done += chunk;
  }
  return len;
}

common::StatusOr<fs::FileInfo> Vlfs::Stat(const std::string& path) {
  host_->ChargeSyscall();
  ASSIGN_OR_RETURN(const uint32_t ino, LookupPath(path));
  ASSIGN_OR_RETURN(const Inode inode, ReadInode(ino));
  return fs::FileInfo{inode.size, inode.type == InodeType::kDirectory};
}

common::StatusOr<std::vector<std::string>> Vlfs::List(const std::string& dir_path) {
  host_->ChargeSyscall();
  ASSIGN_OR_RETURN(const uint32_t ino, LookupPath(dir_path));
  ASSIGN_OR_RETURN(const Inode dir, ReadInode(ino));
  if (dir.type != InodeType::kDirectory) {
    return common::InvalidArgument("not a directory: " + dir_path);
  }
  std::vector<std::string> names;
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t phys, BmapRead(dir, fbi));
    if (phys == kNoAddr) {
      continue;
    }
    ASSIGN_OR_RETURN(Buffer * buffer, GetDataBlock(phys, true));
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      const DirEntry entry =
          DirEntry::Decode(std::span<const std::byte>(buffer->data).subspan(e * kDirEntryBytes));
      if (entry.ino != kNoInode) {
        names.push_back(entry.name);
      }
    }
  }
  return names;
}

common::Status Vlfs::Sync() {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs);
  host_->ChargeSyscall();
  disk_->ChargeHostCommand();
  return CommitGroup();
}

common::Status Vlfs::DropCaches() {
  RETURN_IF_ERROR(Sync());
  data_cache_.clear();
  inode_cache_.clear();
  return common::OkStatus();
}

common::Status Vlfs::Park() {
  RETURN_IF_ERROR(CommitGroup());
  return vlog_.Park();
}

common::Status Vlfs::Checkpoint() {
  RETURN_IF_ERROR(CommitGroup());
  return vlog_.WriteCheckpoint([this](uint32_t piece) { return MapPieceEntries(piece); });
}

void Vlfs::RunIdle(common::Duration budget) {
  if (budget <= 0) {
    return;
  }
  const common::Time deadline = disk_->clock()->Now() + budget;
  (void)CommitGroup();
  if (vlog_.IdleCheckpointDue() && disk_->clock()->Now() < deadline) {
    (void)Checkpoint();
  }
  if (disk_->clock()->Now() < deadline) {
    compactor_->RunUntil(deadline);
  }
}

common::StatusOr<VlfsRecoveryInfo> Vlfs::Recover() {
  const uint64_t system = space_.system_blocks();
  space_ = core::FreeSpaceMap(disk_->geometry(), config_.block_sectors);
  for (uint32_t b = 0; b < system; ++b) {
    space_.MarkSystem(b);
  }
  allocator_ = core::EagerAllocator(
      disk_, &space_,
      core::AllocatorConfig{.fill_to_threshold = true,
                            .track_switch_threshold = config_.track_switch_threshold});
  inode_cache_.clear();
  data_cache_.clear();
  staged_frees_.clear();
  owner_.assign(space_.total_blocks(), kOwnerNone);
  inode_map_.assign(config_.inode_blocks, core::kUnmappedBlock);
  inode_used_.assign(InodeCount(), false);
  inode_used_[kNoInode] = true;

  ASSIGN_OR_RETURN(core::RecoveryResult recovered, vlog_.Recover());
  VlfsRecoveryInfo info;
  info.used_scan = recovered.used_scan;
  info.from_checkpoint = recovered.from_checkpoint;
  info.log_sectors_read = recovered.sectors_read;
  info.discarded_txn_sectors = recovered.discarded_txn_sectors;
  for (uint32_t piece = 0; piece < recovered.pieces.size(); ++piece) {
    const auto& entries = recovered.pieces[piece];
    for (uint32_t i = 0; i < entries.size(); ++i) {
      const uint32_t iblock = piece * core::kEntriesPerSector + i;
      if (iblock >= config_.inode_blocks || entries[i] == core::kUnmappedBlock) {
        continue;
      }
      inode_map_[iblock] = entries[i];
      space_.MarkLive(entries[i]);
      owner_[entries[i]] = kOwnerInodeBlock | iblock;
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

  // Walk the live inodes to rebuild data-block ownership and the free-space map.
  std::vector<std::byte> raw(kBlockBytes);
  for (uint32_t iblock = 0; iblock < config_.inode_blocks; ++iblock) {
    if (inode_map_[iblock] == core::kUnmappedBlock) {
      continue;
    }
    RETURN_IF_ERROR(disk_->InternalRead(space_.BlockToLba(inode_map_[iblock]), raw));
    ++info.inode_blocks_scanned;
    for (uint32_t i = 0; i < kInodesPerBlock; ++i) {
      const uint32_t ino = iblock * kInodesPerBlock + i;
      const Inode inode =
          Inode::Decode(std::span<const std::byte>(raw).subspan(i * ufs::kInodeBytes));
      if (inode.IsFree()) {
        continue;
      }
      inode_used_[ino] = true;
      const uint64_t blocks = (inode.size + kBlockBytes - 1) / kBlockBytes;
      for (uint64_t fbi = 0; fbi < std::min<uint64_t>(blocks, kDirectPtrs); ++fbi) {
        if (inode.direct[fbi] != kNoAddr) {
          space_.MarkLive(inode.direct[fbi]);
          owner_[inode.direct[fbi]] =
              kOwnerData | (static_cast<uint64_t>(ino) << 32) | fbi;
          ++info.live_blocks;
        }
      }
      if (inode.indirect != kNoAddr) {
        space_.MarkLive(inode.indirect);
        owner_[inode.indirect] =
            kOwnerData | (static_cast<uint64_t>(ino) << 32) | kIndirectFbi;
        std::vector<std::byte> table(kBlockBytes);
        RETURN_IF_ERROR(disk_->InternalRead(space_.BlockToLba(inode.indirect), table));
        const uint64_t limit = std::min<uint64_t>(blocks, kDirectPtrs + kPtrsPerBlock);
        for (uint64_t fbi = kDirectPtrs; fbi < limit; ++fbi) {
          const uint32_t phys =
              common::LoadLe<uint32_t>(table, (fbi - kDirectPtrs) * 4);
          if (phys != kNoAddr) {
            space_.MarkLive(phys);
            owner_[phys] = kOwnerData | (static_cast<uint64_t>(ino) << 32) | fbi;
            ++info.live_blocks;
          }
        }
      }
    }
  }
  for (const uint32_t piece : recovered.uncovered_pieces) {
    RETURN_IF_ERROR(RewritePiece(piece));
  }
  return info;
}

// --- Compaction backend ---

common::Status Vlfs::RelocateDataBlock(uint32_t phys_block) {
  const uint64_t owner = owner_[phys_block];
  if (owner == kOwnerNone) {
    return common::FailedPrecondition("VLFS relocate: unowned block");
  }
  std::vector<std::byte> raw(kBlockBytes);
  RETURN_IF_ERROR(disk_->InternalRead(space_.BlockToLba(phys_block), raw));

  if (owner & kOwnerInodeBlock) {
    const uint32_t iblock = static_cast<uint32_t>(owner & 0xFFFFFFFF);
    ASSIGN_OR_RETURN(const uint32_t fresh, EagerWriteBlock(raw, owner));
    inode_map_[iblock] = fresh;
    RETURN_IF_ERROR(RewritePiece(PieceOfInodeBlock(iblock)));
    allocator_.Free(phys_block);
    owner_[phys_block] = kOwnerNone;
    inode_cache_.erase(iblock);  // Cached copy is still valid, but keep bookkeeping simple.
    return common::OkStatus();
  }

  const uint32_t ino = static_cast<uint32_t>((owner >> 32) & 0x3FFFFFFF);
  const uint32_t fbi = static_cast<uint32_t>(owner & 0xFFFFFFFF);
  ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  ASSIGN_OR_RETURN(const uint32_t fresh, EagerWriteBlock(raw, owner));
  ForgetDataBlock(phys_block);
  if (fbi == kIndirectFbi) {
    inode.indirect = fresh;
    RETURN_IF_ERROR(StoreInode(ino, inode, /*sync=*/false));
  } else {
    RETURN_IF_ERROR(BmapSet(ino, inode, fbi, fresh, /*sync=*/false));
  }
  // Commit immediately so the victim block is actually freed before the compactor checks.
  RETURN_IF_ERROR(CommitGroup());
  allocator_.Free(phys_block);
  owner_[phys_block] = kOwnerNone;
  return common::OkStatus();
}

common::Status Vlfs::RewritePiece(uint32_t piece) {
  const core::VirtualLog::PieceUpdate update{piece, MapPieceEntries(piece)};
  return vlog_.Commit({&update, 1});
}

}  // namespace vlog::vlfs
