#include "src/ufs/ufs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/common/bytes.h"

namespace vlog::ufs {

Ufs::Ufs(simdisk::BlockDevice* device, simdisk::HostModel* host, UfsConfig config)
    : device_(device), host_(host), config_(config) {}

uint32_t Ufs::FragsForBlock(uint64_t size, uint64_t fbi) {
  const uint64_t blocks = (size + kBlockBytes - 1) / kBlockBytes;
  if (fbi >= blocks) {
    return 0;
  }
  if (fbi + 1 == blocks && blocks <= kDirectPtrs) {
    const uint64_t tail = size - fbi * kBlockBytes;
    return static_cast<uint32_t>((tail + kFragBytes - 1) / kFragBytes);
  }
  return kFragsPerBlock;
}

uint32_t Ufs::CgOfFrag(uint32_t frag_addr) const {
  return (frag_addr / kFragsPerBlock - 1) / sb_.blocks_per_cg;
}

common::Status Ufs::Format() {
  const uint64_t total_bytes = device_->SectorCount() * device_->SectorBytes();
  sb_ = Superblock{};
  sb_.total_frags = static_cast<uint32_t>(total_bytes / kFragBytes);
  sb_.blocks_per_cg = config_.blocks_per_cg;
  const uint32_t total_blocks = sb_.total_frags / kFragsPerBlock;
  if (total_blocks < 1 + sb_.blocks_per_cg) {
    return common::InvalidArgument("device too small for one cylinder group");
  }
  sb_.cg_count = (total_blocks - 1) / sb_.blocks_per_cg;
  sb_.inodes_per_cg = std::max(kInodesPerBlock, sb_.blocks_per_cg / 2 / kInodesPerBlock *
                                                    kInodesPerBlock);

  cgs_.assign(sb_.cg_count, CylinderGroup(sb_.DataBlocksPerCg(), sb_.inodes_per_cg));
  cg_dirty_.assign(sb_.cg_count, true);
  cache_.clear();
  read_state_.clear();
  mounted_ = true;

  // Reserve inode 0 (invalid) and the root inode, then write the root directory inode.
  (void)cgs_[0].AllocInode();  // ino 0
  (void)cgs_[0].AllocInode();  // ino 1 = root
  Inode root;
  root.type = InodeType::kDirectory;
  root.nlink = 2;
  root.mtime = static_cast<uint64_t>(host_->clock()->Now());
  RETURN_IF_ERROR(StoreInode(kRootInode, root, /*sync=*/true));

  RETURN_IF_ERROR(device_->Write(0, sb_.Serialize()));
  return Sync();
}

common::Status Ufs::Mount() {
  std::vector<std::byte> raw(kBlockBytes);
  RETURN_IF_ERROR(device_->Read(0, raw));
  ASSIGN_OR_RETURN(sb_, Superblock::Parse(raw));
  cgs_.clear();
  cgs_.reserve(sb_.cg_count);
  for (uint32_t cg = 0; cg < sb_.cg_count; ++cg) {
    RETURN_IF_ERROR(device_->Read(static_cast<uint64_t>(sb_.CgStartBlock(cg)) * 8, raw));
    ASSIGN_OR_RETURN(CylinderGroup parsed,
                     CylinderGroup::Parse(raw, sb_.DataBlocksPerCg(), sb_.inodes_per_cg));
    cgs_.push_back(std::move(parsed));
  }
  cg_dirty_.assign(sb_.cg_count, false);
  cache_.clear();
  read_state_.clear();
  mounted_ = true;
  return common::OkStatus();
}

// --- Buffer cache ---

common::Status Ufs::EvictIfNeeded() {
  while (cache_.size() >= config_.cache_blocks) {
    // Global LRU; dirty buffers are flushed on the way out, like a Unix buffer cache.
    uint32_t victim = 0;
    uint64_t best = ~0ULL;
    for (const auto& [block, buffer] : cache_) {
      if (buffer.lru < best) {
        best = buffer.lru;
        victim = block;
      }
    }
    auto it = cache_.find(victim);
    if (it == cache_.end()) {
      break;
    }
    if (it->second.dirty_mask != 0) {
      RETURN_IF_ERROR(FlushBuffer(it->first, it->second));
    }
    cache_.erase(it);
  }
  return common::OkStatus();
}

common::StatusOr<Ufs::Buffer*> Ufs::GetBlock(uint32_t dev_block, bool read_from_disk) {
  auto it = cache_.find(dev_block);
  if (it != cache_.end()) {
    it->second.lru = ++lru_tick_;
    ++stats_.cache_hits;
    return &it->second;
  }
  ++stats_.cache_misses;
  RETURN_IF_ERROR(EvictIfNeeded());
  Buffer buffer;
  buffer.data.resize(kBlockBytes);
  buffer.lru = ++lru_tick_;
  if (read_from_disk) {
    RETURN_IF_ERROR(device_->Read(static_cast<uint64_t>(dev_block) * 8, buffer.data));
  }
  auto [pos, inserted] = cache_.emplace(dev_block, std::move(buffer));
  return &pos->second;
}

common::Status Ufs::FlushBuffer(uint32_t dev_block, Buffer& buffer) {
  // Write each contiguous dirty fragment run.
  uint32_t i = 0;
  while (i < kFragsPerBlock) {
    if (!(buffer.dirty_mask & (1u << i))) {
      ++i;
      continue;
    }
    uint32_t j = i;
    while (j < kFragsPerBlock && (buffer.dirty_mask & (1u << j))) {
      ++j;
    }
    RETURN_IF_ERROR(device_->Write(
        static_cast<uint64_t>(dev_block) * 8 + i * 2,
        std::span<const std::byte>(buffer.data).subspan(i * kFragBytes, (j - i) * kFragBytes)));
    ++stats_.delayed_data_writes;
    i = j;
  }
  buffer.dirty_mask = 0;
  return common::OkStatus();
}

common::Status Ufs::WriteFragsThrough(uint32_t dev_block, uint32_t frag_off,
                                      uint32_t frag_count) {
  auto buffer = GetBlock(dev_block, /*read_from_disk=*/false);
  RETURN_IF_ERROR(buffer.status());
  RETURN_IF_ERROR(device_->Write(
      static_cast<uint64_t>(dev_block) * 8 + frag_off * 2,
      std::span<const std::byte>((*buffer)->data).subspan(frag_off * kFragBytes,
                                                          frag_count * kFragBytes)));
  for (uint32_t i = frag_off; i < frag_off + frag_count; ++i) {
    (*buffer)->dirty_mask &= ~(1u << i);
  }
  return common::OkStatus();
}

// --- Inodes ---

common::StatusOr<Inode> Ufs::ReadInode(uint32_t ino) {
  if (ino == kNoInode || ino >= sb_.TotalInodes()) {
    return common::InvalidArgument("bad inode number");
  }
  ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(sb_.InodeBlock(ino), true));
  return Inode::Decode(std::span<const std::byte>(buffer->data).subspan(sb_.InodeOffset(ino)));
}

common::Status Ufs::StoreInode(uint32_t ino, const Inode& inode, bool sync) {
  const uint32_t block = sb_.InodeBlock(ino);
  // Inode blocks may be updated before ever being read; always read to keep neighbours intact.
  ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(block, true));
  inode.EncodeTo(std::span<std::byte>(buffer->data).subspan(sb_.InodeOffset(ino)));
  // FFS buffers metadata in whole file system blocks and writes them as such.
  if (sync) {
    ++stats_.sync_metadata_writes;
    return WriteFragsThrough(block, 0, kFragsPerBlock);
  }
  buffer->dirty_mask |= 1u << (sb_.InodeOffset(ino) / kFragBytes);
  return common::OkStatus();
}

// --- Allocation ---

uint64_t Ufs::FreeFragCount() const {
  uint64_t total = 0;
  for (const auto& cg : cgs_) {
    total += cg.free_frags();
  }
  return total;
}

double Ufs::Utilization() const {
  const uint64_t data_frags =
      static_cast<uint64_t>(sb_.cg_count) * sb_.DataBlocksPerCg() * kFragsPerBlock;
  return 1.0 - static_cast<double>(FreeFragCount()) / static_cast<double>(data_frags);
}

common::StatusOr<uint32_t> Ufs::AllocFrags(uint32_t cg_hint, uint32_t count, bool block_aligned) {
  const uint64_t data_frags =
      static_cast<uint64_t>(sb_.cg_count) * sb_.DataBlocksPerCg() * kFragsPerBlock;
  if (FreeFragCount() < data_frags * config_.min_free_pct / 100 + count) {
    return common::OutOfSpace("file system full (minfree reserve reached)");
  }
  for (uint32_t d = 0; d < sb_.cg_count; ++d) {
    // Search the hinted group first, then fan out (quadratic-ish FFS-style spread kept simple).
    const uint32_t cg = (cg_hint + d) % sb_.cg_count;
    if (const auto rel = cgs_[cg].AllocFrags(count, block_aligned, 0)) {
      cg_dirty_[cg] = true;
      return sb_.DataStartBlock(cg) * kFragsPerBlock + *rel;
    }
  }
  return common::OutOfSpace("no fragment run available");
}

void Ufs::FreeFragsAt(uint32_t frag_addr, uint32_t count) {
  const uint32_t cg = CgOfFrag(frag_addr);
  const uint32_t rel = frag_addr - sb_.DataStartBlock(cg) * kFragsPerBlock;
  cgs_[cg].FreeFrags(rel, count);
  cg_dirty_[cg] = true;
  // Cancel any delayed writes to the freed fragments.
  const auto it = cache_.find(frag_addr / kFragsPerBlock);
  if (it != cache_.end()) {
    for (uint32_t i = 0; i < count; ++i) {
      it->second.dirty_mask &= ~(1u << (frag_addr % kFragsPerBlock + i));
    }
  }
}

common::StatusOr<uint32_t> Ufs::AllocInodeNumber(uint32_t cg_hint) {
  for (uint32_t d = 0; d < sb_.cg_count; ++d) {
    const uint32_t cg = (cg_hint + d) % sb_.cg_count;
    if (const auto rel = cgs_[cg].AllocInode()) {
      cg_dirty_[cg] = true;
      return cg * sb_.inodes_per_cg + *rel;
    }
  }
  return common::OutOfSpace("out of inodes");
}

// --- Block mapping ---

common::StatusOr<uint32_t> Ufs::BmapRead(const Inode& inode, uint64_t fbi) {
  if (fbi < kDirectPtrs) {
    return inode.direct[fbi];
  }
  fbi -= kDirectPtrs;
  if (fbi < kPtrsPerBlock) {
    if (inode.indirect == kNoAddr) {
      return kNoAddr;
    }
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(inode.indirect / kFragsPerBlock, true));
    return common::LoadLe<uint32_t>(buffer->data, fbi * 4);
  }
  fbi -= kPtrsPerBlock;
  if (fbi < static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock) {
    if (inode.dindirect == kNoAddr) {
      return kNoAddr;
    }
    ASSIGN_OR_RETURN(Buffer * outer, GetBlock(inode.dindirect / kFragsPerBlock, true));
    const uint32_t mid = common::LoadLe<uint32_t>(outer->data, (fbi / kPtrsPerBlock) * 4);
    if (mid == kNoAddr) {
      return kNoAddr;
    }
    ASSIGN_OR_RETURN(Buffer * inner, GetBlock(mid / kFragsPerBlock, true));
    return common::LoadLe<uint32_t>(inner->data, (fbi % kPtrsPerBlock) * 4);
  }
  return common::InvalidArgument("file too large");
}

common::StatusOr<uint32_t> Ufs::BmapAlloc(Inode& inode, uint64_t fbi, uint32_t frags,
                                          fs::WritePolicy policy) {
  ASSIGN_OR_RETURN(uint32_t current, BmapRead(inode, fbi));
  const uint32_t old_frags = FragsForBlock(inode.size, fbi);
  if (current != kNoAddr && old_frags >= frags) {
    return current;  // Update in place.
  }

  uint32_t addr = kNoAddr;
  if (current != kNoAddr) {
    // Tail growth: try to extend the fragment run in place, else promote (copy) it.
    const uint32_t cg = CgOfFrag(current);
    const uint32_t rel = current - sb_.DataStartBlock(cg) * kFragsPerBlock;
    const bool same_block = (rel % kFragsPerBlock) + frags <= kFragsPerBlock;
    if (same_block && cgs_[cg].FragsFreeAt(rel + old_frags, frags - old_frags)) {
      cgs_[cg].TakeFragsAt(rel + old_frags, frags - old_frags);
      cg_dirty_[cg] = true;
      return current;
    }
    ASSIGN_OR_RETURN(addr, AllocFrags(cg, frags, frags == kFragsPerBlock));
    // Copy the surviving fragments to the new location (fragment promotion).
    ASSIGN_OR_RETURN(Buffer * old_buf, GetBlock(current / kFragsPerBlock, true));
    std::vector<std::byte> keep(old_buf->data.begin() +
                                    (current % kFragsPerBlock) * kFragBytes,
                                old_buf->data.begin() +
                                    (current % kFragsPerBlock + old_frags) * kFragBytes);
    ASSIGN_OR_RETURN(Buffer * new_buf, GetBlock(addr / kFragsPerBlock, true));
    std::memcpy(new_buf->data.data() + (addr % kFragsPerBlock) * kFragBytes, keep.data(),
                keep.size());
    for (uint32_t i = 0; i < old_frags; ++i) {
      new_buf->dirty_mask |= 1u << (addr % kFragsPerBlock + i);
    }
    FreeFragsAt(current, old_frags);
    ++stats_.frag_promotions;
  } else {
    // Fresh block: place near the previous one when possible.
    uint32_t hint_cg = 0;
    if (fbi > 0) {
      ASSIGN_OR_RETURN(const uint32_t prev, BmapRead(inode, fbi - 1));
      hint_cg = prev != kNoAddr ? CgOfFrag(prev) : 0;
    }
    ASSIGN_OR_RETURN(addr, AllocFrags(hint_cg, frags, frags == kFragsPerBlock));
  }

  // Record the new pointer.
  const bool sync = policy == fs::WritePolicy::kSync;
  if (fbi < kDirectPtrs) {
    inode.direct[fbi] = addr;
    return addr;
  }
  uint64_t idx = fbi - kDirectPtrs;
  uint32_t table_addr;
  if (idx < kPtrsPerBlock) {
    if (inode.indirect == kNoAddr) {
      ASSIGN_OR_RETURN(inode.indirect, AllocFrags(CgOfFrag(addr), kFragsPerBlock, true));
      ASSIGN_OR_RETURN(Buffer * fresh, GetBlock(inode.indirect / kFragsPerBlock, false));
      std::fill(fresh->data.begin(), fresh->data.end(), std::byte{0});
    }
    table_addr = inode.indirect;
  } else {
    idx -= kPtrsPerBlock;
    if (inode.dindirect == kNoAddr) {
      ASSIGN_OR_RETURN(inode.dindirect, AllocFrags(CgOfFrag(addr), kFragsPerBlock, true));
      ASSIGN_OR_RETURN(Buffer * fresh, GetBlock(inode.dindirect / kFragsPerBlock, false));
      std::fill(fresh->data.begin(), fresh->data.end(), std::byte{0});
    }
    ASSIGN_OR_RETURN(Buffer * outer, GetBlock(inode.dindirect / kFragsPerBlock, true));
    uint32_t mid = common::LoadLe<uint32_t>(outer->data, (idx / kPtrsPerBlock) * 4);
    if (mid == kNoAddr) {
      ASSIGN_OR_RETURN(mid, AllocFrags(CgOfFrag(addr), kFragsPerBlock, true));
      ASSIGN_OR_RETURN(Buffer * fresh, GetBlock(mid / kFragsPerBlock, false));
      std::fill(fresh->data.begin(), fresh->data.end(), std::byte{0});
      common::StoreLe<uint32_t>(outer->data, (idx / kPtrsPerBlock) * 4, mid);
      outer->dirty_mask = 0xF;
      if (sync) {
        RETURN_IF_ERROR(WriteFragsThrough(inode.dindirect / kFragsPerBlock, 0, kFragsPerBlock));
        ++stats_.sync_metadata_writes;
      }
    }
    table_addr = mid;
    idx %= kPtrsPerBlock;
  }
  ASSIGN_OR_RETURN(Buffer * table, GetBlock(table_addr / kFragsPerBlock, true));
  common::StoreLe<uint32_t>(table->data, (idx % kPtrsPerBlock) * 4, addr);
  table->dirty_mask = 0xF;
  if (sync) {
    RETURN_IF_ERROR(WriteFragsThrough(table_addr / kFragsPerBlock, 0, kFragsPerBlock));
    ++stats_.sync_metadata_writes;
  }
  return addr;
}

common::Status Ufs::FreeFileBlocks(Inode& inode) {
  const uint64_t blocks = (inode.size + kBlockBytes - 1) / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(inode, fbi));
    if (addr != kNoAddr) {
      FreeFragsAt(addr, FragsForBlock(inode.size, fbi));
    }
  }
  if (inode.indirect != kNoAddr) {
    FreeFragsAt(inode.indirect, kFragsPerBlock);
  }
  if (inode.dindirect != kNoAddr) {
    ASSIGN_OR_RETURN(Buffer * outer, GetBlock(inode.dindirect / kFragsPerBlock, true));
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      const uint32_t mid = common::LoadLe<uint32_t>(outer->data, i * 4);
      if (mid != kNoAddr) {
        FreeFragsAt(mid, kFragsPerBlock);
      }
    }
    FreeFragsAt(inode.dindirect, kFragsPerBlock);
  }
  std::fill(std::begin(inode.direct), std::end(inode.direct), kNoAddr);
  inode.indirect = kNoAddr;
  inode.dindirect = kNoAddr;
  inode.size = 0;
  return common::OkStatus();
}

// --- Paths & directories ---

common::StatusOr<uint32_t> Ufs::LookupPath(const std::string& path) {
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

common::StatusOr<uint32_t> Ufs::ResolveParent(const std::string& path, std::string* leaf) {
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

common::StatusOr<uint32_t> Ufs::DirFind(const Inode& dir, const std::string& name) {
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(dir, fbi));
    if (addr == kNoAddr) {
      continue;
    }
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr / kFragsPerBlock, true));
    if (const auto slot = DirEntry::Find(buffer->data, name)) {
      return slot->ino;
    }
  }
  return common::NotFound("no such file: " + name);
}

common::Status Ufs::DirAdd(uint32_t dir_ino, Inode& dir, const std::string& name,
                           uint32_t child) {
  // Find a free slot in the existing blocks.
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(dir, fbi));
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr / kFragsPerBlock, true));
    if (const auto slot = DirEntry::FindFree(buffer->data)) {
      DirEntry fresh{child, name};
      fresh.EncodeTo(std::span<std::byte>(buffer->data).subspan(*slot * kDirEntryBytes));
      ++stats_.sync_metadata_writes;
      return WriteFragsThrough(addr / kFragsPerBlock, 0, kFragsPerBlock);
    }
  }
  // Grow the directory by one block.
  ASSIGN_OR_RETURN(const uint32_t addr,
                   BmapAlloc(dir, blocks, kFragsPerBlock, fs::WritePolicy::kSync));
  ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr / kFragsPerBlock, false));
  std::fill(buffer->data.begin(), buffer->data.end(), std::byte{0});
  DirEntry fresh{child, name};
  fresh.EncodeTo(buffer->data);
  dir.size += kBlockBytes;
  dir.mtime = static_cast<uint64_t>(host_->clock()->Now());
  ++stats_.sync_metadata_writes;
  RETURN_IF_ERROR(WriteFragsThrough(addr / kFragsPerBlock, 0, kFragsPerBlock));
  return StoreInode(dir_ino, dir, /*sync=*/true);
}

common::Status Ufs::DirRemove(uint32_t dir_ino, Inode& dir, const std::string& name) {
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(dir, fbi));
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr / kFragsPerBlock, true));
    if (const auto slot = DirEntry::Find(buffer->data, name)) {
      DirEntry empty;
      empty.EncodeTo(std::span<std::byte>(buffer->data).subspan(slot->index * kDirEntryBytes));
      ++stats_.sync_metadata_writes;
      return WriteFragsThrough(addr / kFragsPerBlock, 0, kFragsPerBlock);
    }
  }
  (void)dir_ino;
  return common::NotFound("no such entry: " + name);
}

common::Status Ufs::CreateNode(const std::string& path, InodeType type) {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs);
  host_->ChargeSyscall();
  std::string leaf;
  ASSIGN_OR_RETURN(const uint32_t parent_ino, ResolveParent(path, &leaf));
  ASSIGN_OR_RETURN(Inode parent, ReadInode(parent_ino));
  if (parent.type != InodeType::kDirectory) {
    return common::InvalidArgument("parent is not a directory");
  }
  if (DirFind(parent, leaf).ok()) {
    return common::AlreadyExists(path);
  }
  ASSIGN_OR_RETURN(const uint32_t ino, AllocInodeNumber(CgOfInode(parent_ino)));
  Inode node;
  node.type = type;
  node.nlink = type == InodeType::kDirectory ? 2 : 1;
  node.mtime = static_cast<uint64_t>(host_->clock()->Now());
  host_->ChargeBlocks(2);
  RETURN_IF_ERROR(StoreInode(ino, node, /*sync=*/true));
  RETURN_IF_ERROR(DirAdd(parent_ino, parent, leaf, ino));
  if (type == InodeType::kDirectory) {
    ++parent.nlink;
    RETURN_IF_ERROR(StoreInode(parent_ino, parent, /*sync=*/true));
  }
  ++stats_.creates;
  return common::OkStatus();
}

common::Status Ufs::Create(const std::string& path) {
  return CreateNode(path, InodeType::kFile);
}

common::Status Ufs::Mkdir(const std::string& path) {
  return CreateNode(path, InodeType::kDirectory);
}

common::Status Ufs::Remove(const std::string& path) {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs);
  host_->ChargeSyscall();
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
  RETURN_IF_ERROR(DirRemove(parent_ino, parent, leaf));
  RETURN_IF_ERROR(FreeFileBlocks(node));
  node.type = InodeType::kFree;
  node.nlink = 0;
  RETURN_IF_ERROR(StoreInode(ino, node, /*sync=*/true));
  const uint32_t cg = CgOfInode(ino);
  cgs_[cg].FreeInode(ino % sb_.inodes_per_cg);
  cg_dirty_[cg] = true;
  read_state_.erase(ino);
  ++stats_.removes;
  return common::OkStatus();
}

common::Status Ufs::Write(const std::string& path, uint64_t offset,
                          std::span<const std::byte> data, fs::WritePolicy policy) {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs, offset, data.size());
  host_->ChargeSyscall();
  host_->ChargeCopy(data.size());
  ASSIGN_OR_RETURN(const uint32_t ino, LookupPath(path));
  ASSIGN_OR_RETURN(Inode inode, ReadInode(ino));
  if (inode.type != InodeType::kFile) {
    return common::InvalidArgument("not a regular file: " + path);
  }
  if (offset > inode.size) {
    return common::Unimplemented("sparse files (write past EOF) not supported");
  }
  const uint64_t new_size = std::max<uint64_t>(inode.size, offset + data.size());
  const bool sync = policy == fs::WritePolicy::kSync;

  uint64_t written = 0;
  while (written < data.size()) {
    const uint64_t pos = offset + written;
    const uint64_t fbi = pos / kBlockBytes;
    const uint64_t in_block = pos % kBlockBytes;
    const uint64_t chunk = std::min<uint64_t>(kBlockBytes - in_block, data.size() - written);
    host_->ChargeBlocks(1);

    const uint32_t frags = FragsForBlock(new_size, fbi);
    ASSIGN_OR_RETURN(const uint32_t addr, BmapAlloc(inode, fbi, frags, policy));
    const uint32_t dev_block = addr / kFragsPerBlock;
    const uint32_t frag_in_block = addr % kFragsPerBlock;
    // Read the underlying block unless this write covers the whole fragment run of a
    // block-aligned full block.
    const bool full_overwrite =
        in_block == 0 && chunk == kBlockBytes && frag_in_block == 0;
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(dev_block, !full_overwrite));
    std::memcpy(buffer->data.data() + frag_in_block * kFragBytes + in_block,
                data.data() + written, chunk);
    const uint32_t first_frag = frag_in_block + static_cast<uint32_t>(in_block / kFragBytes);
    const uint32_t last_frag =
        frag_in_block + static_cast<uint32_t>((in_block + chunk - 1) / kFragBytes);
    if (sync) {
      ++stats_.sync_data_writes;
      RETURN_IF_ERROR(WriteFragsThrough(dev_block, first_frag, last_frag - first_frag + 1));
    } else {
      for (uint32_t f = first_frag; f <= last_frag; ++f) {
        buffer->dirty_mask |= 1u << f;
      }
    }
    written += chunk;
  }

  inode.size = new_size;
  inode.mtime = static_cast<uint64_t>(host_->clock()->Now());
  return StoreInode(ino, inode, sync);
}

common::StatusOr<uint64_t> Ufs::Read(const std::string& path, uint64_t offset,
                                     std::span<std::byte> out) {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs, offset, out.size());
  host_->ChargeSyscall();
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
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(inode, fbi));
    if (addr == kNoAddr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr / kFragsPerBlock, true));
      std::memcpy(out.data() + done,
                  buffer->data.data() + (addr % kFragsPerBlock) * kFragBytes + in_block, chunk);
    }
    done += chunk;
  }

  // Sequential-read detection and prefetch.
  const uint64_t first_fbi = offset / kBlockBytes;
  const uint64_t next_fbi = (offset + len + kBlockBytes - 1) / kBlockBytes;
  auto& [expected, run] = read_state_[ino];
  if (first_fbi == expected && expected != 0) {
    ++run;
  } else if (first_fbi == 0) {
    run = 1;
  } else {
    run = 0;
  }
  expected = next_fbi;
  if (run >= 2) {
    // Prefetch the next config_.prefetch_blocks full blocks in coalesced device reads.
    uint64_t fbi = next_fbi;
    const uint64_t limit =
        std::min<uint64_t>(fbi + config_.prefetch_blocks, inode.size / kBlockBytes);
    while (fbi < limit) {
      ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(inode, fbi));
      if (addr == kNoAddr || addr % kFragsPerBlock != 0 ||
          cache_.contains(addr / kFragsPerBlock)) {
        ++fbi;
        continue;
      }
      // Extend the run while physically contiguous.
      uint32_t run_blocks = 1;
      while (fbi + run_blocks < limit) {
        ASSIGN_OR_RETURN(const uint32_t next, BmapRead(inode, fbi + run_blocks));
        if (next != addr + run_blocks * kFragsPerBlock ||
            cache_.contains(next / kFragsPerBlock)) {
          break;
        }
        ++run_blocks;
      }
      std::vector<std::byte> bulk(static_cast<size_t>(run_blocks) * kBlockBytes);
      RETURN_IF_ERROR(device_->Read(static_cast<uint64_t>(addr) * 2, bulk));
      for (uint32_t b = 0; b < run_blocks; ++b) {
        RETURN_IF_ERROR(EvictIfNeeded());
        Buffer buffer;
        buffer.data.assign(bulk.begin() + static_cast<size_t>(b) * kBlockBytes,
                           bulk.begin() + static_cast<size_t>(b + 1) * kBlockBytes);
        buffer.lru = ++lru_tick_;
        cache_.emplace(addr / kFragsPerBlock + b, std::move(buffer));
        ++stats_.prefetch_reads;
      }
      fbi += run_blocks;
    }
  }
  return len;
}

common::StatusOr<fs::FileInfo> Ufs::Stat(const std::string& path) {
  host_->ChargeSyscall();
  ASSIGN_OR_RETURN(const uint32_t ino, LookupPath(path));
  ASSIGN_OR_RETURN(const Inode inode, ReadInode(ino));
  return fs::FileInfo{inode.size, inode.type == InodeType::kDirectory};
}

common::StatusOr<std::vector<std::string>> Ufs::List(const std::string& dir_path) {
  host_->ChargeSyscall();
  ASSIGN_OR_RETURN(const uint32_t ino, LookupPath(dir_path));
  ASSIGN_OR_RETURN(const Inode dir, ReadInode(ino));
  if (dir.type != InodeType::kDirectory) {
    return common::InvalidArgument("not a directory: " + dir_path);
  }
  std::vector<std::string> names;
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(dir, fbi));
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr / kFragsPerBlock, true));
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      const DirEntry entry = DirEntry::Decode(
          std::span<const std::byte>(buffer->data).subspan(e * kDirEntryBytes));
      if (entry.ino != kNoInode) {
        names.push_back(entry.name);
      }
    }
  }
  return names;
}

common::Status Ufs::Sync() {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs);
  host_->ChargeSyscall();
  // Write clustering (UFS-style): coalesce fully dirty, physically adjacent blocks into one
  // device request (up to 64 KB) so sequential write-back does not miss a rotation per block.
  std::vector<uint32_t> dirty;
  for (const auto& [block, buffer] : cache_) {
    if (buffer.dirty_mask != 0) {
      dirty.push_back(block);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  constexpr size_t kClusterBlocks = 16;
  size_t i = 0;
  while (i < dirty.size()) {
    size_t run = 1;
    while (i + run < dirty.size() && run < kClusterBlocks &&
           dirty[i + run] == dirty[i] + run && cache_[dirty[i + run]].dirty_mask == 0xF &&
           cache_[dirty[i + run - 1]].dirty_mask == 0xF) {
      ++run;
    }
    if (run > 1 && cache_[dirty[i]].dirty_mask == 0xF) {
      std::vector<std::byte> cluster(run * kBlockBytes);
      for (size_t b = 0; b < run; ++b) {
        Buffer& buffer = cache_[dirty[i + b]];
        std::copy(buffer.data.begin(), buffer.data.end(),
                  cluster.begin() + static_cast<ptrdiff_t>(b * kBlockBytes));
        buffer.dirty_mask = 0;
      }
      RETURN_IF_ERROR(device_->Write(static_cast<uint64_t>(dirty[i]) * 8, cluster));
      stats_.delayed_data_writes += run;
      i += run;
    } else {
      RETURN_IF_ERROR(FlushBuffer(dirty[i], cache_[dirty[i]]));
      ++i;
    }
  }
  for (uint32_t cg = 0; cg < sb_.cg_count; ++cg) {
    if (cg_dirty_[cg]) {
      RETURN_IF_ERROR(
          device_->Write(static_cast<uint64_t>(sb_.CgStartBlock(cg)) * 8, cgs_[cg].Serialize()));
      cg_dirty_[cg] = false;
    }
  }
  RETURN_IF_ERROR(device_->Write(0, sb_.Serialize()));
  // Sync promises durability, so drain the device's volatile write cache too.
  return device_->Flush();
}

common::Status Ufs::DropCaches() {
  RETURN_IF_ERROR(Sync());
  cache_.clear();
  read_state_.clear();
  return common::OkStatus();
}

}  // namespace vlog::ufs
