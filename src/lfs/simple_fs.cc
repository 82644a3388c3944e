#include "src/lfs/simple_fs.h"

#include <algorithm>
#include <cstring>

#include "src/common/bytes.h"

namespace vlog::lfs {

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

SimpleFs::SimpleFs(LogStructuredDisk* disk, simdisk::HostModel* host, SimpleFsConfig config)
    : disk_(disk), host_(host), config_(config) {}

common::Status SimpleFs::Format() {
  if (disk_->LogicalBlocks() <= DataStart()) {
    return common::InvalidArgument("log disk too small");
  }
  block_used_.assign(disk_->LogicalBlocks(), false);
  for (uint32_t b = 0; b < DataStart(); ++b) {
    block_used_[b] = true;
  }
  free_blocks_ = disk_->LogicalBlocks() - DataStart();
  inode_used_.assign(InodeCount(), false);
  inode_used_[kNoInode] = true;
  inode_used_[kRootInode] = true;
  cache_.clear();
  alloc_rotor_ = DataStart();

  Inode root;
  root.type = InodeType::kDirectory;
  root.nlink = 2;
  root.mtime = static_cast<uint64_t>(host_->clock()->Now());
  RETURN_IF_ERROR(StoreInode(kRootInode, root, /*sync=*/false));
  return Sync();
}

// --- Buffer cache over logical blocks ---

common::Status SimpleFs::EvictIfNeeded() {
  while (cache_.size() >= config_.cache_blocks) {
    // Global LRU (dirty buffers are flushed on the way out), as a Unix buffer cache does; a
    // clean-first policy would keep evicting the hot-but-clean indirect blocks.
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
    if (it->second.dirty) {
      RETURN_IF_ERROR(FlushBlock(it->first, it->second));
    }
    cache_.erase(it);
    ++stats_.evictions;
  }
  return common::OkStatus();
}

common::StatusOr<SimpleFs::Buffer*> SimpleFs::GetBlock(uint32_t lblock, bool read_from_disk) {
  auto it = cache_.find(lblock);
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
    RETURN_IF_ERROR(disk_->ReadBlock(lblock, buffer.data));
  }
  auto [pos, inserted] = cache_.emplace(lblock, std::move(buffer));
  return &pos->second;
}

common::Status SimpleFs::FlushBlock(uint32_t lblock, Buffer& buffer) {
  RETURN_IF_ERROR(disk_->WriteBlock(lblock, buffer.data));
  buffer.dirty = false;
  return common::OkStatus();
}

// --- Inodes ---

common::StatusOr<Inode> SimpleFs::ReadInode(uint32_t ino) {
  if (ino == kNoInode || ino >= InodeCount()) {
    return common::InvalidArgument("bad inode number");
  }
  ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(1 + ino / kInodesPerBlock, true));
  return Inode::Decode(
      std::span<const std::byte>(buffer->data).subspan((ino % kInodesPerBlock) * ufs::kInodeBytes));
}

common::Status SimpleFs::StoreInode(uint32_t ino, const Inode& inode, bool sync) {
  const uint32_t lblock = 1 + ino / kInodesPerBlock;
  ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(lblock, true));
  inode.EncodeTo(
      std::span<std::byte>(buffer->data).subspan((ino % kInodesPerBlock) * ufs::kInodeBytes));
  buffer->dirty = true;
  if (sync) {
    RETURN_IF_ERROR(FlushBlock(lblock, *buffer));
  }
  return common::OkStatus();
}

// --- Allocation ---

uint64_t SimpleFs::FreeBlocks() const { return free_blocks_; }

double SimpleFs::Utilization() const {
  const uint64_t data = disk_->LogicalBlocks() - DataStart();
  return 1.0 - static_cast<double>(free_blocks_) / static_cast<double>(data);
}

common::StatusOr<uint32_t> SimpleFs::AllocBlock() {
  if (free_blocks_ == 0) {
    return common::OutOfSpace("file system full");
  }
  const uint32_t total = disk_->LogicalBlocks();
  for (uint32_t i = 0; i < total; ++i) {
    const uint32_t b = alloc_rotor_ + i < total ? alloc_rotor_ + i
                                                : DataStart() + (alloc_rotor_ + i - total);
    if (!block_used_[b]) {
      block_used_[b] = true;
      --free_blocks_;
      alloc_rotor_ = b + 1 < total ? b + 1 : DataStart();
      return b;
    }
  }
  return common::OutOfSpace("file system full");
}

void SimpleFs::FreeBlock(uint32_t lblock) {
  block_used_[lblock] = false;
  ++free_blocks_;
  cache_.erase(lblock);          // Cancel any delayed write.
  (void)disk_->TrimBlock(lblock);  // Delete hint so the cleaner can reclaim the space.
}

common::StatusOr<uint32_t> SimpleFs::AllocInodeNumber() {
  for (uint32_t i = 0; i < inode_used_.size(); ++i) {
    if (!inode_used_[i]) {
      inode_used_[i] = true;
      return i;
    }
  }
  return common::OutOfSpace("out of inodes");
}

// --- Block mapping ---

common::StatusOr<uint32_t> SimpleFs::BmapRead(const Inode& inode, uint64_t fbi) {
  if (fbi < kDirectPtrs) {
    return inode.direct[fbi];
  }
  fbi -= kDirectPtrs;
  if (fbi < kPtrsPerBlock) {
    if (inode.indirect == kNoAddr) {
      return kNoAddr;
    }
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(inode.indirect, true));
    return common::LoadLe<uint32_t>(buffer->data, fbi * 4);
  }
  fbi -= kPtrsPerBlock;
  if (fbi < static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock) {
    if (inode.dindirect == kNoAddr) {
      return kNoAddr;
    }
    ASSIGN_OR_RETURN(Buffer * outer, GetBlock(inode.dindirect, true));
    const uint32_t mid = common::LoadLe<uint32_t>(outer->data, (fbi / kPtrsPerBlock) * 4);
    if (mid == kNoAddr) {
      return kNoAddr;
    }
    ASSIGN_OR_RETURN(Buffer * inner, GetBlock(mid, true));
    return common::LoadLe<uint32_t>(inner->data, (fbi % kPtrsPerBlock) * 4);
  }
  return common::InvalidArgument("file too large");
}

common::StatusOr<uint32_t> SimpleFs::BmapAlloc(Inode& inode, uint64_t fbi) {
  ASSIGN_OR_RETURN(uint32_t current, BmapRead(inode, fbi));
  if (current != kNoAddr) {
    return current;
  }
  ASSIGN_OR_RETURN(const uint32_t fresh, AllocBlock());
  if (fbi < kDirectPtrs) {
    inode.direct[fbi] = fresh;
    return fresh;
  }
  uint64_t idx = fbi - kDirectPtrs;
  uint32_t table;
  if (idx < kPtrsPerBlock) {
    if (inode.indirect == kNoAddr) {
      ASSIGN_OR_RETURN(inode.indirect, AllocBlock());
      ASSIGN_OR_RETURN(Buffer * b, GetBlock(inode.indirect, false));
      std::fill(b->data.begin(), b->data.end(), std::byte{0});
      b->dirty = true;
    }
    table = inode.indirect;
  } else {
    idx -= kPtrsPerBlock;
    if (inode.dindirect == kNoAddr) {
      ASSIGN_OR_RETURN(inode.dindirect, AllocBlock());
      ASSIGN_OR_RETURN(Buffer * b, GetBlock(inode.dindirect, false));
      std::fill(b->data.begin(), b->data.end(), std::byte{0});
      b->dirty = true;
    }
    ASSIGN_OR_RETURN(Buffer * outer, GetBlock(inode.dindirect, true));
    uint32_t mid = common::LoadLe<uint32_t>(outer->data, (idx / kPtrsPerBlock) * 4);
    if (mid == kNoAddr) {
      ASSIGN_OR_RETURN(mid, AllocBlock());
      ASSIGN_OR_RETURN(Buffer * b, GetBlock(mid, false));
      std::fill(b->data.begin(), b->data.end(), std::byte{0});
      b->dirty = true;
      common::StoreLe<uint32_t>(outer->data, (idx / kPtrsPerBlock) * 4, mid);
      outer->dirty = true;
    }
    table = mid;
  }
  ASSIGN_OR_RETURN(Buffer * tb, GetBlock(table, true));
  common::StoreLe<uint32_t>(tb->data, (idx % kPtrsPerBlock) * 4, fresh);
  tb->dirty = true;
  return fresh;
}

common::Status SimpleFs::FreeFileBlocks(Inode& inode) {
  const uint64_t blocks = (inode.size + kBlockBytes - 1) / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(inode, fbi));
    if (addr != kNoAddr) {
      FreeBlock(addr);
    }
  }
  if (inode.indirect != kNoAddr) {
    FreeBlock(inode.indirect);
  }
  if (inode.dindirect != kNoAddr) {
    ASSIGN_OR_RETURN(Buffer * outer, GetBlock(inode.dindirect, true));
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      const uint32_t mid = common::LoadLe<uint32_t>(outer->data, i * 4);
      if (mid != kNoAddr) {
        FreeBlock(mid);
      }
    }
    FreeBlock(inode.dindirect);
  }
  std::fill(std::begin(inode.direct), std::end(inode.direct), kNoAddr);
  inode.indirect = kNoAddr;
  inode.dindirect = kNoAddr;
  inode.size = 0;
  return common::OkStatus();
}

// --- Paths & directories ---

common::StatusOr<uint32_t> SimpleFs::LookupPath(const std::string& path) {
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

common::StatusOr<uint32_t> SimpleFs::ResolveParent(const std::string& path, std::string* leaf) {
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

common::StatusOr<uint32_t> SimpleFs::DirFind(const Inode& dir, const std::string& name) {
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(dir, fbi));
    if (addr == kNoAddr) {
      continue;
    }
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr, true));
    if (const auto slot = DirEntry::Find(buffer->data, name)) {
      return slot->ino;
    }
  }
  return common::NotFound("no such file: " + name);
}

common::Status SimpleFs::DirAdd(uint32_t dir_ino, Inode& dir, const std::string& name,
                                uint32_t child, bool sync) {
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(dir, fbi));
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr, true));
    if (const auto slot = DirEntry::FindFree(buffer->data)) {
      DirEntry fresh{child, name};
      fresh.EncodeTo(std::span<std::byte>(buffer->data).subspan(*slot * kDirEntryBytes));
      buffer->dirty = true;
      if (sync) {
        RETURN_IF_ERROR(FlushBlock(addr, *buffer));
      }
      return common::OkStatus();
    }
  }
  ASSIGN_OR_RETURN(const uint32_t addr, BmapAlloc(dir, blocks));
  ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr, false));
  std::fill(buffer->data.begin(), buffer->data.end(), std::byte{0});
  DirEntry fresh{child, name};
  fresh.EncodeTo(buffer->data);
  buffer->dirty = true;
  dir.size += kBlockBytes;
  dir.mtime = static_cast<uint64_t>(host_->clock()->Now());
  if (sync) {
    RETURN_IF_ERROR(FlushBlock(addr, *buffer));
  }
  return StoreInode(dir_ino, dir, sync);
}

common::Status SimpleFs::DirRemove(const Inode& dir, const std::string& name, bool sync) {
  const uint64_t blocks = dir.size / kBlockBytes;
  for (uint64_t fbi = 0; fbi < blocks; ++fbi) {
    ASSIGN_OR_RETURN(const uint32_t addr, BmapRead(dir, fbi));
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr, true));
    if (const auto slot = DirEntry::Find(buffer->data, name)) {
      DirEntry empty;
      empty.EncodeTo(std::span<std::byte>(buffer->data).subspan(slot->index * kDirEntryBytes));
      buffer->dirty = true;
      if (sync) {
        RETURN_IF_ERROR(FlushBlock(addr, *buffer));
      }
      return common::OkStatus();
    }
  }
  return common::NotFound("no such entry: " + name);
}

common::Status SimpleFs::CreateNode(const std::string& path, InodeType type) {
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
  ASSIGN_OR_RETURN(const uint32_t ino, AllocInodeNumber());
  Inode node;
  node.type = type;
  node.nlink = type == InodeType::kDirectory ? 2 : 1;
  node.mtime = static_cast<uint64_t>(host_->clock()->Now());
  host_->ChargeBlocks(2);
  // All metadata is asynchronous in this stack: the buffer cache (NVRAM in some experiments)
  // holds it until Sync() or eviction.
  RETURN_IF_ERROR(StoreInode(ino, node, /*sync=*/false));
  RETURN_IF_ERROR(DirAdd(parent_ino, parent, leaf, ino, /*sync=*/false));
  ++stats_.creates;
  return common::OkStatus();
}

common::Status SimpleFs::Create(const std::string& path) {
  return CreateNode(path, InodeType::kFile);
}

common::Status SimpleFs::Mkdir(const std::string& path) {
  return CreateNode(path, InodeType::kDirectory);
}

common::Status SimpleFs::Remove(const std::string& path) {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs);
  host_->ChargeSyscall();
  std::string leaf;
  ASSIGN_OR_RETURN(const uint32_t parent_ino, ResolveParent(path, &leaf));
  ASSIGN_OR_RETURN(const Inode parent, ReadInode(parent_ino));
  ASSIGN_OR_RETURN(const uint32_t ino, DirFind(parent, leaf));
  ASSIGN_OR_RETURN(Inode node, ReadInode(ino));
  if (node.type == InodeType::kDirectory) {
    ASSIGN_OR_RETURN(const auto entries, List(path));
    if (!entries.empty()) {
      return common::FailedPrecondition("directory not empty: " + path);
    }
  }
  host_->ChargeBlocks(2);
  RETURN_IF_ERROR(DirRemove(parent, leaf, /*sync=*/false));
  RETURN_IF_ERROR(FreeFileBlocks(node));
  node.type = InodeType::kFree;
  node.nlink = 0;
  RETURN_IF_ERROR(StoreInode(ino, node, /*sync=*/false));
  inode_used_[ino] = false;
  ++stats_.removes;
  return common::OkStatus();
}

common::Status SimpleFs::Write(const std::string& path, uint64_t offset,
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
    return common::Unimplemented("sparse files not supported");
  }
  const bool sync = policy == fs::WritePolicy::kSync;

  uint64_t written = 0;
  while (written < data.size()) {
    const uint64_t pos = offset + written;
    const uint64_t fbi = pos / kBlockBytes;
    const uint64_t in_block = pos % kBlockBytes;
    const uint64_t chunk = std::min<uint64_t>(kBlockBytes - in_block, data.size() - written);
    host_->ChargeBlocks(1);
    ASSIGN_OR_RETURN(const uint32_t addr, BmapAlloc(inode, fbi));
    const bool full = in_block == 0 && chunk == kBlockBytes;
    // A partial write must preserve the block's other bytes whenever the block overlaps the
    // existing file (including an append into a partially filled tail block). A brand-new
    // block arrives zero-initialized from GetBlock.
    const bool has_old = fbi * kBlockBytes < inode.size;
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr, !full && has_old));
    std::memcpy(buffer->data.data() + in_block, data.data() + written, chunk);
    buffer->dirty = true;
    if (sync) {
      RETURN_IF_ERROR(FlushBlock(addr, *buffer));
    }
    written += chunk;
  }

  inode.size = std::max<uint64_t>(inode.size, offset + data.size());
  inode.mtime = static_cast<uint64_t>(host_->clock()->Now());
  RETURN_IF_ERROR(StoreInode(ino, inode, sync));
  if (sync) {
    ++stats_.sync_writes;
    // "fsync" semantics on LFS: force the (possibly partial) segment out (§4.4).
    return disk_->Sync();
  }
  return common::OkStatus();
}

common::StatusOr<uint64_t> SimpleFs::Read(const std::string& path, uint64_t offset,
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
      // No read-ahead: the LLD port disabled it (§4.4).
      ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr, true));
      std::memcpy(out.data() + done, buffer->data.data() + in_block, chunk);
    }
    done += chunk;
  }
  return len;
}

common::StatusOr<fs::FileInfo> SimpleFs::Stat(const std::string& path) {
  host_->ChargeSyscall();
  ASSIGN_OR_RETURN(const uint32_t ino, LookupPath(path));
  ASSIGN_OR_RETURN(const Inode inode, ReadInode(ino));
  return fs::FileInfo{inode.size, inode.type == InodeType::kDirectory};
}

common::StatusOr<std::vector<std::string>> SimpleFs::List(const std::string& dir_path) {
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
    ASSIGN_OR_RETURN(Buffer * buffer, GetBlock(addr, true));
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

common::Status SimpleFs::Sync() {
  obs::SpanScope span(host_->tracer(), obs::Layer::kFs);
  host_->ChargeSyscall();
  // Deterministic flush order (ascending logical block) so segments pack consistently.
  std::vector<uint32_t> dirty;
  for (const auto& [block, buffer] : cache_) {
    if (buffer.dirty) {
      dirty.push_back(block);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  for (const uint32_t block : dirty) {
    RETURN_IF_ERROR(FlushBlock(block, cache_[block]));
  }
  return disk_->Sync();
}

uint64_t SimpleFs::DirtyBlocks() const {
  uint64_t n = 0;
  for (const auto& [block, buffer] : cache_) {
    n += buffer.dirty ? 1 : 0;
  }
  return n;
}

common::Status SimpleFs::FlushDuringIdle(common::Time deadline, common::Clock* clock) {
  std::vector<uint32_t> dirty;
  for (const auto& [block, buffer] : cache_) {
    if (buffer.dirty) {
      dirty.push_back(block);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  for (const uint32_t block : dirty) {
    if (clock->Now() >= deadline) {
      break;
    }
    RETURN_IF_ERROR(FlushBlock(block, cache_[block]));
  }
  return common::OkStatus();
}

common::Status SimpleFs::DropCaches() {
  RETURN_IF_ERROR(Sync());
  cache_.clear();
  return common::OkStatus();
}

}  // namespace vlog::lfs
