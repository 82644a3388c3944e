// VLFS — the paper's §3.3 design, which the authors describe but did not implement.
//
// A log-structured file system integrated with the virtual log inside the programmable disk:
//  - data blocks, indirect blocks, and inode blocks are eager-written near the head;
//  - inodes hold physical block addresses (like LFS), so the only state that needs the virtual
//    log is the *inode map* — one entry per inode block — making the log tiny (one piece for
//    the default 96 inode blocks: "compact enough to be stored in memory");
//  - a write group commits atomically: data blocks first, then the dirty inode blocks to fresh
//    locations, then one virtual-log transaction updating the affected inode-map pieces; the
//    obsoleted physical blocks are recycled only after the commit point;
//  - checkpoints write the whole inode map contiguously; recovery loads the checkpoint, then
//    traverses the virtual log backwards from the parked tail (or scans after a crash) and
//    rebuilds the free-space map by walking the live inodes;
//  - the free-space compactor doubles as the cleaner, at track granularity.
//
// Synchronous small writes are cheap (no segment to fill) while the LFS-style no-seek write
// behaviour is retained — the combination §3.4 argues for.
#ifndef SRC_VLFS_VLFS_H_
#define SRC_VLFS_VLFS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/compactor.h"
#include "src/core/eager_allocator.h"
#include "src/core/free_space.h"
#include "src/core/virtual_log.h"
#include "src/fs/file_system.h"
#include "src/simdisk/host_model.h"
#include "src/simdisk/sim_disk.h"
#include "src/ufs/layout.h"

namespace vlog::vlfs {

struct VlfsConfig {
  uint32_t block_sectors = 8;    // 4 KB blocks.
  uint32_t inode_blocks = 96;    // 32 inodes per block -> 3072 inodes.
  uint32_t data_cache_blocks = 512;  // Read cache for data blocks (by physical address).
  double track_switch_threshold = 0.25;
  uint32_t target_empty_tracks = 8;
};

struct VlfsStats {
  uint64_t creates = 0;
  uint64_t removes = 0;
  uint64_t data_blocks_written = 0;
  uint64_t inode_blocks_written = 0;
  uint64_t map_transactions = 0;
  uint64_t group_commits = 0;  // Sync() calls that flushed more than one inode block.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

struct VlfsRecoveryInfo {
  bool used_scan = false;
  bool from_checkpoint = false;
  uint64_t log_sectors_read = 0;
  uint64_t inode_blocks_scanned = 0;
  uint64_t live_blocks = 0;
  // Map sectors dropped as part of a trailing incomplete (torn) commit; see VldRecoveryInfo.
  uint64_t discarded_txn_sectors = 0;
};

class Vlfs : public fs::FileSystem, public core::CompactionBackend {
 public:
  Vlfs(simdisk::SimDisk* disk, simdisk::HostModel* host, VlfsConfig config = {});

  common::Status Format();
  common::StatusOr<VlfsRecoveryInfo> Recover();
  common::Status Park();
  common::Status Checkpoint();

  common::Status Create(const std::string& path) override;
  common::Status Mkdir(const std::string& path) override;
  common::Status Remove(const std::string& path) override;
  common::Status Write(const std::string& path, uint64_t offset, std::span<const std::byte> data,
                       fs::WritePolicy policy) override;
  common::StatusOr<uint64_t> Read(const std::string& path, uint64_t offset,
                                  std::span<std::byte> out) override;
  common::StatusOr<fs::FileInfo> Stat(const std::string& path) override;
  common::StatusOr<std::vector<std::string>> List(const std::string& dir_path) override;
  common::Status Sync() override;
  common::Status DropCaches() override;

  // Idle-time work: checkpoint once pinned sectors pile up (VirtualLog::IdleCheckpointDue),
  // then compact free space.
  void RunIdle(common::Duration budget);

  // CompactionBackend: relocates data, indirect, or inode blocks.
  common::Status RelocateDataBlock(uint32_t phys_block) override;
  common::Status RewritePiece(uint32_t piece) override;

  double Utilization() const { return space_.Utilization(); }
  const VlfsStats& stats() const { return stats_; }
  const core::VirtualLog& vlog() const { return vlog_; }
  const core::Compactor& compactor() const { return *compactor_; }
  // Read-only introspection for invariant checkers (crashsim): the recovered allocator state
  // and the inode map (inode-block index -> physical block, kUnmappedBlock when absent).
  const core::FreeSpaceMap& space() const { return space_; }
  const std::vector<uint32_t>& inode_map() const { return inode_map_; }
  uint32_t block_sectors() const { return config_.block_sectors; }

 private:
  struct Buffer {
    std::vector<std::byte> data;
    bool dirty = false;
    uint64_t lru = 0;
  };
  // Who owns a physical block, so the compactor can relocate it.
  // Data/indirect blocks: kOwnerData | ino<<32 | fbi (fbi = kIndirectFbi / kDindirectFbi /
  // kDindirectLeafFbi|index for pointer blocks). Inode blocks: kOwnerInodeBlock | index.
  static constexpr uint64_t kOwnerNone = ~0ULL;
  static constexpr uint64_t kOwnerData = 1ULL << 63;
  static constexpr uint64_t kOwnerInodeBlock = 1ULL << 62;

  uint32_t InodeCount() const { return config_.inode_blocks * ufs::kInodesPerBlock; }
  uint32_t PieceOfInodeBlock(uint32_t iblock) const { return iblock / core::kEntriesPerSector; }

  common::StatusOr<Buffer*> GetInodeBlock(uint32_t iblock);
  common::StatusOr<Buffer*> GetDataBlock(uint32_t phys, bool read_from_disk);
  void ForgetDataBlock(uint32_t phys) { data_cache_.erase(phys); }
  void EvictDataCacheIfNeeded();

  // Allocates a block and writes `data` to it eagerly. Returns the physical block.
  common::StatusOr<uint32_t> EagerWriteBlock(std::span<const std::byte> data, uint64_t owner);
  // Frees `phys` after the next map commit (nothing references it once the commit lands).
  void StageFree(uint32_t phys);

  common::StatusOr<ufs::Inode> ReadInode(uint32_t ino);
  common::Status StoreInode(uint32_t ino, const ufs::Inode& inode, bool sync);

  common::StatusOr<uint32_t> LookupPath(const std::string& path);
  common::StatusOr<uint32_t> ResolveParent(const std::string& path, std::string* leaf);
  common::StatusOr<uint32_t> DirFind(const ufs::Inode& dir, const std::string& name);
  common::Status DirAdd(uint32_t dir_ino, ufs::Inode& dir, const std::string& name,
                        uint32_t child, bool sync);
  common::Status DirRemove(uint32_t dir_ino, ufs::Inode& dir, const std::string& name,
                           bool sync);
  common::Status CreateNode(const std::string& path, ufs::InodeType type);

  common::StatusOr<uint32_t> BmapRead(const ufs::Inode& inode, uint64_t fbi);
  common::Status BmapSet(uint32_t ino, ufs::Inode& inode, uint64_t fbi, uint32_t phys,
                         bool sync);
  common::Status FreeFileBlocks(ufs::Inode& inode);
  common::StatusOr<uint32_t> AllocInodeNumber();

  // Flushes every dirty inode block to a fresh eager location, commits the inode-map pieces in
  // one transaction, then releases the staged frees. This is the commit point of all writes
  // since the previous flush.
  common::Status CommitGroup();

  std::span<const uint32_t> MapPieceEntries(uint32_t piece) const;

  simdisk::SimDisk* disk_;
  simdisk::HostModel* host_;
  VlfsConfig config_;
  core::FreeSpaceMap space_;
  core::EagerAllocator allocator_;
  core::VirtualLog vlog_;
  std::unique_ptr<core::Compactor> compactor_;
  std::vector<uint32_t> inode_map_;  // inode-block index -> physical block (kUnmappedBlock).
  std::vector<uint64_t> owner_;      // physical block -> owner tag.
  std::vector<bool> inode_used_;
  std::unordered_map<uint32_t, Buffer> inode_cache_;  // Keyed by inode-block index.
  std::unordered_map<uint32_t, Buffer> data_cache_;   // Keyed by physical block.
  std::vector<uint32_t> staged_frees_;
  uint64_t lru_tick_ = 0;
  VlfsStats stats_;
};

}  // namespace vlog::vlfs

#endif  // SRC_VLFS_VLFS_H_
