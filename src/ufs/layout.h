// On-disk layout of the UFS work-alike (FFS-style, §4.3).
//
// The disk is addressed in 1 KB *fragments*; a file system block is 4 KB (4 fragments),
// matching the paper's UFS configuration. Block 0 holds the superblock; cylinder groups follow,
// each with a header block (bitmaps + counters), a run of inode blocks, and data blocks.
// Only a file's tail may occupy a sub-block fragment run, as in FFS.
#ifndef SRC_UFS_LAYOUT_H_
#define SRC_UFS_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace vlog::ufs {

inline constexpr uint32_t kFragBytes = 1024;
inline constexpr uint32_t kBlockBytes = 4096;
inline constexpr uint32_t kFragsPerBlock = kBlockBytes / kFragBytes;
inline constexpr uint32_t kInodeBytes = 128;
inline constexpr uint32_t kInodesPerBlock = kBlockBytes / kInodeBytes;
inline constexpr uint32_t kDirectPtrs = 12;
inline constexpr uint32_t kPtrsPerBlock = kBlockBytes / 4;
inline constexpr uint32_t kNoAddr = 0;  // Fragment 0 is the superblock, so 0 is never valid.
inline constexpr uint32_t kNoInode = 0;
inline constexpr uint32_t kRootInode = 1;
inline constexpr uint32_t kMaxNameLen = 59;
inline constexpr uint32_t kDirEntryBytes = 64;
inline constexpr uint32_t kDirEntriesPerBlock = kBlockBytes / kDirEntryBytes;
inline constexpr uint64_t kUfsMagic = 0x5546535f464653ULL;  // "UFS_FFS"

enum class InodeType : uint16_t { kFree = 0, kFile = 1, kDirectory = 2 };

struct Superblock {
  uint32_t total_frags = 0;
  uint32_t blocks_per_cg = 0;
  uint32_t inodes_per_cg = 0;
  uint32_t cg_count = 0;

  uint32_t InodeBlocksPerCg() const { return inodes_per_cg / kInodesPerBlock; }
  // First device block of cylinder group `cg` (block 0 is the superblock).
  uint32_t CgStartBlock(uint32_t cg) const { return 1 + cg * blocks_per_cg; }
  uint32_t DataStartBlock(uint32_t cg) const { return CgStartBlock(cg) + 1 + InodeBlocksPerCg(); }
  uint32_t DataBlocksPerCg() const { return blocks_per_cg - 1 - InodeBlocksPerCg(); }
  uint32_t TotalInodes() const { return cg_count * inodes_per_cg; }
  // Device block holding inode `ino` and its byte offset within that block.
  uint32_t InodeBlock(uint32_t ino) const {
    const uint32_t cg = ino / inodes_per_cg;
    const uint32_t idx = ino % inodes_per_cg;
    return CgStartBlock(cg) + 1 + idx / kInodesPerBlock;
  }
  uint32_t InodeOffset(uint32_t ino) const {
    return (ino % kInodesPerBlock) * kInodeBytes;
  }

  std::vector<std::byte> Serialize() const;
  static common::StatusOr<Superblock> Parse(std::span<const std::byte> raw);
};

struct Inode {
  InodeType type = InodeType::kFree;
  uint16_t nlink = 0;
  uint64_t size = 0;
  uint64_t mtime = 0;  // Simulated-time stamp; updated so O_SYNC has metadata to flush.
  uint32_t direct[kDirectPtrs] = {};   // Fragment addresses of 4 KB blocks (tail may be a run).
  uint32_t indirect = kNoAddr;         // Fragment address of a block of 1024 pointers.
  uint32_t dindirect = kNoAddr;

  bool IsFree() const { return type == InodeType::kFree; }
  void EncodeTo(std::span<std::byte> out) const;  // Exactly kInodeBytes.
  static Inode Decode(std::span<const std::byte> in);
};

// Splits an absolute path into its components (empty = the root directory). Shared by UFS, LFS
// and VLFS. Rejects a component longer than kMaxNameLen or holding a NUL byte: EncodeTo stores
// every byte of a name but Decode stops at the first NUL, so such an entry could be created
// and never found again.
common::StatusOr<std::vector<std::string>> SplitPath(const std::string& path);

struct DirEntry {
  uint32_t ino = kNoInode;
  std::string name;

  void EncodeTo(std::span<std::byte> out) const;  // Exactly kDirEntryBytes.
  static DirEntry Decode(std::span<const std::byte> in);  // Listing; lookups use Find.

  // In-place scans of one directory block (kDirEntriesPerBlock slots). A lookup visits every
  // slot of the directory (the linear FFS scan), so these read each slot's inode number and
  // compare its name bytes where they lie instead of decoding the slot.
  struct Slot {
    uint32_t index;  // Slot number within the block.
    uint32_t ino;
  };
  // The first live slot whose Decode would give `name`. A name Decode never produces (longer
  // than kMaxNameLen, or holding a NUL) matches nothing.
  static std::optional<Slot> Find(std::span<const std::byte> block, std::string_view name);
  // The first free slot (inode kNoInode).
  static std::optional<uint32_t> FindFree(std::span<const std::byte> block);
};

// A cylinder group's header: fragment and inode bitmaps plus counters, serialized into the
// group's first block.
class CylinderGroup {
 public:
  CylinderGroup() = default;
  CylinderGroup(uint32_t data_blocks, uint32_t inodes);

  // Fragment-level allocation within the group's data area. Offsets are fragment indices
  // relative to the group's data start.
  // Finds `count` consecutive free fragments that do not cross a block boundary; when
  // `block_aligned`, the run must start a block. Returns the relative fragment offset.
  std::optional<uint32_t> AllocFrags(uint32_t count, bool block_aligned, uint32_t hint_frag);
  void FreeFrags(uint32_t rel_frag, uint32_t count);
  bool FragsFreeAt(uint32_t rel_frag, uint32_t count) const;
  void TakeFragsAt(uint32_t rel_frag, uint32_t count);

  std::optional<uint32_t> AllocInode();
  void FreeInode(uint32_t rel_ino);
  bool InodeUsed(uint32_t rel_ino) const { return inode_used_[rel_ino]; }

  uint32_t free_frags() const { return free_frags_; }
  uint32_t free_inodes() const { return free_inodes_; }

  std::vector<std::byte> Serialize() const;  // Exactly kBlockBytes.
  static common::StatusOr<CylinderGroup> Parse(std::span<const std::byte> raw,
                                               uint32_t data_blocks, uint32_t inodes);

 private:
  std::vector<bool> frag_used_;
  std::vector<bool> inode_used_;
  uint32_t free_frags_ = 0;
  uint32_t free_inodes_ = 0;
  uint32_t rotor_ = 0;  // Next-fit start position for fragment searches.
};

}  // namespace vlog::ufs

#endif  // SRC_UFS_LAYOUT_H_
