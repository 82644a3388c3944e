#include "src/ufs/layout.h"

#include <algorithm>
#include <cstring>

#include "src/common/bytes.h"
#include "src/common/crc32.h"

namespace vlog::ufs {

std::vector<std::byte> Superblock::Serialize() const {
  std::vector<std::byte> raw(kBlockBytes);
  std::span<std::byte> out(raw);
  common::StoreLe<uint64_t>(out, 0, kUfsMagic);
  common::StoreLe<uint32_t>(out, 8, total_frags);
  common::StoreLe<uint32_t>(out, 12, blocks_per_cg);
  common::StoreLe<uint32_t>(out, 16, inodes_per_cg);
  common::StoreLe<uint32_t>(out, 20, cg_count);
  common::StoreLe<uint32_t>(out, kBlockBytes - 4,
                            common::Crc32c(std::span<const std::byte>(raw).first(kBlockBytes - 4)));
  return raw;
}

common::StatusOr<Superblock> Superblock::Parse(std::span<const std::byte> raw) {
  if (raw.size() < kBlockBytes || common::LoadLe<uint64_t>(raw, 0) != kUfsMagic) {
    return common::Corruption("ufs superblock: bad magic");
  }
  if (common::LoadLe<uint32_t>(raw, kBlockBytes - 4) !=
      common::Crc32c(raw.first(kBlockBytes - 4))) {
    return common::Corruption("ufs superblock: bad CRC");
  }
  Superblock sb;
  sb.total_frags = common::LoadLe<uint32_t>(raw, 8);
  sb.blocks_per_cg = common::LoadLe<uint32_t>(raw, 12);
  sb.inodes_per_cg = common::LoadLe<uint32_t>(raw, 16);
  sb.cg_count = common::LoadLe<uint32_t>(raw, 20);
  return sb;
}

void Inode::EncodeTo(std::span<std::byte> out) const {
  std::fill(out.begin(), out.begin() + kInodeBytes, std::byte{0});
  common::StoreLe<uint16_t>(out, 0, static_cast<uint16_t>(type));
  common::StoreLe<uint16_t>(out, 2, nlink);
  common::StoreLe<uint64_t>(out, 4, size);
  common::StoreLe<uint64_t>(out, 12, mtime);
  for (uint32_t i = 0; i < kDirectPtrs; ++i) {
    common::StoreLe<uint32_t>(out, 20 + i * 4, direct[i]);
  }
  common::StoreLe<uint32_t>(out, 20 + kDirectPtrs * 4, indirect);
  common::StoreLe<uint32_t>(out, 24 + kDirectPtrs * 4, dindirect);
}

Inode Inode::Decode(std::span<const std::byte> in) {
  Inode node;
  node.type = static_cast<InodeType>(common::LoadLe<uint16_t>(in, 0));
  node.nlink = common::LoadLe<uint16_t>(in, 2);
  node.size = common::LoadLe<uint64_t>(in, 4);
  node.mtime = common::LoadLe<uint64_t>(in, 12);
  for (uint32_t i = 0; i < kDirectPtrs; ++i) {
    node.direct[i] = common::LoadLe<uint32_t>(in, 20 + i * 4);
  }
  node.indirect = common::LoadLe<uint32_t>(in, 20 + kDirectPtrs * 4);
  node.dindirect = common::LoadLe<uint32_t>(in, 24 + kDirectPtrs * 4);
  return node;
}

void DirEntry::EncodeTo(std::span<std::byte> out) const {
  std::fill(out.begin(), out.begin() + kDirEntryBytes, std::byte{0});
  common::StoreLe<uint32_t>(out, 0, ino);
  const size_t n = std::min<size_t>(name.size(), kMaxNameLen);
  std::memcpy(out.data() + 4, name.data(), n);
}

DirEntry DirEntry::Decode(std::span<const std::byte> in) {
  DirEntry e;
  e.ino = common::LoadLe<uint32_t>(in, 0);
  const char* p = reinterpret_cast<const char*>(in.data()) + 4;
  size_t len = 0;
  while (len < kMaxNameLen && p[len] != '\0') {
    ++len;
  }
  e.name.assign(p, len);
  return e;
}

std::optional<DirEntry::Slot> DirEntry::Find(std::span<const std::byte> block,
                                             std::string_view name) {
  if (name.size() > kMaxNameLen || name.find('\0') != std::string_view::npos) {
    return std::nullopt;
  }
  for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
    const auto slot = block.subspan(e * kDirEntryBytes, kDirEntryBytes);
    const uint32_t ino = common::LoadLe<uint32_t>(slot, 0);
    // Decode's name ends at the first NUL or after kMaxNameLen bytes. `name` holds no NUL, so
    // it is the decoded name exactly when it leads the stored bytes and the stored name ends
    // right after it.
    if (ino != kNoInode && std::memcmp(slot.data() + 4, name.data(), name.size()) == 0 &&
        (name.size() == kMaxNameLen || slot[4 + name.size()] == std::byte{0})) {
      return Slot{e, ino};
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> DirEntry::FindFree(std::span<const std::byte> block) {
  for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
    if (common::LoadLe<uint32_t>(block, e * kDirEntryBytes) == kNoInode) {
      return e;
    }
  }
  return std::nullopt;
}

common::StatusOr<std::vector<std::string>> SplitPath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return common::InvalidArgument("path must be absolute: " + path);
  }
  std::vector<std::string> parts;
  size_t i = 1;
  while (i < path.size()) {
    const size_t j = path.find('/', i);
    const size_t end = j == std::string::npos ? path.size() : j;
    if (end > i) {
      std::string part = path.substr(i, end - i);
      if (part.size() > kMaxNameLen) {
        return common::InvalidArgument("name too long: " + part);
      }
      if (part.find('\0') != std::string::npos) {
        return common::InvalidArgument("name holds a NUL byte");
      }
      parts.push_back(std::move(part));
    }
    i = end + 1;
  }
  return parts;
}

CylinderGroup::CylinderGroup(uint32_t data_blocks, uint32_t inodes)
    : frag_used_(static_cast<size_t>(data_blocks) * kFragsPerBlock, false),
      inode_used_(inodes, false),
      free_frags_(data_blocks * kFragsPerBlock),
      free_inodes_(inodes) {}

bool CylinderGroup::FragsFreeAt(uint32_t rel_frag, uint32_t count) const {
  if (rel_frag + count > frag_used_.size()) {
    return false;
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (frag_used_[rel_frag + i]) {
      return false;
    }
  }
  return true;
}

void CylinderGroup::TakeFragsAt(uint32_t rel_frag, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    frag_used_[rel_frag + i] = true;
  }
  free_frags_ -= count;
}

std::optional<uint32_t> CylinderGroup::AllocFrags(uint32_t count, bool block_aligned,
                                                  uint32_t hint_frag) {
  if (free_frags_ < count || frag_used_.empty()) {
    return std::nullopt;
  }
  const uint32_t total = static_cast<uint32_t>(frag_used_.size());
  const uint32_t blocks = total / kFragsPerBlock;
  const uint32_t start_block =
      std::min(hint_frag != 0 ? hint_frag / kFragsPerBlock : rotor_ / kFragsPerBlock,
               blocks - 1);
  for (uint32_t i = 0; i < blocks; ++i) {
    const uint32_t block = (start_block + i) % blocks;
    const uint32_t base = block * kFragsPerBlock;
    if (block_aligned || count == kFragsPerBlock) {
      if (FragsFreeAt(base, kFragsPerBlock)) {
        TakeFragsAt(base, count);
        rotor_ = base + count;
        return base;
      }
    } else {
      // A sub-block run anywhere within the block.
      for (uint32_t off = 0; off + count <= kFragsPerBlock; ++off) {
        if (FragsFreeAt(base + off, count)) {
          TakeFragsAt(base + off, count);
          rotor_ = base + off + count;
          return base + off;
        }
      }
    }
  }
  return std::nullopt;
}

void CylinderGroup::FreeFrags(uint32_t rel_frag, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    frag_used_[rel_frag + i] = false;
  }
  free_frags_ += count;
}

std::optional<uint32_t> CylinderGroup::AllocInode() {
  if (free_inodes_ == 0) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < inode_used_.size(); ++i) {
    if (!inode_used_[i]) {
      inode_used_[i] = true;
      --free_inodes_;
      return i;
    }
  }
  return std::nullopt;
}

void CylinderGroup::FreeInode(uint32_t rel_ino) {
  inode_used_[rel_ino] = false;
  ++free_inodes_;
}

std::vector<std::byte> CylinderGroup::Serialize() const {
  std::vector<std::byte> raw(kBlockBytes);
  std::span<std::byte> out(raw);
  common::StoreLe<uint32_t>(out, 0, static_cast<uint32_t>(frag_used_.size()));
  common::StoreLe<uint32_t>(out, 4, static_cast<uint32_t>(inode_used_.size()));
  common::StoreLe<uint32_t>(out, 8, free_frags_);
  common::StoreLe<uint32_t>(out, 12, free_inodes_);
  size_t pos = 16;
  for (size_t i = 0; i < frag_used_.size(); ++i) {
    if (frag_used_[i]) {
      raw[pos + i / 8] |= static_cast<std::byte>(1u << (i % 8));
    }
  }
  pos += (frag_used_.size() + 7) / 8;
  for (size_t i = 0; i < inode_used_.size(); ++i) {
    if (inode_used_[i]) {
      raw[pos + i / 8] |= static_cast<std::byte>(1u << (i % 8));
    }
  }
  return raw;
}

common::StatusOr<CylinderGroup> CylinderGroup::Parse(std::span<const std::byte> raw,
                                                     uint32_t data_blocks, uint32_t inodes) {
  if (raw.size() < kBlockBytes) {
    return common::Corruption("cg header: short");
  }
  const uint32_t frags = common::LoadLe<uint32_t>(raw, 0);
  const uint32_t inode_count = common::LoadLe<uint32_t>(raw, 4);
  if (frags != data_blocks * kFragsPerBlock || inode_count != inodes) {
    return common::Corruption("cg header: geometry mismatch");
  }
  CylinderGroup cg(data_blocks, inodes);
  size_t pos = 16;
  for (uint32_t i = 0; i < frags; ++i) {
    if ((static_cast<uint8_t>(raw[pos + i / 8]) >> (i % 8)) & 1) {
      cg.frag_used_[i] = true;
      --cg.free_frags_;
    }
  }
  pos += (frags + 7) / 8;
  for (uint32_t i = 0; i < inode_count; ++i) {
    if ((static_cast<uint8_t>(raw[pos + i / 8]) >> (i % 8)) & 1) {
      cg.inode_used_[i] = true;
      --cg.free_inodes_;
    }
  }
  return cg;
}

}  // namespace vlog::ufs
