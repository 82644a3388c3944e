// On-disk format of a virtual-log map sector.
//
// The indirection map is a table of logical→physical block translations, carved into fixed
// "pieces" of kEntriesPerSector entries. Whenever an update changes a translation, the piece
// containing it is written to a free sector near the head; that sector is a node of the virtual
// log. Each node carries two backward pointers (§3.2, Figure 3b):
//   prev   — the previous log tail (the plain backward chain), and
//   bypass — the sector that the *overwritten* (now obsolete) version of this piece pointed to,
//            so the obsolete sector's physical space can be recycled without disconnecting the
//            log: traversal routes around it through the bypass edge.
// Pointers carry the expected sequence number of their target; a recycled target no longer
// matches (wrong magic, CRC, or sequence) and the branch is pruned.
#ifndef SRC_CORE_MAP_SECTOR_H_
#define SRC_CORE_MAP_SECTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/simdisk/geometry.h"

namespace vlog::core {

// A pointer to a map sector on disk: its LBA plus the sequence number it is expected to hold.
struct DiskPtr {
  simdisk::Lba lba = kNullLba;
  uint64_t seq = 0;

  static constexpr simdisk::Lba kNullLba = ~0ULL;
  bool IsNull() const { return lba == kNullLba; }
  bool operator==(const DiskPtr&) const = default;
};

inline constexpr uint32_t kMapSectorBytes = 512;
inline constexpr uint64_t kMapSectorMagic = 0x564c4f474d415053ULL;  // "VLOGMAPS"
inline constexpr uint32_t kEntriesPerSector = 104;
inline constexpr uint32_t kUnmappedBlock = ~0U;

// The parsed form of one map sector.
struct MapSector {
  uint64_t seq = 0;       // Global, strictly increasing; defines age.
  uint32_t piece = 0;     // Which slice of the indirection map this sector holds.
  uint64_t txn_id = 0;    // 0 = standalone write; otherwise groups an atomic multi-piece commit.
  uint16_t txn_index = 0;
  uint16_t txn_total = 1;
  DiskPtr prev;
  DiskPtr bypass;
  // Physical block index for each logical block of the piece; kUnmappedBlock when unmapped.
  std::vector<uint32_t> entries;

  // Serializes to exactly kMapSectorBytes bytes with a trailing CRC-32C. The CRC is seeded with
  // `epoch` (the format generation): sectors signed under one generation fail the CRC under any
  // other, so a post-reformat scan can never resurrect an old generation's map.
  std::vector<std::byte> Serialize(uint64_t epoch = 0) const;
  // The same bytes written into `out` (>= kMapSectorBytes), with `piece_entries` (at most
  // kEntriesPerSector) in place of the `entries` member, which is not read. The append and
  // checkpoint paths pass a slice of the owner's map and a reused buffer, so a map write
  // copies nothing but the sector itself.
  void SerializeInto(std::span<std::byte> out, std::span<const uint32_t> piece_entries,
                     uint64_t epoch) const;

  // Cheap pre-filter: does `raw` start with the map-sector magic? Full-disk scans call this
  // per sector before paying for Parse's StatusOr (most sectors are data and fail here);
  // inline because those scans hit every sector on the disk. The magic sits at offset 0.
  static bool HasMagic(std::span<const std::byte> raw) {
    return raw.size() >= kMapSectorBytes &&
           common::LoadLe<uint64_t>(raw, 0) == kMapSectorMagic;
  }

  // Parses and validates magic + CRC (seeded with `epoch`; must match the serializing
  // generation). Returns kCorruption for anything that is not a well-formed map sector of this
  // generation (e.g. a recycled sector now holding file data, or a stale pre-format sector).
  static common::StatusOr<MapSector> Parse(std::span<const std::byte> raw, uint64_t epoch = 0);
};

}  // namespace vlog::core

#endif  // SRC_CORE_MAP_SECTOR_H_
