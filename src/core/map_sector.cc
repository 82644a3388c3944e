#include "src/core/map_sector.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/crc32.h"

namespace vlog::core {
namespace {

// Fixed layout offsets.
constexpr size_t kOffMagic = 0;
constexpr size_t kOffSeq = 8;
constexpr size_t kOffPiece = 16;
constexpr size_t kOffEntryCount = 20;
constexpr size_t kOffTxnId = 24;
constexpr size_t kOffTxnIndex = 32;
constexpr size_t kOffTxnTotal = 34;
constexpr size_t kOffPrevLba = 36;
constexpr size_t kOffPrevSeq = 44;
constexpr size_t kOffBypassLba = 52;
constexpr size_t kOffBypassSeq = 60;
constexpr size_t kOffEntries = 68;
constexpr size_t kOffCrc = kMapSectorBytes - 4;

static_assert(kOffEntries + kEntriesPerSector * 4 <= kOffCrc,
              "map sector entries must fit before the CRC");

// Folds the 64-bit format epoch into a CRC-32C seed.
uint32_t EpochSeed(uint64_t epoch) {
  return static_cast<uint32_t>(epoch) ^ static_cast<uint32_t>(epoch >> 32);
}

}  // namespace

std::vector<std::byte> MapSector::Serialize(uint64_t epoch) const {
  std::vector<std::byte> raw(kMapSectorBytes);
  SerializeInto(raw, entries, epoch);
  return raw;
}

void MapSector::SerializeInto(std::span<std::byte> out,
                              std::span<const uint32_t> piece_entries, uint64_t epoch) const {
  out = out.first(kMapSectorBytes);
  common::StoreLe<uint64_t>(out, kOffMagic, kMapSectorMagic);
  common::StoreLe<uint64_t>(out, kOffSeq, seq);
  common::StoreLe<uint32_t>(out, kOffPiece, piece);
  common::StoreLe<uint32_t>(out, kOffEntryCount, static_cast<uint32_t>(piece_entries.size()));
  common::StoreLe<uint64_t>(out, kOffTxnId, txn_id);
  common::StoreLe<uint16_t>(out, kOffTxnIndex, txn_index);
  common::StoreLe<uint16_t>(out, kOffTxnTotal, txn_total);
  common::StoreLe<uint64_t>(out, kOffPrevLba, prev.lba);
  common::StoreLe<uint64_t>(out, kOffPrevSeq, prev.seq);
  common::StoreLe<uint64_t>(out, kOffBypassLba, bypass.lba);
  common::StoreLe<uint64_t>(out, kOffBypassSeq, bypass.seq);
  const auto stored =
      piece_entries.first(std::min<size_t>(piece_entries.size(), kEntriesPerSector));
  common::StoreLeArray<uint32_t>(out, kOffEntries, stored);
  // The header and entries cover every byte before the unused tail; zero the tail.
  std::fill(out.begin() + kOffEntries + stored.size_bytes(), out.begin() + kOffCrc,
            std::byte{0});
  const uint32_t crc = common::Crc32c(
      std::span<const std::byte>(out.data(), kOffCrc), EpochSeed(epoch));
  common::StoreLe<uint32_t>(out, kOffCrc, crc);
}

common::StatusOr<MapSector> MapSector::Parse(std::span<const std::byte> raw, uint64_t epoch) {
  if (raw.size() < kMapSectorBytes) {
    return common::InvalidArgument("map sector: short buffer");
  }
  raw = raw.first(kMapSectorBytes);
  if (common::LoadLe<uint64_t>(raw, kOffMagic) != kMapSectorMagic) {
    return common::Corruption("map sector: bad magic");
  }
  const uint32_t stored_crc = common::LoadLe<uint32_t>(raw, kOffCrc);
  if (common::Crc32c(raw.first(kOffCrc), EpochSeed(epoch)) != stored_crc) {
    return common::Corruption("map sector: bad CRC");
  }
  MapSector s;
  s.seq = common::LoadLe<uint64_t>(raw, kOffSeq);
  s.piece = common::LoadLe<uint32_t>(raw, kOffPiece);
  const uint32_t count = common::LoadLe<uint32_t>(raw, kOffEntryCount);
  if (count > kEntriesPerSector) {
    return common::Corruption("map sector: entry count out of range");
  }
  s.txn_id = common::LoadLe<uint64_t>(raw, kOffTxnId);
  s.txn_index = common::LoadLe<uint16_t>(raw, kOffTxnIndex);
  s.txn_total = common::LoadLe<uint16_t>(raw, kOffTxnTotal);
  s.prev.lba = common::LoadLe<uint64_t>(raw, kOffPrevLba);
  s.prev.seq = common::LoadLe<uint64_t>(raw, kOffPrevSeq);
  s.bypass.lba = common::LoadLe<uint64_t>(raw, kOffBypassLba);
  s.bypass.seq = common::LoadLe<uint64_t>(raw, kOffBypassSeq);
  s.entries.resize(count);
  common::LoadLeArray<uint32_t>(raw, kOffEntries, s.entries);
  return s;
}

}  // namespace vlog::core
