#include "src/crashsim/sweep_driver.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/common/time.h"

namespace vlog::crashsim {
namespace {

// Chunked memcmp against a static zero block: the sweep compares every logical block at every
// crash point and most blocks are never written, so this is the hottest loop in a sweep.
bool IsZero(std::span<const std::byte> bytes) {
  static constexpr size_t kChunk = 4096;
  static const std::array<std::byte, kChunk> kZeros{};
  size_t off = 0;
  while (off < bytes.size()) {
    const size_t n = std::min(kChunk, bytes.size() - off);
    if (std::memcmp(bytes.data() + off, kZeros.data(), n) != 0) {
      return false;
    }
    off += n;
  }
  return true;
}

// Regular prefix/torn points plus (for write-back traces) reorder points, merged into one list
// ordered by writes_applied, with stable per-sweep ordinals — the ordinal a replay names via
// --point=.
std::vector<CrashPoint> AllCrashPoints(const WriteTrace& trace, uint32_t sector_bytes,
                                       const CrashSweepOptions& options) {
  std::vector<CrashPoint> points = EnumerateCrashPoints(trace, sector_bytes, options.enumerate);
  std::vector<CrashPoint> reorder = EnumerateReorderPoints(trace, options.reorder);
  points.insert(points.end(), std::make_move_iterator(reorder.begin()),
                std::make_move_iterator(reorder.end()));
  std::stable_sort(points.begin(), points.end(), [](const CrashPoint& a, const CrashPoint& b) {
    return a.writes_applied < b.writes_applied;
  });
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].ordinal = i;
  }
  return points;
}

// CrashSweepOptions.workers resolved: 0 means hardware concurrency, and the result is clamped
// to [1, points] (a shard with no points would be pure overhead).
uint32_t ResolveSweepWorkers(uint32_t requested, size_t points) {
  uint32_t workers = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (workers == 0) {
    workers = 1;
  }
  if (points > 0 && workers > points) {
    workers = static_cast<uint32_t>(points);
  }
  return workers;
}

// The SimDisk write fault that persists what a torn or corrupt-tail `point` keeps of its cut
// write.
simdisk::SimDisk::WriteFault FaultOf(const CrashPoint& point) {
  using Mode = simdisk::SimDisk::WriteFaultMode;
  const Mode mode = point.kind == CrashKind::kTornPrefix   ? Mode::kTornPrefix
                    : point.kind == CrashKind::kTornSuffix ? Mode::kTornSuffix
                    : point.kind == CrashKind::kTornRandom ? Mode::kTornRandom
                                                           : Mode::kCorruptTail;
  return {.mode = mode, .keep_sectors = point.keep_sectors, .seed = point.seed};
}

// The serial sweep over points[begin, end) into `report`. It forks its rolling disks from the
// bases (the first iteration's catch-up loop), so ranges are independent and run on separate
// threads.
void SweepRange(const WriteTrace& trace, std::span<const simdisk::SimDisk> bases,
                const std::vector<CrashPoint>& points, size_t begin, size_t end,
                const CrashSweepOptions& options,
                const std::function<std::unique_ptr<CrashTarget>()>& make_target,
                CrashSweepReport& report) {
  // Rolling per-member disks, advanced monotonically since points are ordered by
  // writes_applied. A range that starts mid-sweep catches up via the first iteration's loop.
  // Each point recovers on forks of them, so neither a crash variant nor recovery's own
  // writes ever reach a rolling disk, and a fork costs one pointer per track.
  std::vector<simdisk::SimDisk> rolling;
  for (const simdisk::SimDisk& base : bases) {
    rolling.push_back(base.Fork(nullptr));
  }
  uint64_t applied = 0;
  const std::unique_ptr<CrashTarget> target = make_target();  // This range's shadow model.
  std::vector<common::Clock> clocks(bases.size());
  std::vector<simdisk::SimDisk> crashed;

  for (size_t pi = begin; pi < end; ++pi) {
    const CrashPoint& point = points[pi];
    for (; applied < point.writes_applied; ++applied) {
      const WriteRecord& record = trace[applied];
      rolling[record.disk].PokeMedia(record.lba, record.data);
    }
    target->Fold(applied);

    switch (point.kind) {
      case CrashKind::kClean:
        ++report.clean_points;
        break;
      case CrashKind::kCorruptTail:
        ++report.corrupt_points;
        break;
      case CrashKind::kReorder:
        ++report.reorder_points;
        break;
      default:
        ++report.torn_points;
    }
    if (options.only_ordinal >= 0 &&
        static_cast<int64_t>(point.ordinal) != options.only_ordinal) {
      continue;  // Replay mode: count every point but recover/check only the requested one.
    }

    // Every member crashes as a power-cycled fork of its rolling disk, on a clock at zero. Only
    // the member that owns the cut (or the reordered epoch) diverges — the others are clean.
    for (size_t m = 0; m < rolling.size(); ++m) {
      clocks[m] = common::Clock();
      crashed.push_back(rolling[m].Fork(&clocks[m]));
    }
    if (point.kind == CrashKind::kReorder) {
      for (const uint64_t idx : point.extra) {
        crashed[trace[idx].disk].PokeMedia(trace[idx].lba, trace[idx].data);
      }
    } else if (point.kind != CrashKind::kClean) {
      const WriteRecord& record = trace[applied];
      crashed[record.disk].PokeFaulted(record.lba, record.data, FaultOf(point));
    }
    target->Check(point, crashed, report, [&](const std::string& what) {
      report.AddViolation(point, what, options.max_violation_details);
    });
    // Dropping the forks before the next records land keeps the rolling disks the sole owners
    // of the tracks they already copied, so those take later records in place.
    crashed.clear();
  }
}

}  // namespace

CrashSweepReport RunCrashSweep(const WriteTrace& trace, std::span<const simdisk::SimDisk> bases,
                               const CrashSweepOptions& options,
                               const std::function<std::unique_ptr<CrashTarget>()>& make_target) {
  const std::vector<CrashPoint> points = AllCrashPoints(trace, bases[0].SectorBytes(), options);
  // Every crash point's ordinal, image and variant seed are fixed at enumeration time, so
  // points shard across workers by contiguous ordinal range (sizes within one point of each
  // other) and each worker catches its own rolling state up from the bases: the only
  // cross-thread state is the read-only trace and point list, and the bases' tracks, which
  // every worker's forks share read-only (a track is copied before any fork writes it).
  const uint32_t workers = ResolveSweepWorkers(options.workers, points.size());
  std::vector<CrashSweepReport> shards(workers);
  const auto sweep_shard = [&](uint32_t w) {
    const size_t size = points.size() / workers;
    const size_t rem = points.size() % workers;
    const size_t begin = w * size + std::min<size_t>(w, rem);
    SweepRange(trace, bases, points, begin, begin + size + (w < rem ? 1 : 0), options,
               make_target, shards[w]);
  };
  std::vector<std::thread> threads;
  for (uint32_t w = 1; w < workers; ++w) {
    threads.emplace_back(sweep_shard, w);
  }
  sweep_shard(0);
  for (std::thread& t : threads) {
    t.join();
  }
  // Merge in shard (= ordinal) order: counters sum, details/recovery times concatenate, and
  // the first shard reporting a violation owns first_violation_ordinal — exactly what the
  // serial loop would have produced, so the report (Summary() text included) is byte-identical
  // at any worker count.
  CrashSweepReport merged;
  merged.points = points.size();
  merged.seed = options.enumerate.seed;
  for (CrashSweepReport& s : shards) {
    merged.clean_points += s.clean_points;
    merged.torn_points += s.torn_points;
    merged.corrupt_points += s.corrupt_points;
    merged.reorder_points += s.reorder_points;
    merged.nvm_points += s.nvm_points;
    merged.nvm_torn_points += s.nvm_torn_points;
    merged.violations += s.violations;
    if (merged.first_violation_ordinal < 0) {
      merged.first_violation_ordinal = s.first_violation_ordinal;
    }
    for (std::string& detail : s.violation_details) {
      if (merged.violation_details.size() < options.max_violation_details) {
        merged.violation_details.push_back(std::move(detail));
      }
    }
    merged.park_recoveries += s.park_recoveries;
    merged.scan_recoveries += s.scan_recoveries;
    merged.checkpoint_recoveries += s.checkpoint_recoveries;
    merged.rolled_back_recoveries += s.rolled_back_recoveries;
    merged.repaired_pieces += s.repaired_pieces;
    merged.recovery_times.insert(merged.recovery_times.end(), s.recovery_times.begin(),
                                 s.recovery_times.end());
  }
  return merged;
}

simdisk::SimDisk StartRecording(WriteTrace& trace, simdisk::SimDisk& disk, uint32_t member) {
  trace.set_write_back(disk.params().cache.capacity_sectors > 0);
  disk.set_write_observer(
      [&trace, member](simdisk::Lba lba, std::span<const std::byte> data, bool durable) {
        trace.Append(lba, data, durable, member);
      });
  disk.set_flush_observer([&trace] { trace.AppendBarrier(); });
  return disk.Fork(nullptr);
}

bool ContentMatches(std::span<const std::byte> got, const std::vector<std::byte>& expect) {
  if (expect.empty()) {
    return IsZero(got);
  }
  return got.size() == expect.size() &&
         std::memcmp(got.data(), expect.data(), expect.size()) == 0;
}

void CheckMapInvariants(const core::Vld& vld, const Fail& fail) {
  // Invariant 3: the recovered map is injective over physical blocks.
  const std::vector<uint32_t>& map = vld.logical_map();
  std::unordered_set<uint32_t> phys_seen;
  uint64_t mapped = 0;
  for (uint32_t b = 0; b < map.size(); ++b) {
    if (map[b] == core::kUnmappedBlock) {
      continue;
    }
    ++mapped;
    if (!phys_seen.insert(map[b]).second) {
      fail("two logical blocks map to physical block " + std::to_string(map[b]));
      break;
    }
    if (vld.space().state(map[b]) != core::BlockState::kLive) {
      fail("mapped physical block " + std::to_string(map[b]) +
           " not marked live in the free-space map");
      break;
    }
  }

  // Invariant 4: free-space accounting equals mapped data + live map pieces + pinned blocks.
  std::unordered_set<uint32_t> map_blocks;
  for (uint32_t k = 0; k < vld.vlog().config().pieces; ++k) {
    if (const auto block = vld.vlog().LiveBlockOfPiece(k)) {
      map_blocks.insert(*block);
    }
  }
  for (const uint32_t block : vld.vlog().PinnedBlocks()) {
    map_blocks.insert(block);
  }
  if (mapped + map_blocks.size() != vld.space().live_blocks()) {
    fail("free-space accounting mismatch: " + std::to_string(mapped) + " mapped + " +
         std::to_string(map_blocks.size()) + " map blocks != " +
         std::to_string(vld.space().live_blocks()) + " live");
  }
}

}  // namespace vlog::crashsim
