// The mechanical disk simulator.
//
// Replaces the paper's in-kernel port of the Dartmouth HP97560 model: a sector-granularity
// simulation of arm position, rotation, head switches, per-command SCSI overhead, media
// transfer, and a track read-ahead buffer, all advancing a shared virtual clock. The media
// contents live in memory (the paper's 24 MB kernel ramdisk) as one page per 8 sectors (4 KiB
// with 512-byte sectors; page = LBA / 8 whatever the geometry): a page is allocated on its first
// write, an unwritten page reads as zeros, and pages are shared copy-on-write between a disk and
// its forks. A full-capacity disk therefore costs only the pages it has written, and Fork()
// costs O(pages) rather than O(capacity).
//
// Rotational position is derived from the clock: the platter turns continuously, so the sector
// under the head at time t is (t mod rotation_period) scaled to sectors-per-track. Sequential
// runs that cross a track boundary are charged only the head-switch/seek cost (implicit optimal
// track skew).
#ifndef SRC_SIMDISK_SIM_DISK_H_
#define SRC_SIMDISK_SIM_DISK_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/obs/trace.h"
#include "src/simdisk/block_device.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/latency.h"
#include "src/simdisk/track_buffer.h"

namespace vlog::obs {
class Timeline;
}  // namespace vlog::obs

namespace vlog::simdisk {

class SimDisk : public BlockDevice {
 public:
  SimDisk(DiskParams params, common::Clock* clock);

  // A power-cycled disk over the same platters, timed by `clock`: exactly what
  // SimDisk(params(), clock) holding this disk's bytes would be — fresh arm, track buffer,
  // write cache, stats, read-ahead policy, and no observers, tracer or armed fault. Latent
  // sector errors are damage to the platters, so they carry over. The pages are shared
  // copy-on-write, so writes on either disk stay invisible to the other; the fork costs one
  // reference per page and each later first write to a shared page one page copy.
  // A fork that is never accessed (only peeked, poked or forked) may take a null clock.
  SimDisk Fork(common::Clock* clock) const;

  // BlockDevice: host commands. Each charges the SCSI command overhead. With a write-back
  // cache enabled, Write acknowledges after controller + bus time only and the mechanical work
  // is deferred to Flush (or capacity pressure).
  common::Status Read(Lba lba, std::span<std::byte> out) override;
  common::Status Write(Lba lba, std::span<const std::byte> in) override;
  // Destages every dirty cached extent to the media and returns once all acknowledged writes
  // are durable. Free no-op when the cache is disabled.
  common::Status Flush() override;
  uint64_t SectorCount() const override { return params_.geometry.TotalSectors(); }
  uint32_t SectorBytes() const override { return params_.geometry.sector_bytes; }

  // Force-unit-access write: bypasses the write cache (discarding any cached copy it
  // supersedes) and commits to media before acknowledging. Identical to Write when the cache
  // is disabled.
  common::Status WriteFua(Lba lba, std::span<const std::byte> in);

  // In-disk operations used by VLD firmware and the compactor: no SCSI command overhead.
  common::Status InternalRead(Lba lba, std::span<std::byte> out);
  common::Status InternalWrite(Lba lba, std::span<const std::byte> in);
  common::Status InternalWriteFua(Lba lba, std::span<const std::byte> in);
  // A read-only, zero-copy view of a run of sectors: Sector(i) is the i-th sector's bytes in
  // the media (or in the disk's one zero sector where the page is unwritten). A span Sector()
  // returns is valid until the next write to the disk; the view, while the disk stays put.
  class MediaView {
   public:
    MediaView() = default;
    bool empty() const { return sectors_ == 0; }
    uint64_t sectors() const { return sectors_; }
    std::span<const std::byte> Sector(uint64_t i) const;

   private:
    friend class SimDisk;
    MediaView(const SimDisk* disk, Lba lba, uint64_t sectors)
        : disk_(disk), lba_(lba), sectors_(sectors) {}
    const SimDisk* disk_ = nullptr;
    Lba lba_ = 0;
    uint64_t sectors_ = 0;
  };

  // Zero-copy InternalRead: charges exactly the same mechanics, stats, and clock time, but
  // returns a view into the media instead of copying it out. Always current — dirty
  // write-cache sectors live in the media too (the cache tracks only dirtiness). Used by
  // recovery's full-disk scan, where copying every track dominated the sweep profile. The
  // range must lie within one track (one mechanical access); returns an empty view on a range
  // error, crossing a track boundary included, and on a latent sector error.
  MediaView InternalReadView(Lba lba, uint64_t sectors);

  // Charges one SCSI command's controller overhead. The VLD calls this once per *host* command
  // before issuing however many internal operations the command expands to.
  void ChargeHostCommand();

  // Queued-command variant: the controller processes one command header at a time, pipelined
  // with the media. The command's controller work starts when both the controller is free
  // (`ctrl_free`, the previous command's return value) and the command has been submitted
  // (`submitted`); it finishes scsi_overhead later. Advances the clock only if that finish time
  // is in the future, so controller work fully overlapped with earlier media work costs nothing
  // extra. With one outstanding command this degenerates exactly to ChargeHostCommand.
  common::Time ChargeQueuedCommand(common::Time ctrl_free, common::Time submitted);

  // Zero-cost media access, for test setup and for modeling in-memory behaviour.
  void PeekMedia(Lba lba, std::span<std::byte> out) const;
  void PokeMedia(Lba lba, std::span<const std::byte> in);

  // --- Introspection for eager writing (the VLD runs "inside" this disk) ---

  // Arm position (cylinder+surface). The rotational position is time-derived; see below.
  const PhysAddr& ArmPosition() const { return arm_; }

  // The platter's rotational phase at time t: how far into its revolution it has turned. A
  // pick that prices many candidate positions from one instant takes the phase once and moves
  // it on with PhaseAfter, which needs no division.
  common::Duration PhaseAt(common::Time t) const { return t % rotation_period_; }
  // The phase `d` after `phase`, for d no longer than a few revolutions (an arm move).
  common::Duration PhaseAfter(common::Duration phase, common::Duration d) const {
    phase += d;
    while (phase >= rotation_period_) {
      phase -= rotation_period_;
    }
    return phase;
  }

  // The first sector whose leading edge is still ahead of the head at `phase` (or exactly under
  // it), wrapping to 0 past the track's last sector: the sector WaitAtPhase reaches soonest
  // from there. The sector the head is already inside is a whole revolution away.
  uint32_t NextSectorAhead(common::Duration phase) const {
    const uint32_t n = params_.geometry.sectors_per_track;
    // The scaled phase lands on the answer or next to it; the sector starts settle which.
    uint32_t s = static_cast<uint32_t>(static_cast<double>(phase) /
                                       static_cast<double>(rotation_period_) * n);
    while (s > 0 && sector_start_[s - 1] >= phase) {
      --s;
    }
    while (s < n && sector_start_[s] < phase) {
      ++s;
    }
    return s == n ? 0 : s;
  }

  // Rotational delay from `phase` until the start of `sector` (< sectors_per_track) passes
  // under the head.
  common::Duration WaitAtPhase(uint32_t sector, common::Duration phase) const {
    assert(sector < sector_start_.size());
    const common::Duration wait = sector_start_[sector] - phase;
    return wait < 0 ? wait + rotation_period_ : wait;
  }
  // The same, from time `at`.
  common::Duration RotationalWait(uint32_t sector, common::Time at) const {
    return WaitAtPhase(sector, PhaseAt(at));
  }

  // Seek time for an arm move of `d` cylinders is SeekTimes()[d], for every d below the
  // cylinder count: SeekCurve's values, tabulated with the disk.
  std::span<const common::Duration> SeekTimes() const { return seek_time_; }

  // Seek + head-switch cost from the current arm position to `cylinder` and `head`, or to the
  // track holding `lba` (0 when already there). Excludes rotation.
  common::Duration ArmMoveTo(uint32_t cylinder, uint32_t head) const {
    const uint32_t dist =
        cylinder > arm_.cylinder ? cylinder - arm_.cylinder : arm_.cylinder - cylinder;
    const common::Duration head_switch = head != arm_.head ? params_.head_switch : 0;
    // Head selection overlaps arm motion; the settle is bounded by the longer of the two.
    return std::max(seek_time_[dist], head_switch);
  }
  common::Duration ArmMoveCost(Lba lba) const {
    const PhysAddr target = params_.geometry.ToPhys(lba);
    return ArmMoveTo(target.cylinder, target.head);
  }

  // Full positioning estimate: arm move plus rotational wait, starting at time `at`.
  common::Duration EstimatePosition(Lba lba, common::Time at) const;
  // Whether a read of [lba, lba + sectors) issued now would be served from controller RAM (the
  // write-back cache or the track buffer) with no positioning at all.
  bool ReadHitsBuffer(Lba lba, uint64_t sectors) const;

  const DiskParams& params() const { return params_; }
  const DiskGeometry& geometry() const { return params_.geometry; }
  common::Clock* clock() { return clock_; }

  DiskStats& stats() { return stats_; }
  const DiskStats& stats() const { return stats_; }
  // Breakdown of the most recent request (host or internal).
  const LatencyBreakdown& last_request() const { return last_request_; }

  void set_read_ahead_policy(ReadAheadPolicy policy) { read_ahead_policy_ = policy; }
  ReadAheadPolicy read_ahead_policy() const { return read_ahead_policy_; }

  // Optional tracing. The disk is the bottom of the stack and the one object every layer
  // already holds, so upper layers (VLD, VirtualLog, Compactor, VldArray) reach the recorder
  // through here instead of each taking a constructor parameter. Null (the default) disables
  // all tracing; the simulation never reads the recorder, so attaching one cannot change
  // simulated time.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }
  obs::TraceRecorder* tracer() const { return tracer_; }

  // Registers this disk's timeline series under `prefix`: sector-count and busy-time counters
  // (whose per-window deltas give throughput and disk/bus utilization) and write-cache dirty
  // gauges. The closures capture `this`, so the timeline must not be polled after the disk is
  // destroyed. Pure reads — sampling never advances the clock.
  void RegisterTimelineProbes(obs::Timeline& timeline, const std::string& prefix) const;

  // --- Failure injection for crash-recovery tests ---

  // What happens to the first write issued once the armed fault fires. Every write after the
  // faulted one fails with kIoError and leaves the media untouched (power is off).
  enum class WriteFaultMode : uint8_t {
    kFailStop,    // The faulted write persists nothing.
    kTornPrefix,  // Only the first `keep_sectors` sectors of the faulted write persist.
    kTornSuffix,  // Only the last `keep_sectors` sectors persist.
    kTornRandom,  // A pseudo-random (seeded) subset of the faulted write's sectors persists.
    kCorruptTail,  // All sectors persist, then seeded bit flips damage the final sector.
  };

  struct WriteFault {
    WriteFaultMode mode = WriteFaultMode::kFailStop;
    // How many more writes (host or internal) complete normally before the fault fires.
    uint64_t after_writes = 0;
    // kTornPrefix/kTornSuffix: sectors of the faulted write that persist (clamped to its size).
    uint32_t keep_sectors = 0;
    // kTornRandom/kCorruptTail: seed for the persisted-subset / bit-flip choice.
    uint64_t seed = 1;
  };

  // Arms (or, with nullopt, disarms) the write fault. The faulted write and all later ones
  // return kIoError; the media keeps whatever the fault mode persisted.
  void SetWriteFault(std::optional<WriteFault> fault) {
    write_fault_ = fault;
    write_fault_fired_ = false;
  }

  // Marks `lba` as a latent sector error: damage on the platter, so the mark persists across
  // writes and forks. Every read that touches a marked sector (Read, InternalRead,
  // InternalReadView) fails with kIoError, or returns an empty view, and changes nothing else:
  // no clock advance, no stats, no track buffer.
  void MarkLatentSectorError(Lba lba) { latent_errors_.insert(lba); }

  // Zero-cost, like PokeMedia: persists what `fault` says survives of a write of `in` at `lba`
  // cut by a power failure (after_writes is ignored). The armed fault and the crash sweep's
  // torn and corrupt-tail points both materialize through this one function.
  void PokeFaulted(Lba lba, std::span<const std::byte> in, const WriteFault& fault);

  // Observer invoked after every successfully acknowledged write (host or internal) with the
  // written range and payload. `durable` is true when the write is committed to stable media at
  // acknowledgement time (write-through or FUA) and false when it was acknowledged into the
  // volatile cache. Faulted writes do not reach the observer, matching their kIoError result.
  // Used by the crashsim recording shim; null disables.
  using WriteObserver =
      std::function<void(Lba lba, std::span<const std::byte> data, bool durable)>;
  void set_write_observer(WriteObserver observer) { write_observer_ = std::move(observer); }

  // Observer invoked whenever every previously acknowledged write has just become durable: at
  // the end of each Flush and of each capacity-pressure drain. The crashsim recording shim uses
  // it to mark durability barriers in the write trace; null disables.
  using FlushObserver = std::function<void()>;
  void set_flush_observer(FlushObserver observer) { flush_observer_ = std::move(observer); }

  // Write-back cache introspection (dirty-extent timing model; media is always current).
  const WriteCache& cache() const { return cache_; }
  uint64_t cache_dirty_sectors() const { return cache_.dirty_sectors(); }

 private:
  // Whether any sector of [lba, lba + sectors) carries a latent sector error.
  bool HitsLatentError(Lba lba, uint64_t sectors) const {
    if (latent_errors_.empty()) {
      return false;
    }
    const auto it = latent_errors_.lower_bound(lba);
    return it != latent_errors_.end() && *it < lba + sectors;
  }
  // Checks the armed write fault before a write touches media. Returns ok when the write should
  // proceed normally; otherwise applies whatever the fault mode persists and returns kIoError.
  common::Status ApplyWriteFault(Lba lba, std::span<const std::byte> in);
  // Write-through path shared by Write/InternalWrite (cache disabled) and the FUA variants.
  common::Status WriteThrough(Lba lba, std::span<const std::byte> in, bool host_command,
                              bool fua);
  // Acknowledges a write into the volatile cache: controller + bus time for host commands,
  // free for internal ones. Triggers a capacity-pressure drain when the dirty set overflows.
  common::Status WriteCached(Lba lba, std::span<const std::byte> in, bool host_command);
  // Mechanically writes one dirty extent (no events — the caller charges the returned duration
  // as a single kDestage event so breakdowns land in the flush bucket).
  common::Duration DestageExtent(Lba lba, uint64_t sectors);
  // Destages the whole dirty set and fires the flush observer. Returns total destage time.
  common::Duration DrainCache();
  // Performs the mechanical work of accessing [lba, lba+sectors), advancing the clock and
  // filling `last_request_`. `host_command` charges SCSI overhead.
  void Access(Lba lba, uint64_t sectors, bool is_write, bool host_command);
  // Moves the arm to the track of `lba` and waits for `lba`'s sector; returns when transfer may
  // begin. `sequential` suppresses the rotational wait (implicit track skew).
  void Position(Lba lba, bool sequential);
  // Extends the standard-policy read-ahead window by the time elapsed since the last read.
  void CatchUpReadAhead();
  // Where the standard-policy read-ahead will have reached by now (CatchUpReadAhead's target).
  Lba ReadAheadReach() const;

  // Media is stored in pages of kPageSectors sectors.
  static constexpr uint32_t kPageSectors = 8;
  size_t PageBytes() const { return size_t{kPageSectors} * params_.geometry.sector_bytes; }
  // Page `page`, ready for writing: allocated (zeroed) on its first write, and copied first
  // while a fork shares it. A `whole`-page write skips the zeroing or the copy, since it
  // overwrites every byte.
  std::byte* WritablePage(uint64_t page, bool whole);

  DiskParams params_;
  common::Clock* clock_;
  // The mechanical timing the eager allocator and the compactor ask for on every candidate
  // track, computed once: the revolution, when each sector's leading edge passes the head
  // within one, and the seek time for each distance in cylinders.
  common::Duration rotation_period_;
  std::vector<common::Duration> sector_start_;
  std::vector<common::Duration> seek_time_;
  // One page per kPageSectors sectors; null until the page is first written. A page is written
  // in place only while this disk is its sole owner.
  std::vector<std::shared_ptr<std::byte[]>> pages_;
  // What a MediaView shows for a sector of an unwritten page.
  std::vector<std::byte> zero_sector_;
  PhysAddr arm_{};
  DiskStats stats_;
  LatencyBreakdown last_request_;
  TrackBuffer buffer_;
  ReadAheadPolicy read_ahead_policy_ = ReadAheadPolicy::kStandard;
  // Where background read-ahead was when the last read finished.
  Lba read_ahead_pos_ = 0;
  common::Time last_read_end_ = 0;
  uint64_t read_ahead_track_end_ = 0;  // Exclusive LBA bound of the read-ahead (track end).
  std::optional<WriteFault> write_fault_;
  bool write_fault_fired_ = false;
  std::set<Lba> latent_errors_;  // See MarkLatentSectorError.
  WriteObserver write_observer_;
  FlushObserver flush_observer_;
  WriteCache cache_;
  obs::TraceRecorder* tracer_ = nullptr;
};

// Inline: recovery's full-disk scan calls this once per sector.
inline std::span<const std::byte> SimDisk::MediaView::Sector(uint64_t i) const {
  assert(i < sectors_);
  const Lba lba = lba_ + i;
  const uint32_t sector_bytes = disk_->params_.geometry.sector_bytes;
  if (const std::byte* page = disk_->pages_[lba / kPageSectors].get()) {
    return {page + (lba % kPageSectors) * sector_bytes, sector_bytes};
  }
  return disk_->zero_sector_;
}

}  // namespace vlog::simdisk

#endif  // SRC_SIMDISK_SIM_DISK_H_
