#include "src/simdisk/sim_disk.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/common/rng.h"
#include "src/obs/timeline.h"

namespace vlog::simdisk {

SimDisk::SimDisk(DiskParams params, common::Clock* clock)
    : params_(std::move(params)),
      clock_(clock),
      rotation_period_(params_.RotationPeriod()),
      pages_((params_.geometry.TotalSectors() + kPageSectors - 1) / kPageSectors),
      zero_sector_(params_.geometry.sector_bytes),
      cache_(params_.cache) {
  const uint32_t n = params_.geometry.sectors_per_track;
  sector_start_.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    sector_start_[s] = static_cast<common::Duration>(static_cast<double>(rotation_period_) * s / n);
  }
  seek_time_.resize(params_.geometry.cylinders);
  for (uint32_t d = 0; d < seek_time_.size(); ++d) {
    seek_time_[d] = params_.seek.SeekTime(d);
  }
}

SimDisk SimDisk::Fork(common::Clock* clock) const {
  SimDisk fork(params_, clock);
  fork.pages_ = pages_;
  fork.latent_errors_ = latent_errors_;
  return fork;
}

void SimDisk::RegisterTimelineProbes(obs::Timeline& timeline, const std::string& prefix) const {
  // Counters: per-window deltas give sector throughput; busy-time deltas divided by the window
  // width give mechanical (media) and controller (bus) utilization.
  timeline.AddCounter(prefix + "disk.sectors_read", [this] { return stats_.sectors_read; });
  timeline.AddCounter(prefix + "disk.sectors_written", [this] { return stats_.sectors_written; });
  timeline.AddCounter(prefix + "disk.mech_busy_ns", [this] {
    const LatencyBreakdown& b = stats_.breakdown;
    return static_cast<uint64_t>(b.locate + b.transfer + b.flush);
  });
  timeline.AddCounter(prefix + "disk.ctrl_busy_ns", [this] {
    return static_cast<uint64_t>(stats_.breakdown.scsi_overhead);
  });
  // Gauges: instantaneous write-cache pressure at each window close.
  timeline.AddGauge(prefix + "disk.cache_dirty_sectors",
                    [this] { return cache_.dirty_sectors(); });
  timeline.AddGauge(prefix + "disk.cache_dirty_ppm", [this]() -> uint64_t {
    const uint64_t capacity = params_.cache.capacity_sectors;
    if (capacity == 0) {
      return 0;
    }
    return cache_.dirty_sectors() * 1000000 / capacity;
  });
}

common::Duration SimDisk::EstimatePosition(Lba lba, common::Time at) const {
  const common::Duration move = ArmMoveCost(lba);
  return move + RotationalWait(params_.geometry.ToPhys(lba).sector, at + move);
}

bool SimDisk::ReadHitsBuffer(Lba lba, uint64_t sectors) const {
  if (cache_.enabled() && cache_.Contains(lba, sectors)) {
    return true;
  }
  return buffer_.valid() && lba >= buffer_.lo() &&
         lba + sectors <= std::max<Lba>(buffer_.hi(), ReadAheadReach());
}

void SimDisk::Position(Lba lba, bool sequential) {
  const PhysAddr target = params_.geometry.ToPhys(lba);
  const uint32_t dist = target.cylinder > arm_.cylinder ? target.cylinder - arm_.cylinder
                                                        : arm_.cylinder - target.cylinder;
  const common::Duration seek = seek_time_[dist];
  const common::Duration move = std::max(
      seek, target.head != arm_.head ? params_.head_switch : common::Duration{0});
  if (move > 0) {
    ++stats_.seeks;
  }
  common::Duration wait = 0;
  if (!sequential) {
    wait = RotationalWait(target.sector, clock_->Now() + move);
  }
  if (tracer_ != nullptr) {
    // Head selection overlaps the seek, so only the settle in excess of the seek is charged as
    // head-switch time — the three events sum to exactly this Position call's clock advance.
    if (seek > 0) {
      tracer_->Charge(obs::EventType::kSeek, obs::Layer::kDisk, seek, lba);
    }
    if (move > seek) {
      tracer_->Charge(obs::EventType::kHeadSwitch, obs::Layer::kDisk, move - seek, lba);
    }
    if (wait > 0) {
      tracer_->Charge(obs::EventType::kRotation, obs::Layer::kDisk, wait, lba);
    }
  }
  clock_->Advance(move + wait);
  last_request_.locate += move + wait;
  arm_.cylinder = target.cylinder;
  arm_.head = target.head;
}

Lba SimDisk::ReadAheadReach() const {
  if (!buffer_.valid() || read_ahead_policy_ != ReadAheadPolicy::kStandard ||
      read_ahead_pos_ >= read_ahead_track_end_) {
    return read_ahead_pos_;
  }
  const uint64_t passed =
      static_cast<uint64_t>((clock_->Now() - last_read_end_) / params_.SectorTime());
  return std::min<Lba>(read_ahead_pos_ + passed, read_ahead_track_end_);
}

void SimDisk::CatchUpReadAhead() {
  if (!buffer_.valid() || read_ahead_policy_ != ReadAheadPolicy::kStandard ||
      read_ahead_pos_ >= read_ahead_track_end_) {
    return;
  }
  read_ahead_pos_ = ReadAheadReach();
  buffer_.ExtendTo(read_ahead_pos_);
  last_read_end_ = clock_->Now();
}

void SimDisk::Access(Lba lba, uint64_t sectors, bool is_write, bool host_command) {
  last_request_ = LatencyBreakdown{};
  if (host_command) {
    if (tracer_ != nullptr) {
      tracer_->Charge(obs::EventType::kController, obs::Layer::kDisk, params_.scsi_overhead,
                      lba, sectors);
    }
    clock_->Advance(params_.scsi_overhead);
    last_request_.scsi_overhead = params_.scsi_overhead;
  }

  if (is_write) {
    buffer_.InvalidateIfOverlaps(lba, sectors);
    ++stats_.write_requests;
    stats_.sectors_written += sectors;
  } else {
    CatchUpReadAhead();
    ++stats_.read_requests;
    stats_.sectors_read += sectors;
    if (cache_.enabled() && cache_.Contains(lba, sectors)) {
      // Every requested sector is dirty in the write cache, i.e. still in controller RAM: the
      // read is served over the bus without touching the media.
      const common::Duration bus =
          params_.BusTransferTime(sectors * params_.geometry.sector_bytes);
      if (tracer_ != nullptr) {
        tracer_->Charge(obs::EventType::kBusXfer, obs::Layer::kDisk, bus, lba, sectors);
      }
      clock_->Advance(bus);
      last_request_.transfer = bus;
      ++stats_.cache_read_hits;
      stats_.breakdown += last_request_;
      return;
    }
    if (buffer_.Contains(lba, sectors)) {
      // Served from the track buffer: bus transfer only.
      const common::Duration bus =
          params_.BusTransferTime(sectors * params_.geometry.sector_bytes);
      if (tracer_ != nullptr) {
        tracer_->Charge(obs::EventType::kBusXfer, obs::Layer::kDisk, bus, lba, sectors);
      }
      clock_->Advance(bus);
      last_request_.transfer = bus;
      ++stats_.buffer_hits;
      if (read_ahead_policy_ == ReadAheadPolicy::kStandard) {
        buffer_.DiscardBelow(lba);
      }
      stats_.breakdown += last_request_;
      return;
    }
  }

  // Mechanical access, one contiguous run per track.
  const uint32_t n = params_.geometry.sectors_per_track;
  Lba pos = lba;
  uint64_t remaining = sectors;
  bool first = true;
  while (remaining > 0) {
    const uint64_t track = params_.geometry.TrackOf(pos);
    const Lba track_end = params_.geometry.TrackStart(track) + n;
    const uint64_t run = std::min<uint64_t>(remaining, track_end - pos);
    Position(pos, /*sequential=*/!first);
    const common::Duration xfer = params_.SectorTime() * static_cast<common::Duration>(run);
    if (tracer_ != nullptr) {
      tracer_->Charge(obs::EventType::kMediaXfer, obs::Layer::kDisk, xfer, pos, run);
    }
    clock_->Advance(xfer);
    last_request_.transfer += xfer;
    pos += run;
    remaining -= run;
    first = false;
  }

  if (!is_write) {
    const uint64_t last_track = params_.geometry.TrackOf(pos - 1);
    const Lba last_track_start = params_.geometry.TrackStart(last_track);
    if (read_ahead_policy_ == ReadAheadPolicy::kAggressiveTrack) {
      // VLD policy: the whole target track is prefetched and retained until delivered.
      buffer_.SetRange(last_track_start, last_track_start + n);
      read_ahead_pos_ = last_track_start + n;
    } else {
      // Standard policy: cache from the request start; read-ahead continues in background.
      buffer_.SetRange(lba, pos);
      read_ahead_pos_ = pos;
    }
    read_ahead_track_end_ = last_track_start + n;
    last_read_end_ = clock_->Now();
  }
  stats_.breakdown += last_request_;
}

common::Status SimDisk::Read(Lba lba, std::span<std::byte> out) {
  RETURN_IF_ERROR(CheckRange(lba, out.size(), "Read"));
  if (HitsLatentError(lba, out.size() / params_.geometry.sector_bytes)) {
    return common::IoError("Read: latent sector error");
  }
  Access(lba, out.size() / params_.geometry.sector_bytes, /*is_write=*/false,
         /*host_command=*/true);
  PeekMedia(lba, out);
  return common::OkStatus();
}

common::Status SimDisk::ApplyWriteFault(Lba lba, std::span<const std::byte> in) {
  if (!write_fault_) {
    return common::OkStatus();
  }
  if (write_fault_fired_) {
    return common::IoError("injected write failure (simulated power cut)");
  }
  if (write_fault_->after_writes > 0) {
    --write_fault_->after_writes;
    return common::OkStatus();
  }
  write_fault_fired_ = true;
  // The head is mid-operation when power drops: persist whatever the fault mode says survived.
  PokeFaulted(lba, in, *write_fault_);
  return common::IoError("injected write failure (simulated power cut)");
}

void SimDisk::PokeFaulted(Lba lba, std::span<const std::byte> in, const WriteFault& fault) {
  const uint32_t sector_bytes = params_.geometry.sector_bytes;
  const uint64_t sectors = in.size() / sector_bytes;
  switch (fault.mode) {
    case WriteFaultMode::kFailStop:
      break;
    case WriteFaultMode::kTornPrefix: {
      const uint64_t keep = std::min<uint64_t>(fault.keep_sectors, sectors);
      PokeMedia(lba, in.subspan(0, keep * sector_bytes));
      break;
    }
    case WriteFaultMode::kTornSuffix: {
      const uint64_t keep = std::min<uint64_t>(fault.keep_sectors, sectors);
      PokeMedia(lba + (sectors - keep), in.subspan((sectors - keep) * sector_bytes));
      break;
    }
    case WriteFaultMode::kTornRandom: {
      common::Rng rng(fault.seed);
      for (uint64_t s = 0; s < sectors; ++s) {
        if (rng.Chance(0.5)) {
          PokeMedia(lba + s, in.subspan(s * sector_bytes, sector_bytes));
        }
      }
      break;
    }
    case WriteFaultMode::kCorruptTail: {
      PokeMedia(lba, in);
      std::vector<std::byte> tail(in.end() - sector_bytes, in.end());
      common::Rng rng(fault.seed);
      const uint64_t flips = 1 + rng.Below(8);
      for (uint64_t i = 0; i < flips; ++i) {
        tail[rng.Below(sector_bytes)] ^= static_cast<std::byte>(1 + rng.Below(255));
      }
      PokeMedia(lba + sectors - 1, tail);
      break;
    }
  }
}

common::Status SimDisk::Write(Lba lba, std::span<const std::byte> in) {
  if (cache_.enabled()) {
    return WriteCached(lba, in, /*host_command=*/true);
  }
  return WriteThrough(lba, in, /*host_command=*/true, /*fua=*/false);
}

common::Status SimDisk::WriteFua(Lba lba, std::span<const std::byte> in) {
  return WriteThrough(lba, in, /*host_command=*/true, /*fua=*/true);
}

common::Status SimDisk::InternalRead(Lba lba, std::span<std::byte> out) {
  RETURN_IF_ERROR(CheckRange(lba, out.size(), "InternalRead"));
  if (HitsLatentError(lba, out.size() / params_.geometry.sector_bytes)) {
    return common::IoError("InternalRead: latent sector error");
  }
  Access(lba, out.size() / params_.geometry.sector_bytes, /*is_write=*/false,
         /*host_command=*/false);
  PeekMedia(lba, out);
  return common::OkStatus();
}

SimDisk::MediaView SimDisk::InternalReadView(Lba lba, uint64_t sectors) {
  const DiskGeometry& g = params_.geometry;
  if (sectors == 0 || !InRange(lba, sectors) || g.TrackOf(lba) != g.TrackOf(lba + sectors - 1) ||
      HitsLatentError(lba, sectors)) {
    return {};
  }
  Access(lba, sectors, /*is_write=*/false, /*host_command=*/false);
  return MediaView(this, lba, sectors);
}

common::Status SimDisk::InternalWrite(Lba lba, std::span<const std::byte> in) {
  if (cache_.enabled()) {
    return WriteCached(lba, in, /*host_command=*/false);
  }
  return WriteThrough(lba, in, /*host_command=*/false, /*fua=*/false);
}

common::Status SimDisk::InternalWriteFua(Lba lba, std::span<const std::byte> in) {
  return WriteThrough(lba, in, /*host_command=*/false, /*fua=*/true);
}

common::Status SimDisk::WriteThrough(Lba lba, std::span<const std::byte> in, bool host_command,
                                     bool fua) {
  RETURN_IF_ERROR(CheckRange(lba, in.size(), host_command ? "Write" : "InternalWrite"));
  RETURN_IF_ERROR(ApplyWriteFault(lba, in));
  const uint64_t sectors = in.size() / params_.geometry.sector_bytes;
  if (fua) {
    ++stats_.fua_writes;
    // The media copy written below supersedes any dirty cached copy of these sectors.
    cache_.Discard(lba, sectors);
  }
  Access(lba, sectors, /*is_write=*/true, host_command);
  PokeMedia(lba, in);
  if (write_observer_) {
    write_observer_(lba, in, /*durable=*/true);
  }
  return common::OkStatus();
}

common::Status SimDisk::WriteCached(Lba lba, std::span<const std::byte> in, bool host_command) {
  RETURN_IF_ERROR(CheckRange(lba, in.size(), host_command ? "Write" : "InternalWrite"));
  RETURN_IF_ERROR(ApplyWriteFault(lba, in));
  const uint64_t sectors = in.size() / params_.geometry.sector_bytes;
  last_request_ = LatencyBreakdown{};
  if (host_command) {
    // Acknowledged from controller RAM: command processing plus the bus transfer, no
    // mechanical work. Internal (firmware) writes into the cache are free.
    if (tracer_ != nullptr) {
      tracer_->Charge(obs::EventType::kController, obs::Layer::kDisk, params_.scsi_overhead,
                      lba, sectors);
    }
    clock_->Advance(params_.scsi_overhead);
    last_request_.scsi_overhead = params_.scsi_overhead;
    const common::Duration bus = params_.BusTransferTime(in.size());
    if (tracer_ != nullptr) {
      tracer_->Charge(obs::EventType::kBusXfer, obs::Layer::kDisk, bus, lba, sectors);
    }
    clock_->Advance(bus);
    last_request_.transfer = bus;
  }
  buffer_.InvalidateIfOverlaps(lba, sectors);
  ++stats_.write_requests;
  stats_.sectors_written += sectors;
  ++stats_.cached_writes;
  // The media array is the read path's source of truth, so the data lands there at ack time;
  // the cache only tracks which sectors would still be volatile after a power cut.
  PokeMedia(lba, in);
  const bool over_capacity = cache_.Insert(lba, sectors);
  if (write_observer_) {
    write_observer_(lba, in, /*durable=*/false);
  }
  if (over_capacity) {
    // Capacity pressure: the drive destages the whole dirty set before accepting more work.
    last_request_.flush = DrainCache();
  }
  stats_.breakdown += last_request_;
  return common::OkStatus();
}

common::Duration SimDisk::DestageExtent(Lba lba, uint64_t sectors) {
  // Same track-by-track mechanics as Access, but silenced: the caller reports the whole extent
  // as one kDestage event and books the time under the flush bucket rather than locate/transfer.
  obs::TraceRecorder* const saved_tracer = tracer_;
  const LatencyBreakdown saved_last = last_request_;
  tracer_ = nullptr;
  const common::Time start = clock_->Now();
  const uint32_t n = params_.geometry.sectors_per_track;
  Lba pos = lba;
  uint64_t remaining = sectors;
  bool first = true;
  while (remaining > 0) {
    const uint64_t track = params_.geometry.TrackOf(pos);
    const Lba track_end = params_.geometry.TrackStart(track) + n;
    const uint64_t run = std::min<uint64_t>(remaining, track_end - pos);
    Position(pos, /*sequential=*/!first);
    clock_->Advance(params_.SectorTime() * static_cast<common::Duration>(run));
    pos += run;
    remaining -= run;
    first = false;
  }
  tracer_ = saved_tracer;
  last_request_ = saved_last;
  return clock_->Now() - start;
}

common::Duration SimDisk::DrainCache() {
  common::Duration total = 0;
  for (const WriteCache::Extent& e : cache_.Drain()) {
    const common::Duration dur = DestageExtent(e.lba, e.sectors);
    if (tracer_ != nullptr) {
      tracer_->Charge(obs::EventType::kDestage, obs::Layer::kDisk, dur, e.lba, e.sectors);
    }
    ++stats_.destage_extents;
    stats_.destaged_sectors += e.sectors;
    total += dur;
  }
  // Every acknowledged write is now on the media.
  if (flush_observer_) {
    flush_observer_();
  }
  return total;
}

common::Status SimDisk::Flush() {
  if (!cache_.enabled()) {
    return common::OkStatus();
  }
  last_request_ = LatencyBreakdown{};
  const uint64_t extents_before = stats_.destage_extents;
  const uint64_t sectors_before = stats_.destaged_sectors;
  // Command overhead is absorbed into the destage work: an empty flush is free, which keeps
  // barrier-heavy callers (the VLD flushes around every map append) from paying a per-command
  // tax the write-through model never charged.
  last_request_.flush = DrainCache();
  ++stats_.flushes;
  if (tracer_ != nullptr) {
    tracer_->Annotate(obs::EventType::kFlush, obs::Layer::kDisk,
                      stats_.destage_extents - extents_before,
                      stats_.destaged_sectors - sectors_before);
  }
  stats_.breakdown += last_request_;
  return common::OkStatus();
}

void SimDisk::ChargeHostCommand() {
  if (tracer_ != nullptr) {
    tracer_->Charge(obs::EventType::kController, obs::Layer::kDisk, params_.scsi_overhead);
  }
  clock_->Advance(params_.scsi_overhead);
  stats_.breakdown.scsi_overhead += params_.scsi_overhead;
}

common::Time SimDisk::ChargeQueuedCommand(common::Time ctrl_free, common::Time submitted) {
  const common::Time start = std::max(ctrl_free, submitted);
  const common::Time done = start + params_.scsi_overhead;
  stats_.breakdown.scsi_overhead += params_.scsi_overhead;
  if (tracer_ != nullptr) {
    // Only the un-overlapped part of the controller work advances the clock; controller time
    // hidden behind earlier media work is charged as zero so breakdowns still sum to latency.
    const common::Time now = clock_->Now();
    tracer_->Charge(obs::EventType::kController, obs::Layer::kDisk,
                    done > now ? done - now : 0);
  }
  clock_->AdvanceTo(done);
  return done;
}

std::byte* SimDisk::WritablePage(uint64_t page, bool whole) {
  std::shared_ptr<std::byte[]>& p = pages_[page];
  if (p && p.use_count() == 1) {
    return p.get();
  }
  // Exactly PageBytes() with the control block apart: a fused make_shared block would sit one
  // malloc size class above the 4 KB payload buffers the VLD frees, fragmenting the heap.
  std::shared_ptr<std::byte[]> fresh(new std::byte[PageBytes()]);
  if (!whole) {
    if (p) {
      std::memcpy(fresh.get(), p.get(), PageBytes());
    } else {
      std::memset(fresh.get(), 0, PageBytes());
    }
  }
  p = std::move(fresh);
  return p.get();
}

void SimDisk::PeekMedia(Lba lba, std::span<std::byte> out) const {
  const uint32_t sector_bytes = params_.geometry.sector_bytes;
  assert((lba * sector_bytes + out.size()) <= params_.geometry.CapacityBytes());
  // Page by page: a run never crosses a page.
  for (size_t done = 0; done < out.size();) {
    const size_t offset = (lba % kPageSectors) * sector_bytes;
    const size_t n = std::min(out.size() - done, PageBytes() - offset);
    if (const std::byte* page = pages_[lba / kPageSectors].get()) {
      std::memcpy(out.data() + done, page + offset, n);
    } else {
      std::memset(out.data() + done, 0, n);
    }
    done += n;
    lba += n / sector_bytes;
  }
}

void SimDisk::PokeMedia(Lba lba, std::span<const std::byte> in) {
  const uint32_t sector_bytes = params_.geometry.sector_bytes;
  assert((lba * sector_bytes + in.size()) <= params_.geometry.CapacityBytes());
  for (size_t done = 0; done < in.size();) {
    const size_t offset = (lba % kPageSectors) * sector_bytes;
    const size_t n = std::min(in.size() - done, PageBytes() - offset);
    std::memcpy(WritablePage(lba / kPageSectors, /*whole=*/n == PageBytes()) + offset,
                in.data() + done, n);
    done += n;
    lba += n / sector_bytes;
  }
}

}  // namespace vlog::simdisk
