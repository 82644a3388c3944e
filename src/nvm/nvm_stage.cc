#include "src/nvm/nvm_stage.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/obs/timeline.h"

namespace vlog::core {
namespace {

constexpr uint64_t kSuperMagic = 0x314D564E474F4C56ull;  // "VLOGNVM1" little-endian.
constexpr uint32_t kRecordMagic = 0x564C4E52;            // "RNLV".

}  // namespace

uint64_t NvmStage::RecordBytes(uint64_t payload_bytes, uint32_t cache_line_bytes) {
  const uint64_t raw = kHeaderBytes + payload_bytes;
  return (raw + cache_line_bytes - 1) / cache_line_bytes * cache_line_bytes;
}

NvmStage::NvmStage(simdisk::NvmDevice* nvm, Vld* vld, NvmStageConfig config)
    : nvm_(nvm), backing_(vld), vld_(vld), config_(config),
      sector_bytes_(vld->SectorBytes()) {}

NvmStage::NvmStage(simdisk::NvmDevice* nvm, simdisk::BlockDevice* backing, NvmStageConfig config)
    : nvm_(nvm), backing_(backing), vld_(nullptr), config_(config),
      sector_bytes_(backing->SectorBytes()) {}

common::Status NvmStage::WriteSuperblock() {
  std::vector<std::byte> sb(kSuperblockBytes);
  common::StoreLe<uint64_t>(sb, 0, kSuperMagic);
  common::StoreLe<uint64_t>(sb, 8, epoch_);
  common::StoreLe<uint64_t>(sb, 16, head_);
  common::StoreLe<uint32_t>(
      sb, 24, common::Crc32c(std::span<const std::byte>(sb.data(), 24)));
  // One cache line: the NVM persistence model makes this write atomic across a crash.
  return nvm_->WriteBytes(0, sb);
}

common::Status NvmStage::Format() {
  overlay_.clear();
  records_.clear();
  epoch_ = 1;
  seq_ = 0;
  head_ = tail_ = kSuperblockBytes;
  return WriteSuperblock();
}

common::Status NvmStage::ResetLog() {
  ++epoch_;
  seq_ = 0;  // Sequence numbers restart per epoch; recovery expects the first record at 1.
  head_ = tail_ = kSuperblockBytes;
  ++stats_.epoch_resets;
  return WriteSuperblock();
}

common::Status NvmStage::AppendRecord(uint32_t type, simdisk::Lba lba, uint64_t arg,
                                      std::span<const std::byte> payload) {
  const uint64_t total = RecordBytes(payload.size(), nvm_->cache_line_bytes());
  record_buf_.assign(total, std::byte{0});
  std::span<std::byte> rec(record_buf_);
  common::StoreLe<uint32_t>(rec, 0, kRecordMagic);
  common::StoreLe<uint32_t>(rec, 4, type);
  common::StoreLe<uint64_t>(rec, 8, epoch_);
  common::StoreLe<uint64_t>(rec, 16, seq_ + 1);
  common::StoreLe<uint64_t>(rec, 24, lba);
  common::StoreLe<uint64_t>(rec, 32, arg);
  common::StoreLe<uint32_t>(rec, 40, common::Crc32c(payload));
  common::StoreLe<uint32_t>(
      rec, 44, common::Crc32c(std::span<const std::byte>(rec.data(), 44)));
  if (!payload.empty()) {
    std::memcpy(record_buf_.data() + kHeaderBytes, payload.data(), payload.size());
  }
  RETURN_IF_ERROR(nvm_->WriteBytes(tail_, record_buf_));
  ++seq_;
  records_.push_back(LogRecord{seq_, lba,
                               type == kTypeData ? payload.size() / sector_bytes_ : 0, tail_,
                               total});
  tail_ += total;
  return common::OkStatus();
}

common::Status NvmStage::StagePut(simdisk::Lba lba, std::span<const std::byte> in) {
  const uint64_t sectors = in.size() / sector_bytes_;
  const uint64_t total = RecordBytes(in.size(), nvm_->cache_line_bytes());
  if (tail_ + total > nvm_->size_bytes()) {
    ++stats_.overflow_drains;
    RETURN_IF_ERROR(Drain());  // Resets the log; the record now fits from the start.
  }
  const uint64_t record_offset = tail_;
  RETURN_IF_ERROR(AppendRecord(kTypeData, lba, in.size(), in));
  for (uint64_t s = 0; s < sectors; ++s) {
    overlay_[lba + s] =
        OverlaySector{seq_, record_offset + kHeaderBytes + s * sector_bytes_};
  }
  ++stats_.staged_writes;
  stats_.staged_bytes += in.size();
  if (tracer_ != nullptr) {
    tracer_->Annotate(obs::EventType::kNvmStage, obs::Layer::kNvm, lba, sectors);
  }
  return common::OkStatus();
}

common::Status NvmStage::AppendInvalidate(simdisk::Lba lba, uint64_t sectors) {
  const uint64_t total = RecordBytes(0, nvm_->cache_line_bytes());
  if (tail_ + total > nvm_->size_bytes()) {
    // No room for even a tombstone: drain resets the log, leaving nothing to invalidate.
    ++stats_.overflow_drains;
    return Drain();
  }
  RETURN_IF_ERROR(AppendRecord(kTypeInvalidate, lba, sectors, {}));
  ++stats_.invalidates;
  if (tracer_ != nullptr) {
    tracer_->Annotate(obs::EventType::kNvmInvalidate, obs::Layer::kNvm, lba, sectors);
  }
  return common::OkStatus();
}

common::Status NvmStage::DestageSectors(
    const std::vector<std::pair<simdisk::Lba, uint64_t>>& live) {
  // Coalesce into contiguous-LBA runs; a run's payload is gathered from the NVM copies (one
  // charged read per contiguous NVM extent inside the run).
  std::vector<std::byte> run;
  size_t i = 0;
  while (i < live.size()) {
    size_t j = i + 1;
    while (j < live.size() && live[j].first == live[j - 1].first + 1) {
      ++j;
    }
    const uint64_t run_sectors = j - i;
    run.resize(run_sectors * sector_bytes_);
    size_t k = i;
    while (k < j) {
      size_t m = k + 1;
      while (m < j && live[m].second == live[m - 1].second + sector_bytes_) {
        ++m;
      }
      RETURN_IF_ERROR(nvm_->ReadBytes(
          live[k].second,
          std::span<std::byte>(run).subspan((k - i) * sector_bytes_,
                                            (m - k) * sector_bytes_)));
      k = m;
    }
    RETURN_IF_ERROR(backing_->Write(live[i].first, run));
    stats_.destaged_sectors += run_sectors;
    i = j;
  }
  return common::OkStatus();
}

common::Status NvmStage::ResolveConflicts(simdisk::Lba lba, uint64_t sectors) {
  std::vector<std::pair<simdisk::Lba, uint64_t>> hit;
  for (auto it = overlay_.lower_bound(lba); it != overlay_.end() && it->first < lba + sectors;
       ++it) {
    hit.emplace_back(it->first, it->second.offset);
  }
  if (hit.empty()) {
    return common::OkStatus();
  }
  // Invariant 3 (see header): destage + Flush + invalidate, in that order, before the caller
  // touches the backing device.
  RETURN_IF_ERROR(DestageSectors(hit));
  RETURN_IF_ERROR(backing_->Flush());
  RETURN_IF_ERROR(AppendInvalidate(lba, sectors));
  for (const auto& [sector, offset] : hit) {
    overlay_.erase(sector);
  }
  stats_.conflict_destages += hit.size();
  return common::OkStatus();
}

common::Status NvmStage::Write(simdisk::Lba lba, std::span<const std::byte> in) {
  RETURN_IF_ERROR(CheckRange(lba, in.size(), "NvmStage::Write"));
  const uint64_t sectors = in.size() / sector_bytes_;
  obs::SpanScope span(tracer_, obs::Layer::kNvm, lba, sectors, obs::SpanKind::kWrite);
  if (sectors <= config_.stage_threshold_sectors &&
      RecordBytes(in.size(), nvm_->cache_line_bytes()) + kSuperblockBytes <=
          nvm_->size_bytes()) {
    return StagePut(lba, in);
  }
  ++stats_.direct_writes;
  RETURN_IF_ERROR(ResolveConflicts(lba, sectors));
  return backing_->Write(lba, in);
}

common::Status NvmStage::Read(simdisk::Lba lba, std::span<std::byte> out) {
  RETURN_IF_ERROR(CheckRange(lba, out.size(), "NvmStage::Read"));
  const uint64_t sectors = out.size() / sector_bytes_;
  obs::SpanScope span(tracer_, obs::Layer::kNvm, lba, sectors, obs::SpanKind::kRead);
  std::vector<std::pair<simdisk::Lba, uint64_t>> hit;
  for (auto it = overlay_.lower_bound(lba); it != overlay_.end() && it->first < lba + sectors;
       ++it) {
    hit.emplace_back(it->first, it->second.offset);
  }
  if (hit.size() < sectors) {
    // Some sectors live on the backing device; read the whole range there and patch the
    // staged sectors over it (the backing copy of a staged sector may be stale).
    RETURN_IF_ERROR(backing_->Read(lba, out));
  }
  size_t i = 0;
  while (i < hit.size()) {
    // One charged NVM read per contiguous (sector, offset) run.
    size_t j = i + 1;
    while (j < hit.size() && hit[j].first == hit[j - 1].first + 1 &&
           hit[j].second == hit[j - 1].second + sector_bytes_) {
      ++j;
    }
    RETURN_IF_ERROR(nvm_->ReadBytes(
        hit[i].second, out.subspan((hit[i].first - lba) * sector_bytes_,
                                   (j - i) * sector_bytes_)));
    i = j;
  }
  stats_.read_hit_sectors += hit.size();
  return common::OkStatus();
}

common::StatusOr<uint64_t> NvmStage::DestageStep() {
  if (records_.empty()) {
    return uint64_t{0};
  }
  const uint64_t batch =
      std::min<uint64_t>(records_.size(), std::max<uint32_t>(1, config_.destage_batch_records));
  obs::SpanScope span(tracer_, obs::Layer::kNvm, head_, batch, obs::SpanKind::kOther);
  if (tracer_ != nullptr) {
    tracer_->Annotate(obs::EventType::kNvmDestageStart, obs::Layer::kNvm, records_.size(), 0);
  }
  // Live sectors owned by the batch's records, ascending by LBA for run coalescing.
  std::vector<std::pair<simdisk::Lba, uint64_t>> live;
  for (uint64_t r = 0; r < batch; ++r) {
    const LogRecord& rec = records_[r];
    for (uint64_t s = 0; s < rec.sectors; ++s) {
      const auto it = overlay_.find(rec.lba + s);
      if (it != overlay_.end() && it->second.seq == rec.seq) {
        live.emplace_back(it->first, it->second.offset);
      }
    }
  }
  std::sort(live.begin(), live.end());
  uint64_t destaged_sectors = live.size();
  if (!live.empty()) {
    RETURN_IF_ERROR(DestageSectors(live));
    // The destaged bytes must be durable on the backing device before the head advance lets
    // the log forget them (invariant 2 in the header).
    RETURN_IF_ERROR(backing_->Flush());
    for (const auto& [sector, offset] : live) {
      overlay_.erase(sector);
    }
  }
  for (uint64_t r = 0; r < batch; ++r) {
    records_.pop_front();
  }
  head_ = records_.empty() ? tail_ : records_.front().offset;
  stats_.destaged_records += batch;
  ++stats_.destage_batches;
  if (records_.empty()) {
    RETURN_IF_ERROR(ResetLog());
  } else {
    RETURN_IF_ERROR(WriteSuperblock());
  }
  if (tracer_ != nullptr) {
    tracer_->Annotate(obs::EventType::kNvmDestageEnd, obs::Layer::kNvm, batch,
                      destaged_sectors);
  }
  return batch;
}

common::Status NvmStage::Drain() {
  ++stats_.drains;
  while (!records_.empty()) {
    RETURN_IF_ERROR(DestageStep().status());
  }
  return common::OkStatus();
}

common::StatusOr<uint64_t> NvmStage::RunDestageBurst(common::Duration budget) {
  const common::Time deadline = clock()->Now() + budget;
  uint64_t retired = 0;
  while (!records_.empty() && clock()->Now() < deadline) {
    ASSIGN_OR_RETURN(const uint64_t n, DestageStep());
    retired += n;
  }
  return retired;
}

common::Status NvmStage::Trim(simdisk::Lba lba, uint64_t sectors) {
  if (vld_ == nullptr) {
    return common::FailedPrecondition("NvmStage::Trim: backing device is not a Vld");
  }
  obs::SpanScope span(tracer_, obs::Layer::kNvm, lba, sectors, obs::SpanKind::kOther);
  // Conservative: destage the staged copies before trimming, so an acknowledged staged write
  // is never left with its only durable copy invalidated while the trim is still in flight
  // across a crash. (A cheaper trim-tombstone record is possible future work.)
  RETURN_IF_ERROR(ResolveConflicts(lba, sectors));
  return vld_->Trim(lba, sectors);
}

common::Status NvmStage::WriteAtomic(std::span<const Vld::AtomicWrite> writes) {
  if (vld_ == nullptr) {
    return common::FailedPrecondition("NvmStage::WriteAtomic: backing device is not a Vld");
  }
  obs::SpanScope span(tracer_, obs::Layer::kNvm, writes.empty() ? 0 : writes.front().lba,
                      writes.size(), obs::SpanKind::kWrite);
  for (const Vld::AtomicWrite& w : writes) {
    RETURN_IF_ERROR(ResolveConflicts(w.lba, w.data.size() / sector_bytes_));
  }
  ++stats_.direct_writes;
  return vld_->WriteAtomic(writes);
}

common::StatusOr<uint64_t> NvmStage::SubmitWrite(simdisk::Lba lba,
                                                 std::span<const std::byte> in) {
  if (vld_ == nullptr) {
    return common::FailedPrecondition("NvmStage::SubmitWrite: backing device is not a Vld");
  }
  RETURN_IF_ERROR(ResolveConflicts(lba, in.size() / sector_bytes_));
  ++stats_.direct_writes;
  return vld_->SubmitWrite(lba, in);
}

common::StatusOr<uint64_t> NvmStage::SubmitRead(simdisk::Lba lba, uint64_t sectors) {
  if (vld_ == nullptr) {
    return common::FailedPrecondition("NvmStage::SubmitRead: backing device is not a Vld");
  }
  // Read-triggered destage: the queued read must observe staged data, and the queue serves
  // from the backing device only, so overlapping staged sectors are destaged (and durably
  // flushed) before the read is submitted.
  RETURN_IF_ERROR(ResolveConflicts(lba, sectors));
  return vld_->SubmitRead(lba, sectors);
}

common::StatusOr<std::vector<Vld::QueuedCompletion>> NvmStage::FlushQueue() {
  if (vld_ == nullptr) {
    return common::FailedPrecondition("NvmStage::FlushQueue: backing device is not a Vld");
  }
  return vld_->FlushQueue();
}

void NvmStage::RegisterTimelineProbes(obs::Timeline& timeline, const std::string& prefix) const {
  timeline.AddGauge(prefix + "staged_sectors", [this] { return overlay_.size(); });
  timeline.AddGauge(prefix + "log_bytes", [this] { return tail_ - head_; });
  timeline.AddGauge(prefix + "log_records", [this] { return records_.size(); });
  timeline.AddCounter(prefix + "staged_writes", [this] { return stats_.staged_writes; });
  timeline.AddCounter(prefix + "destage_batches", [this] { return stats_.destage_batches; });
  timeline.AddCounter(prefix + "destaged_sectors", [this] { return stats_.destaged_sectors; });
  timeline.AddCounter(prefix + "invalidates", [this] { return stats_.invalidates; });
  timeline.AddCounter(prefix + "drains", [this] { return stats_.drains; });
}

common::StatusOr<NvmStageRecoveryInfo> NvmStage::Recover() {
  overlay_.clear();
  records_.clear();
  NvmStageRecoveryInfo info;
  std::vector<std::byte> sb(kSuperblockBytes);
  RETURN_IF_ERROR(nvm_->ReadBytes(0, sb));
  const uint64_t magic = common::LoadLe<uint64_t>(sb, 0);
  const uint32_t sb_crc = common::LoadLe<uint32_t>(sb, 24);
  if (magic != kSuperMagic ||
      sb_crc != common::Crc32c(std::span<const std::byte>(sb.data(), 24))) {
    // Fresh (or unformatted) NVM: start an empty log. The superblock itself is one cache
    // line, so a crash can never leave it torn — an invalid superblock means never formatted.
    RETURN_IF_ERROR(Format());
    info.epoch = epoch_;
    return info;
  }
  epoch_ = common::LoadLe<uint64_t>(sb, 8);
  head_ = common::LoadLe<uint64_t>(sb, 16);
  tail_ = head_;
  seq_ = 0;
  const uint64_t size = nvm_->size_bytes();
  std::vector<std::byte> header(kHeaderBytes);
  std::vector<std::byte> payload;
  uint64_t off = head_;
  while (off + kHeaderBytes <= size) {
    RETURN_IF_ERROR(nvm_->ReadBytes(off, header));
    const uint32_t magic32 = common::LoadLe<uint32_t>(header, 0);
    const uint32_t type = common::LoadLe<uint32_t>(header, 4);
    const uint64_t rec_epoch = common::LoadLe<uint64_t>(header, 8);
    const uint64_t seq = common::LoadLe<uint64_t>(header, 16);
    const uint64_t lba = common::LoadLe<uint64_t>(header, 24);
    const uint64_t arg = common::LoadLe<uint64_t>(header, 32);
    const uint32_t payload_crc = common::LoadLe<uint32_t>(header, 40);
    const uint32_t header_crc = common::LoadLe<uint32_t>(header, 44);
    // The first live record may carry any sequence number (destage advances the head past
    // retired records); after it, sequence numbers must be strictly contiguous.
    if (magic32 != kRecordMagic || rec_epoch != epoch_ ||
        (off != head_ && seq != seq_ + 1) ||
        (type != kTypeData && type != kTypeInvalidate) ||
        header_crc != common::Crc32c(std::span<const std::byte>(header.data(), 44))) {
      break;  // End of the valid log (clean end, stale epoch, or a torn header).
    }
    if (type == kTypeData) {
      if (arg == 0 || arg % sector_bytes_ != 0 ||
          RecordBytes(arg, nvm_->cache_line_bytes()) > size - off ||
          !InRange(lba, arg / sector_bytes_)) {
        break;
      }
      payload.resize(arg);
      RETURN_IF_ERROR(nvm_->ReadBytes(off + kHeaderBytes, payload));
      if (payload_crc != common::Crc32c(payload)) {
        // A valid header with a damaged payload: the append tore mid-payload. Drop it (and
        // everything after — appends are strictly ordered).
        info.torn_tail_dropped = true;
        break;
      }
      const uint64_t sectors = arg / sector_bytes_;
      const uint64_t total = RecordBytes(arg, nvm_->cache_line_bytes());
      seq_ = seq;
      records_.push_back(LogRecord{seq_, lba, sectors, off, total});
      for (uint64_t s = 0; s < sectors; ++s) {
        overlay_[lba + s] = OverlaySector{seq_, off + kHeaderBytes + s * sector_bytes_};
      }
      ++info.data_records;
      off += total;
    } else {
      if (!InRange(lba, arg) || payload_crc != 0) {
        break;
      }
      const uint64_t total = RecordBytes(0, nvm_->cache_line_bytes());
      seq_ = seq;
      records_.push_back(LogRecord{seq_, lba, 0, off, total});
      overlay_.erase(overlay_.lower_bound(lba), overlay_.lower_bound(lba + arg));
      ++info.invalidate_records;
      off += total;
    }
  }
  tail_ = off;
  info.staged_sectors = overlay_.size();
  info.log_bytes = tail_ - head_;
  info.epoch = epoch_;
  return info;
}

}  // namespace vlog::core
