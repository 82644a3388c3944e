#include "src/crashsim/shadow_vld.h"

#include <algorithm>
#include <cstring>

#include "src/nvm/nvm_stage.h"

namespace vlog::crashsim {

ShadowVld::ShadowVld(core::Vld* vld, const WriteTrace* trace)
    : vld_(vld),
      trace_(trace),
      block_bytes_(vld->block_sectors() * vld->SectorBytes()),
      shadow_(vld->logical_blocks()) {}

void ShadowVld::AttachStage(core::NvmStage* stage, const NvmTrace* nvm_trace) {
  stage_ = stage;
  nvm_trace_ = nvm_trace;
}

std::vector<std::byte> ShadowVld::Overlay(uint32_t block, uint32_t first_sector,
                                          uint64_t sector_count,
                                          std::span<const std::byte> data) const {
  std::vector<std::byte> content =
      shadow_[block].empty() ? std::vector<std::byte>(block_bytes_) : shadow_[block];
  const uint32_t sector_bytes = vld_->SectorBytes();
  std::memcpy(content.data() + static_cast<size_t>(first_sector) * sector_bytes, data.data(),
              sector_count * sector_bytes);
  return content;
}

void ShadowVld::RecordOp(std::vector<uint32_t> blocks,
                         std::vector<std::vector<std::byte>> after) {
  Op op;
  op.end_writes = trace_->size();
  op.nvm_end = nvm_trace_ != nullptr ? nvm_trace_->size() : 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    // A block touched twice in one op (legal in WriteAtomic) keeps its pre-op `before` and the
    // last `after`: intermediate versions are never observable across a crash.
    const auto it = std::find(op.blocks.begin(), op.blocks.end(), blocks[i]);
    if (it != op.blocks.end()) {
      op.after[static_cast<size_t>(it - op.blocks.begin())] = std::move(after[i]);
      continue;
    }
    op.blocks.push_back(blocks[i]);
    op.before.push_back(shadow_[blocks[i]]);
    op.after.push_back(std::move(after[i]));
  }
  for (size_t i = 0; i < op.blocks.size(); ++i) {
    shadow_[op.blocks[i]] = op.after[i];
  }
  ops_.push_back(std::move(op));
}

void ShadowVld::RecordExtents(std::span<const core::Vld::AtomicWrite> writes) {
  const uint32_t bs = vld_->block_sectors();
  std::vector<uint32_t> blocks;
  std::vector<std::vector<std::byte>> after;
  for (const core::Vld::AtomicWrite& w : writes) {
    for (size_t off = 0; off < w.data.size(); off += block_bytes_) {
      blocks.push_back(static_cast<uint32_t>(w.lba / bs + off / block_bytes_));
      after.emplace_back(w.data.begin() + off, w.data.begin() + off + block_bytes_);
    }
  }
  RecordOp(std::move(blocks), std::move(after));
}

common::Status ShadowVld::Read(simdisk::Lba lba, std::span<std::byte> out) {
  RETURN_IF_ERROR(stage_ != nullptr ? stage_->Read(lba, out) : vld_->Read(lba, out));
  // Verify against the shadow: a divergence while the device is healthy is a live bug, better
  // caught here than blamed on a crash point later.
  const uint32_t sector_bytes = SectorBytes();
  const uint32_t bs = vld_->block_sectors();
  const uint64_t sectors = out.size() / sector_bytes;
  for (uint64_t s = 0; s < sectors; ++s) {
    const uint32_t block = static_cast<uint32_t>((lba + s) / bs);
    const uint32_t offset = static_cast<uint32_t>((lba + s) % bs);
    const std::span<const std::byte> got = out.subspan(s * sector_bytes, sector_bytes);
    const std::vector<std::byte>& expect = shadow_[block];
    const bool match =
        expect.empty()
            ? std::all_of(got.begin(), got.end(), [](std::byte b) { return b == std::byte{0}; })
            : std::memcmp(got.data(), expect.data() + static_cast<size_t>(offset) * sector_bytes,
                          sector_bytes) == 0;
    if (!match) {
      return common::Corruption("ShadowVld: read diverged from shadow at logical sector " +
                                std::to_string(lba + s));
    }
  }
  return common::OkStatus();
}

common::Status ShadowVld::Write(simdisk::Lba lba, std::span<const std::byte> in) {
  RETURN_IF_ERROR(stage_ != nullptr ? stage_->Write(lba, in) : vld_->Write(lba, in));
  const uint32_t sector_bytes = SectorBytes();
  const uint32_t bs = vld_->block_sectors();
  const uint64_t sectors = in.size() / sector_bytes;
  const uint32_t first = static_cast<uint32_t>(lba / bs);
  const uint32_t last = static_cast<uint32_t>((lba + sectors - 1) / bs);
  std::vector<uint32_t> blocks;
  std::vector<std::vector<std::byte>> after;
  for (uint32_t b = first; b <= last; ++b) {
    const simdisk::Lba block_start = static_cast<simdisk::Lba>(b) * bs;
    const uint64_t in_begin = std::max<simdisk::Lba>(lba, block_start) - lba;
    const uint64_t in_end = std::min<simdisk::Lba>(lba + sectors, block_start + bs) - lba;
    blocks.push_back(b);
    after.push_back(Overlay(b, static_cast<uint32_t>(lba + in_begin - block_start),
                            in_end - in_begin,
                            in.subspan(in_begin * sector_bytes,
                                       (in_end - in_begin) * sector_bytes)));
  }
  RecordOp(std::move(blocks), std::move(after));
  return common::OkStatus();
}

common::Status ShadowVld::Trim(simdisk::Lba lba, uint64_t sectors) {
  RETURN_IF_ERROR(stage_ != nullptr ? stage_->Trim(lba, sectors) : vld_->Trim(lba, sectors));
  // Mirror Vld::Trim: only whole covered blocks are dropped; partial edges are ignored.
  const uint32_t bs = vld_->block_sectors();
  const uint32_t first = static_cast<uint32_t>((lba + bs - 1) / bs);
  const uint32_t end = static_cast<uint32_t>((lba + sectors) / bs);
  std::vector<uint32_t> blocks;
  std::vector<std::vector<std::byte>> after;
  for (uint32_t b = first; b < end; ++b) {
    blocks.push_back(b);
    after.emplace_back();  // Trimmed: reads back as zeros.
  }
  RecordOp(std::move(blocks), std::move(after));
  return common::OkStatus();
}

common::Status ShadowVld::WriteAtomic(std::span<const core::Vld::AtomicWrite> writes) {
  RETURN_IF_ERROR(stage_ != nullptr ? stage_->WriteAtomic(writes) : vld_->WriteAtomic(writes));
  RecordExtents(writes);
  return common::OkStatus();
}

common::Status ShadowVld::WriteQueuedBatch(std::span<const core::Vld::AtomicWrite> writes) {
  return QueuedMixedBatch(writes, {});
}

common::Status ShadowVld::QueuedMixedBatch(std::span<const core::Vld::AtomicWrite> writes,
                                           std::span<const uint32_t> read_blocks) {
  const uint32_t bs = vld_->block_sectors();
  struct PendingRead {
    uint64_t id = 0;
    uint32_t block = 0;
    size_t writes_before = 0;  // This batch's writes submitted ahead of the read.
  };
  std::vector<PendingRead> reads;
  reads.reserve(read_blocks.size());
  size_t wi = 0;
  size_t ri = 0;
  while (wi < writes.size() || ri < read_blocks.size()) {
    if (wi < writes.size()) {
      // Staged submits resolve overlay conflicts (destage + flush + invalidate) at submit
      // time, so any media writes they emit land before trace_before below.
      RETURN_IF_ERROR((stage_ != nullptr ? stage_->SubmitWrite(writes[wi].lba, writes[wi].data)
                                         : vld_->SubmitWrite(writes[wi].lba, writes[wi].data))
                          .status());
      ++wi;
    }
    if (ri < read_blocks.size()) {
      const simdisk::Lba read_lba = static_cast<simdisk::Lba>(read_blocks[ri]) * bs;
      ASSIGN_OR_RETURN(const uint64_t id, stage_ != nullptr ? stage_->SubmitRead(read_lba, bs)
                                                            : vld_->SubmitRead(read_lba, bs));
      reads.push_back({id, read_blocks[ri], wi});
      ++ri;
    }
  }
  const uint64_t trace_before = trace_->size();
  ASSIGN_OR_RETURN(const std::vector<core::Vld::QueuedCompletion> done,
                   stage_ != nullptr ? stage_->FlushQueue() : vld_->FlushQueue());
  if (writes.empty() && trace_->size() != trace_before) {
    return common::Corruption("QueuedMixedBatch: read-only batch emitted media writes");
  }
  for (const PendingRead& r : reads) {
    // Expected bytes: the shadow, overlaid with the last earlier-submitted write of this batch
    // that covers the block. Later-submitted writes commit with the same batch but must stay
    // invisible to this read.
    std::vector<std::byte> expect =
        shadow_[r.block].empty() ? std::vector<std::byte>(block_bytes_) : shadow_[r.block];
    for (size_t j = 0; j < r.writes_before; ++j) {
      const core::Vld::AtomicWrite& w = writes[j];
      const uint32_t first = static_cast<uint32_t>(w.lba / bs);
      const uint32_t count = static_cast<uint32_t>(w.data.size() / block_bytes_);
      if (r.block >= first && r.block < first + count) {
        const size_t off = static_cast<size_t>(r.block - first) * block_bytes_;
        expect.assign(w.data.begin() + static_cast<ptrdiff_t>(off),
                      w.data.begin() + static_cast<ptrdiff_t>(off + block_bytes_));
      }
    }
    const core::Vld::QueuedCompletion* c = nullptr;
    for (const core::Vld::QueuedCompletion& d : done) {
      if (d.id == r.id) {
        c = &d;
        break;
      }
    }
    if (c == nullptr || c->is_write) {
      return common::Corruption("QueuedMixedBatch: no read completion for id " +
                                std::to_string(r.id));
    }
    RETURN_IF_ERROR(c->status);
    if (c->data.size() != expect.size() ||
        std::memcmp(c->data.data(), expect.data(), expect.size()) != 0) {
      return common::Corruption("QueuedMixedBatch: queued read of block " +
                                std::to_string(r.block) + " diverged from shadow");
    }
  }
  if (!writes.empty()) {  // Reads dirty nothing: a read-only batch records no op.
    RecordExtents(writes);
  }
  return common::OkStatus();
}

common::Status ShadowVld::Checkpoint() {
  RETURN_IF_ERROR(vld_->Checkpoint());
  RecordOp({}, {});
  return common::OkStatus();
}

common::Status ShadowVld::Park() {
  RETURN_IF_ERROR(vld_->Park());
  RecordOp({}, {});
  return common::OkStatus();
}

void ShadowVld::RunIdle(common::Duration budget) {
  vld_->RunIdle(budget);
  RecordOp({}, {});
}

void ShadowVld::RunGovernedBurst(common::Duration budget, uint32_t target_empty_tracks) {
  vld_->RunGovernedBurst(budget, target_empty_tracks);
  RecordOp({}, {});
}

common::Status ShadowVld::PumpDestage(common::Duration budget) {
  if (stage_ == nullptr) {
    return common::OkStatus();
  }
  RETURN_IF_ERROR(stage_->RunDestageBurst(budget).status());
  RecordOp({}, {});
  return common::OkStatus();
}

common::Status ShadowVld::DrainStage() {
  if (stage_ == nullptr) {
    return common::OkStatus();
  }
  RETURN_IF_ERROR(stage_->Drain());
  RecordOp({}, {});
  return common::OkStatus();
}

}  // namespace vlog::crashsim
