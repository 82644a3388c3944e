#include "src/array/vld_array.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/core/map_sector.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"

namespace vlog::array {

void VldArray::RegisterTimelineProbes(obs::Timeline& timeline) const {
  timeline.AddGauge("array.queued_requests",
                    [this] { return static_cast<uint64_t>(queue_.size()); });
  timeline.AddGauge("array.healthy_members",
                    [this] { return static_cast<uint64_t>(healthy_members()); });
  for (uint32_t m = 0; m < member_count(); ++m) {
    members_[m]->RegisterTimelineProbes(timeline, "m" + std::to_string(m) + ".");
  }
}

VldArray::VldArray(std::vector<core::Vld*> members, VldArrayConfig config)
    : members_(std::move(members)), config_(config) {
  assert(!members_.empty());
  assert(config_.stripe_blocks > 0);
  block_sectors_ = members_[0]->block_sectors();
  uint64_t min_sectors = members_[0]->SectorCount();
  queue_depth_ = members_[0]->queue_depth();
  for (const core::Vld* m : members_) {
    assert(m->block_sectors() == block_sectors_);
    min_sectors = std::min(min_sectors, m->SectorCount());
    queue_depth_ = std::min(queue_depth_, m->queue_depth());
  }
  chunk_sectors_ = static_cast<uint64_t>(config_.stripe_blocks) * block_sectors_;
  chunks_per_member_ = min_sectors / chunk_sectors_;
  mirrored_sectors_ = min_sectors;
  failed_.assign(members_.size(), false);
  member_hist_.resize(members_.size());
}

uint64_t VldArray::SectorCount() const {
  return config_.mode == ArrayMode::kStriped
             ? members_.size() * chunks_per_member_ * chunk_sectors_
             : mirrored_sectors_;
}

uint32_t VldArray::SectorBytes() const { return members_[0]->SectorBytes(); }

uint32_t VldArray::healthy_members() const {
  uint32_t n = 0;
  for (const bool f : failed_) {
    n += f ? 0 : 1;
  }
  return n;
}

common::Status VldArray::MarkFailed(uint32_t member) {
  if (member >= members_.size()) {
    return common::InvalidArgument("array: no such member");
  }
  failed_[member] = true;
  if (config_.mode == ArrayMode::kMirrored && healthy_members() == 0) {
    return common::FailedPrecondition("array: every replica is failed");
  }
  return common::OkStatus();
}

common::Status VldArray::MarkHealthy(uint32_t member) {
  if (member >= members_.size()) {
    return common::InvalidArgument("array: no such member");
  }
  failed_[member] = false;
  return common::OkStatus();
}

void VldArray::EnterMember(uint32_t m) {
  // The member ran "in parallel" since the array last touched it; its next activity starts at
  // the array's current time. For N = 1 this is always a no-op (the member defines array time).
  members_[m]->disk().clock()->AdvanceTo(now_);
  if (obs::TraceRecorder* tracer = members_[m]->disk().tracer(); tracer != nullptr) {
    tracer->set_disk_index(m);
  }
}

void VldArray::LeaveMember(uint32_t m, common::Time* barrier) {
  *barrier = std::max(*barrier, members_[m]->disk().clock()->Now());
  if (obs::TraceRecorder* tracer = members_[m]->disk().tracer(); tracer != nullptr) {
    tracer->set_disk_index(0);
  }
}

common::StatusOr<uint32_t> VldArray::PickReadMember() {
  for (size_t k = 0; k < members_.size(); ++k) {
    const uint32_t m = read_rr_ % static_cast<uint32_t>(members_.size());
    ++read_rr_;
    if (!failed_[m]) {
      return m;
    }
  }
  return common::FailedPrecondition("array: every replica is failed");
}

std::vector<VldArray::Run> VldArray::SplitStriped(simdisk::Lba lba, uint64_t sectors) const {
  std::vector<Run> runs;
  uint64_t done = 0;
  while (done < sectors) {
    const uint64_t s = lba + done;
    const uint64_t chunk = s / chunk_sectors_;
    const uint64_t within = s % chunk_sectors_;
    const uint64_t len = std::min(sectors - done, chunk_sectors_ - within);
    Run run;
    run.member = static_cast<uint32_t>(chunk % members_.size());
    run.member_lba = (chunk / members_.size()) * chunk_sectors_ + within;
    run.offset = done;
    run.sectors = len;
    // Merge with the previous run when the extent stays on the same member and lands on the
    // member-contiguous next chunk (every members_.size()-th array chunk) — one member command
    // instead of one per chunk.
    if (!runs.empty() && runs.back().member == run.member &&
        runs.back().member_lba + runs.back().sectors == run.member_lba) {
      runs.back().sectors += len;
    } else {
      runs.push_back(run);
    }
    done += len;
  }
  return runs;
}

common::Status VldArray::CheckStriped(const std::vector<Run>& runs) const {
  for (const Run& r : runs) {
    if (failed_[r.member]) {
      return common::FailedPrecondition("array: striped member failed, no redundancy");
    }
  }
  return common::OkStatus();
}

common::Status VldArray::Write(simdisk::Lba lba, std::span<const std::byte> in) {
  RETURN_IF_ERROR(CheckRange(lba, in.size(), "array write"));
  const uint64_t sectors = in.size() / SectorBytes();
  common::Time barrier = now_;
  if (config_.mode == ArrayMode::kStriped) {
    const std::vector<Run> runs = SplitStriped(lba, sectors);
    RETURN_IF_ERROR(CheckStriped(runs));
    for (const Run& r : runs) {
      EnterMember(r.member);
      const common::Status st = members_[r.member]->Write(
          r.member_lba, in.subspan(r.offset * SectorBytes(), r.sectors * SectorBytes()));
      LeaveMember(r.member, &barrier);
      RETURN_IF_ERROR(st);
    }
  } else {
    if (healthy_members() == 0) {
      return common::FailedPrecondition("array: every replica is failed");
    }
    for (uint32_t m = 0; m < members_.size(); ++m) {
      if (failed_[m]) {
        continue;
      }
      EnterMember(m);
      const common::Status st = members_[m]->Write(lba, in);
      LeaveMember(m, &barrier);
      RETURN_IF_ERROR(st);
    }
  }
  // The cross-disk barrier: the write is acknowledged only once every touched member finished.
  now_ = barrier;
  return common::OkStatus();
}

common::Status VldArray::Read(simdisk::Lba lba, std::span<std::byte> out) {
  RETURN_IF_ERROR(CheckRange(lba, out.size(), "array read"));
  const uint64_t sectors = out.size() / SectorBytes();
  common::Time barrier = now_;
  if (config_.mode == ArrayMode::kStriped) {
    const std::vector<Run> runs = SplitStriped(lba, sectors);
    RETURN_IF_ERROR(CheckStriped(runs));
    for (const Run& r : runs) {
      EnterMember(r.member);
      const common::Status st = members_[r.member]->Read(
          r.member_lba, out.subspan(r.offset * SectorBytes(), r.sectors * SectorBytes()));
      LeaveMember(r.member, &barrier);
      RETURN_IF_ERROR(st);
    }
  } else {
    ASSIGN_OR_RETURN(const uint32_t m, PickReadMember());
    EnterMember(m);
    const common::Status st = members_[m]->Read(lba, out);
    LeaveMember(m, &barrier);
    RETURN_IF_ERROR(st);
  }
  now_ = barrier;
  return common::OkStatus();
}

common::Status VldArray::Flush() {
  common::Time barrier = now_;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (failed_[m]) {
      if (config_.mode == ArrayMode::kStriped) {
        return common::FailedPrecondition("array: striped member failed, no redundancy");
      }
      continue;
    }
    EnterMember(m);
    const common::Status st = members_[m]->Flush();
    LeaveMember(m, &barrier);
    RETURN_IF_ERROR(st);
  }
  now_ = barrier;
  return common::OkStatus();
}

common::Status VldArray::Format() {
  common::Time barrier = now_;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    EnterMember(m);
    const common::Status st = members_[m]->Format();
    LeaveMember(m, &barrier);
    RETURN_IF_ERROR(st);
  }
  now_ = barrier;
  return common::OkStatus();
}

common::StatusOr<uint64_t> VldArray::SubmitWrite(simdisk::Lba lba,
                                                 std::span<const std::byte> in) {
  if (queue_.size() >= queue_depth_) {
    return common::FailedPrecondition("array queue: full");
  }
  RETURN_IF_ERROR(CheckRange(lba, in.size(), "array SubmitWrite"));
  Pending p;
  p.id = next_id_++;
  p.is_write = true;
  p.lba = lba;
  p.sectors = in.size() / SectorBytes();
  p.submit_time = now_;
  p.data.assign(in.begin(), in.end());
  queue_.push_back(std::move(p));
  return queue_.back().id;
}

common::StatusOr<uint64_t> VldArray::SubmitRead(simdisk::Lba lba, uint64_t sectors) {
  if (queue_.size() >= queue_depth_) {
    return common::FailedPrecondition("array queue: full");
  }
  if (sectors == 0 || !InRange(lba, sectors)) {
    return common::InvalidArgument("array: SubmitRead: bad range");
  }
  Pending p;
  p.id = next_id_++;
  p.is_write = false;
  p.lba = lba;
  p.sectors = sectors;
  p.submit_time = now_;
  queue_.push_back(std::move(p));
  return queue_.back().id;
}

common::StatusOr<std::vector<VldArray::QueuedCompletion>> VldArray::FlushQueue() {
  std::vector<QueuedCompletion> completions;
  if (queue_.empty()) {
    return completions;
  }
  std::vector<Pending> batch;
  batch.swap(queue_);

  // Split every request into member runs. Health is evaluated here, not at submission, so a
  // member failed while requests were queued is already avoided (mirrored) or reported
  // (striped) before any member sees a command.
  for (Pending& p : batch) {
    if (config_.mode == ArrayMode::kStriped) {
      p.runs = SplitStriped(p.lba, p.sectors);
      RETURN_IF_ERROR(CheckStriped(p.runs));
    } else if (p.is_write) {
      if (healthy_members() == 0) {
        return common::FailedPrecondition("array: every replica is failed");
      }
      for (uint32_t m = 0; m < members_.size(); ++m) {
        if (!failed_[m]) {
          p.runs.push_back({m, p.lba, 0, p.sectors});
        }
      }
    } else {
      ASSIGN_OR_RETURN(const uint32_t m, PickReadMember());
      p.runs.push_back({m, p.lba, 0, p.sectors});
    }
  }

  // Every run must find a free slot in its member's queue before the first is submitted: a
  // member that refused a run halfway through the fan-out would keep the runs before it queued,
  // and every later batch would meet its full queue. The refused batch is dropped whole.
  std::vector<size_t> runs_on(members_.size(), 0);
  for (const Pending& p : batch) {
    for (const Run& r : p.runs) {
      ++runs_on[r.member];
    }
  }
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (members_[m]->QueuedRequests() + runs_on[m] > members_[m]->queue_depth()) {
      return common::FailedPrecondition("array: batch overflows a member queue");
    }
  }

  // Submit member runs in array submission order, so every member's local batch preserves the
  // array's hazard and RAW-forwarding semantics. Submission performs no media work.
  for (Pending& p : batch) {
    for (const Run& r : p.runs) {
      EnterMember(r.member);
      common::StatusOr<uint64_t> id =
          p.is_write
              ? members_[r.member]->SubmitWrite(
                    r.member_lba,
                    std::span<const std::byte>(p.data).subspan(r.offset * SectorBytes(),
                                                               r.sectors * SectorBytes()))
              : members_[r.member]->SubmitRead(r.member_lba, r.sectors);
      if (obs::TraceRecorder* tracer = members_[r.member]->disk().tracer(); tracer != nullptr) {
        tracer->set_disk_index(0);
      }
      RETURN_IF_ERROR(id.status());
      p.run_ids.push_back(*id);
    }
  }

  // The cross-disk group commit: one FlushQueue — one queue batch, one packed virtual-log
  // commit — per touched member, however many array requests fanned out to it.
  std::vector<bool> touched(members_.size(), false);
  for (const Pending& p : batch) {
    for (const Run& r : p.runs) {
      touched[r.member] = true;
    }
  }
  std::vector<std::vector<core::Vld::QueuedCompletion>> member_done(members_.size());
  common::Time barrier = now_;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (!touched[m]) {
      continue;
    }
    EnterMember(m);
    auto done = members_[m]->FlushQueue();
    LeaveMember(m, &barrier);
    RETURN_IF_ERROR(done.status());
    member_done[m] = std::move(*done);
  }
  now_ = barrier;

  // Assemble array completions in submission order. A write acknowledges at the cross-disk
  // barrier over the members it touched; a read completes when its last member run did.
  completions.reserve(batch.size());
  for (Pending& p : batch) {
    QueuedCompletion c;
    c.id = p.id;
    c.is_write = p.is_write;
    c.lba = p.lba;
    c.submit_time = p.submit_time;
    if (!p.is_write) {
      c.data.resize(p.sectors * SectorBytes());
    }
    for (size_t j = 0; j < p.runs.size(); ++j) {
      const Run& r = p.runs[j];
      const core::Vld::QueuedCompletion* mc = nullptr;
      for (const core::Vld::QueuedCompletion& cand : member_done[r.member]) {
        if (cand.id == p.run_ids[j]) {
          mc = &cand;
          break;
        }
      }
      if (mc == nullptr) {
        return common::IoError("array: member completion missing");
      }
      c.complete_time = std::max(c.complete_time, mc->complete_time);
      c.dispatch_time = j == 0 ? mc->dispatch_time : std::min(c.dispatch_time, mc->dispatch_time);
      member_hist_[r.member].Record(mc->complete_time - mc->submit_time);
      if (!mc->status.ok()) {
        if (c.status.ok()) {
          c.status = mc->status;
        }
      } else if (!p.is_write) {
        std::memcpy(c.data.data() + r.offset * SectorBytes(), mc->data.data(),
                    r.sectors * SectorBytes());
      }
    }
    if (!c.status.ok()) {
      c.data.clear();
    }
    latency_hist_.Record(c.Latency());
    completions.push_back(std::move(c));
  }
  return completions;
}

common::StatusOr<ArrayRecoveryInfo> VldArray::Recover() {
  ArrayRecoveryInfo info;
  common::Time barrier = now_;
  // Stitch phase 1: every member enumerates its own virtual log independently. A member that
  // crashed mid-destage rolls back its torn tail here; the array never rolls back across
  // members (striped) — per-member-group atomicity is the invariant the crash sweep checks.
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (failed_[m]) {
      if (config_.mode == ArrayMode::kStriped) {
        return common::FailedPrecondition("array: striped member failed, no redundancy");
      }
      info.members.emplace_back();  // Placeholder: a failed replica is not enumerated.
      continue;
    }
    EnterMember(m);
    auto r = members_[m]->Recover();
    LeaveMember(m, &barrier);
    RETURN_IF_ERROR(r.status());
    info.members.push_back(*r);
  }
  now_ = barrier;
  if (config_.mode == ArrayMode::kStriped) {
    return info;
  }

  // Stitch phase 2 (mirrored): elect the lowest-indexed healthy member authoritative and
  // resynchronize the other replicas to it. Every array-acknowledged write reached all healthy
  // replicas (the acknowledgement is the max commit time), so divergence can only involve
  // writes that were still in flight at the crash — rewriting from the authoritative copy
  // makes each block consistently old or consistently new, never torn across replicas.
  uint32_t auth = 0;
  while (auth < members_.size() && failed_[auth]) {
    ++auth;
  }
  if (auth == members_.size()) {
    return common::FailedPrecondition("array: every replica is failed");
  }
  info.authoritative = auth;
  const uint64_t blocks = mirrored_sectors_ / block_sectors_;
  const uint64_t block_bytes = static_cast<uint64_t>(block_sectors_) * SectorBytes();
  std::vector<std::byte> auth_data(block_bytes);
  std::vector<std::byte> other_data(block_bytes);
  for (uint64_t b = 0; b < blocks; ++b) {
    const bool auth_mapped =
        members_[auth]->logical_map()[b] != core::kUnmappedBlock;
    bool auth_read = false;
    for (uint32_t m = 0; m < members_.size(); ++m) {
      if (m == auth || failed_[m]) {
        continue;
      }
      const bool other_mapped = members_[m]->logical_map()[b] != core::kUnmappedBlock;
      if (!auth_mapped) {
        if (other_mapped) {
          // The replica holds a block the authoritative copy never committed: trim it.
          barrier = now_;
          EnterMember(m);
          const common::Status st =
              members_[m]->Trim(b * block_sectors_, block_sectors_);
          LeaveMember(m, &barrier);
          RETURN_IF_ERROR(st);
          now_ = barrier;
          ++info.trimmed_blocks;
        }
        continue;
      }
      if (!auth_read) {
        barrier = now_;
        EnterMember(auth);
        const common::Status st = members_[auth]->Read(b * block_sectors_, auth_data);
        LeaveMember(auth, &barrier);
        RETURN_IF_ERROR(st);
        now_ = barrier;
        auth_read = true;
      }
      bool stale = !other_mapped;
      if (other_mapped) {
        barrier = now_;
        EnterMember(m);
        const common::Status st = members_[m]->Read(b * block_sectors_, other_data);
        LeaveMember(m, &barrier);
        RETURN_IF_ERROR(st);
        now_ = barrier;
        stale = other_data != auth_data;
      }
      if (stale) {
        barrier = now_;
        EnterMember(m);
        const common::Status st = members_[m]->Write(b * block_sectors_, auth_data);
        LeaveMember(m, &barrier);
        RETURN_IF_ERROR(st);
        now_ = barrier;
        ++info.resynced_blocks;
      }
    }
  }
  return info;
}

}  // namespace vlog::array
