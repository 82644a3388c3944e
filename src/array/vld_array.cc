#include "src/array/vld_array.h"

#include <algorithm>
#include <cassert>
#include <limits>

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
  member_batch_.resize(members_.size());
  member_done_.resize(members_.size());
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

void VldArray::SplitStriped(size_t request, simdisk::Lba lba, uint64_t sectors) {
  const size_t first = runs_.size();
  uint64_t done = 0;
  while (done < sectors) {
    const uint64_t s = lba + done;
    const uint64_t chunk = s / chunk_sectors_;
    const uint64_t within = s % chunk_sectors_;
    const uint64_t len = std::min(sectors - done, chunk_sectors_ - within);
    const Run run{.request = request,
                  .member = static_cast<uint32_t>(chunk % members_.size()),
                  .member_lba = (chunk / members_.size()) * chunk_sectors_ + within,
                  .offset = done,
                  .sectors = len};
    // Merge with the request's previous run when the extent stays on the same member and lands
    // on the member-contiguous next chunk (every members_.size()-th array chunk) — one member
    // command instead of one per chunk.
    if (runs_.size() > first && runs_.back().member == run.member &&
        runs_.back().member_lba + runs_.back().sectors == run.member_lba) {
      runs_.back().sectors += len;
    } else {
      runs_.push_back(run);
    }
    done += len;
  }
}

common::Status VldArray::Write(simdisk::Lba lba, std::span<const std::byte> in) {
  RETURN_IF_ERROR(CheckRange(lba, in.size(), "array write"));
  return ServiceNow(
      Request{.lba = lba, .sectors = in.size() / SectorBytes(), .in = in, .submit_time = now_});
}

common::Status VldArray::Read(simdisk::Lba lba, std::span<std::byte> out) {
  RETURN_IF_ERROR(CheckRange(lba, out.size(), "array read"));
  return ServiceNow(Request{.is_write = false,
                            .lba = lba,
                            .sectors = out.size() / SectorBytes(),
                            .out = out,
                            .submit_time = now_});
}

common::Status VldArray::ServiceNow(const Request& req) {
  QueuedCompletion done;
  RETURN_IF_ERROR(ServiceBatch({&req, 1}, {&done, 1}));
  return done.status;
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
  queue_.push_back(Request{.id = next_id_++,
                           .lba = lba,
                           .sectors = in.size() / SectorBytes(),
                           .in = queue_bytes_.emplace_back(in.begin(), in.end()),
                           .submit_time = now_});
  return queue_.back().id;
}

common::StatusOr<uint64_t> VldArray::SubmitRead(simdisk::Lba lba, uint64_t sectors) {
  if (queue_.size() >= queue_depth_) {
    return common::FailedPrecondition("array queue: full");
  }
  if (sectors == 0 || !InRange(lba, sectors)) {
    return common::InvalidArgument("array: SubmitRead: bad range");
  }
  queue_.push_back(Request{.id = next_id_++,
                           .is_write = false,
                           .lba = lba,
                           .sectors = sectors,
                           .out = queue_bytes_.emplace_back(sectors * SectorBytes()),
                           .submit_time = now_});
  return queue_.back().id;
}

common::StatusOr<std::vector<core::Vld::QueuedCompletion>> VldArray::FlushQueue() {
  return core::FlushRequests(
      queue_, queue_bytes_,
      [this](std::span<const Request> batch, std::span<QueuedCompletion> done) {
        return ServiceBatch(batch, done);
      });
}

common::Status VldArray::ServiceBatch(std::span<const Request> batch,
                                      std::span<QueuedCompletion> done) {
  // Split every request into member runs. Health is evaluated here, not at submission, so a
  // member failed while requests were queued is already avoided (mirrored) or reported
  // (striped) before any member sees a command.
  runs_.clear();
  for (size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i];
    if (config_.mode == ArrayMode::kStriped) {
      SplitStriped(i, req.lba, req.sectors);
    } else if (req.is_write) {
      if (healthy_members() == 0) {
        return common::FailedPrecondition("array: every replica is failed");
      }
      for (uint32_t m = 0; m < members_.size(); ++m) {
        if (!failed_[m]) {
          runs_.push_back(
              {.request = i, .member = m, .member_lba = req.lba, .sectors = req.sectors});
        }
      }
    } else {
      ASSIGN_OR_RETURN(const uint32_t m, PickReadMember());
      runs_.push_back({.request = i, .member = m, .member_lba = req.lba, .sectors = req.sectors});
    }
  }
  for (const Run& r : runs_) {
    if (failed_[r.member]) {
      return common::FailedPrecondition("array: striped member failed, no redundancy");
    }
  }

  // Deal the runs to their members in array submission order, so every member's batch keeps
  // the array's hazard and RAW-forwarding semantics. Each run's member request is opened here
  // (submit time, trace span), before any member is serviced; that performs no media work.
  for (std::vector<Request>& member_batch : member_batch_) {
    member_batch.clear();
  }
  const uint32_t sector_bytes = SectorBytes();
  for (Run& r : runs_) {
    const Request& req = batch[r.request];
    EnterMember(r.member);
    Request run = members_[r.member]->OpenRequest(req.is_write, r.member_lba, r.sectors);
    if (req.is_write) {
      run.in = req.in.subspan(r.offset * sector_bytes, r.sectors * sector_bytes);
    } else {
      run.out = req.out.subspan(r.offset * sector_bytes, r.sectors * sector_bytes);
    }
    if (obs::TraceRecorder* tracer = members_[r.member]->disk().tracer(); tracer != nullptr) {
      tracer->set_disk_index(0);
    }
    r.slot = member_batch_[r.member].size();
    member_batch_[r.member].push_back(run);
  }

  // The cross-disk group commit: one member batch — one packed virtual-log commit — per
  // touched member, however many array requests fanned out to it.
  common::Time barrier = now_;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (member_batch_[m].empty()) {
      continue;
    }
    member_done_[m].resize(member_batch_[m].size());
    EnterMember(m);
    const common::Status st = members_[m]->ServiceBatch(member_batch_[m], member_done_[m]);
    LeaveMember(m, &barrier);
    RETURN_IF_ERROR(st);
  }
  now_ = barrier;

  // A write acknowledges at the cross-disk barrier over the members it touched; a read
  // completes when its last member run did.
  for (size_t i = 0; i < batch.size(); ++i) {
    done[i] = QueuedCompletion{.id = batch[i].id,
                               .is_write = batch[i].is_write,
                               .lba = batch[i].lba,
                               .submit_time = batch[i].submit_time,
                               .dispatch_time = std::numeric_limits<common::Time>::max()};
  }
  for (const Run& r : runs_) {
    const QueuedCompletion& run = member_done_[r.member][r.slot];
    QueuedCompletion& c = done[r.request];
    c.complete_time = std::max(c.complete_time, run.complete_time);
    c.dispatch_time = std::min(c.dispatch_time, run.dispatch_time);
    if (!run.status.ok() && c.status.ok()) {
      c.status = run.status;
    }
  }
  return common::OkStatus();
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
