#include "src/crashsim/array_harness.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "src/common/time.h"
#include "src/crashsim/sweep_driver.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::crashsim {

ArrayCrashSim::ArrayCrashSim(simdisk::DiskParams params, core::VldConfig member_config,
                             array::VldArrayConfig array_config, uint32_t member_count)
    : params_(std::move(params)),
      member_config_(member_config),
      array_config_(array_config),
      member_count_(member_count) {}

std::vector<uint32_t> ArrayCrashSim::MembersOfBlock(uint32_t block) const {
  if (array_config_.mode == array::ArrayMode::kMirrored) {
    std::vector<uint32_t> all(member_count_);
    for (uint32_t m = 0; m < member_count_; ++m) {
      all[m] = m;
    }
    return all;
  }
  const uint64_t chunk = static_cast<uint64_t>(block) * block_sectors_ / chunk_sectors_;
  return {static_cast<uint32_t>(chunk % member_count_)};
}

void ArrayCrashSim::RecordOp(Workload& w, const std::vector<uint32_t>& blocks,
                             const std::vector<std::vector<std::byte>>& before,
                             const std::vector<std::vector<std::byte>>& after) {
  ArrayOp op;
  op.end_writes = trace_.size();
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (const uint32_t m : MembersOfBlock(blocks[i])) {
      Group* group = nullptr;
      for (Group& g : op.groups) {
        if (g.member == m) {
          group = &g;
          break;
        }
      }
      if (group == nullptr) {
        op.groups.push_back(Group{m, {}, {}, {}});
        group = &op.groups.back();
      }
      group->blocks.push_back(blocks[i]);
      group->before.push_back(before[i]);
      group->after.push_back(after[i]);
    }
    w.shadow_[blocks[i]] = after[i];
  }
  ops_.push_back(std::move(op));
}

common::Status ArrayCrashSim::Workload::WriteBlock(uint32_t array_block,
                                                   std::span<const std::byte> data) {
  const std::vector<std::byte> before = shadow_[array_block];
  RETURN_IF_ERROR(array_->Write(
      static_cast<simdisk::Lba>(array_block) * sim_->block_sectors_, data));
  sim_->RecordOp(*this, {array_block}, {before}, {{data.begin(), data.end()}});
  return common::OkStatus();
}

common::Status ArrayCrashSim::Workload::QueuedBatch(
    std::span<const core::Vld::AtomicWrite> writes) {
  // Decompose the extents into blocks; a block written twice keeps the last payload (the
  // member VLD's queued-batch semantics: later submissions win).
  std::vector<uint32_t> blocks;
  std::vector<std::vector<std::byte>> before;
  std::vector<std::vector<std::byte>> after;
  const uint32_t block_sectors = sim_->block_sectors_;
  const uint32_t block_bytes = sim_->block_bytes_;
  for (const core::Vld::AtomicWrite& w : writes) {
    if (w.lba % block_sectors != 0 || w.data.size() % block_bytes != 0) {
      return common::InvalidArgument("array workload: extents must be whole aligned blocks");
    }
    for (uint64_t i = 0; i < w.data.size() / block_bytes; ++i) {
      const uint32_t b = static_cast<uint32_t>(w.lba / block_sectors + i);
      std::vector<std::byte> payload(w.data.begin() + i * block_bytes,
                                     w.data.begin() + (i + 1) * block_bytes);
      const auto it = std::find(blocks.begin(), blocks.end(), b);
      if (it != blocks.end()) {
        after[static_cast<size_t>(it - blocks.begin())] = std::move(payload);
        continue;
      }
      blocks.push_back(b);
      before.push_back(shadow_[b]);
      after.push_back(std::move(payload));
    }
    RETURN_IF_ERROR(
        array_->SubmitWrite(w.lba, w.data).status());
  }
  auto completions = array_->FlushQueue();
  RETURN_IF_ERROR(completions.status());
  if (completions->size() != writes.size()) {
    return common::Corruption("array workload: batch completion count mismatch");
  }
  sim_->RecordOp(*this, blocks, before, after);
  return common::OkStatus();
}

common::Status ArrayCrashSim::Workload::ReadVerify(uint32_t array_block) {
  std::vector<std::byte> got(sim_->block_bytes_);
  RETURN_IF_ERROR(
      array_->Read(static_cast<simdisk::Lba>(array_block) * sim_->block_sectors_, got));
  if (!ContentMatches(got, shadow_[array_block])) {
    return common::Corruption("array workload: read of block " + std::to_string(array_block) +
                              " disagrees with the shadow at record time");
  }
  return common::OkStatus();
}

common::Status ArrayCrashSim::Record(
    const std::function<common::Status(Workload&)>& workload) {
  // Deques, so the pointers handed to the VldArray stay stable as members are added.
  std::vector<common::Clock> clocks(member_count_);
  std::deque<simdisk::SimDisk> disks;
  std::deque<core::Vld> vlds;
  std::vector<core::Vld*> members;
  for (uint32_t m = 0; m < member_count_; ++m) {
    simdisk::SimDisk& disk = disks.emplace_back(params_, &clocks[m]);
    members.push_back(&vlds.emplace_back(&disk, member_config_));
  }
  array::VldArray array(members, array_config_);
  RETURN_IF_ERROR(array.Format());
  block_sectors_ = array.block_sectors();
  block_bytes_ = block_sectors_ * array.SectorBytes();
  array_blocks_ = static_cast<uint32_t>(array.SectorCount() / block_sectors_);
  chunk_sectors_ = array.chunk_sectors();
  // Recording starts after Format: per-member base disks, then every member media write into
  // one global trace tagged with the member index.
  for (uint32_t m = 0; m < member_count_; ++m) {
    bases_.push_back(StartRecording(trace_, disks[m], m));
  }
  Workload w;
  w.sim_ = this;
  w.array_ = &array;
  w.shadow_.assign(array_blocks_, {});
  return workload(w);
}

// The array target: the committed contents of every array block, checked through the array's
// stitched recovery over fresh member Vlds on the crashed disks.
class ArrayCrashSim::Target final : public CrashTarget {
 public:
  Target(const ArrayCrashSim& sim, const CrashSweepOptions& options)
      : sim_(sim),
        options_(options),
        committed_(sim.array_blocks_),
        probe_block_(sim.block_bytes_, std::byte{0xA5}),
        readback_(sim.block_bytes_) {}

  void Fold(uint64_t applied) override {
    const std::vector<ArrayOp>& ops = sim_.ops_;
    while (op_idx_ < ops.size() && ops[op_idx_].end_writes <= applied) {
      for (const Group& g : ops[op_idx_].groups) {
        for (size_t i = 0; i < g.blocks.size(); ++i) {
          committed_[g.blocks[i]] = g.after[i];
        }
      }
      ++op_idx_;
    }
  }

  void Check(const CrashPoint& point, std::span<simdisk::SimDisk> disks,
             CrashSweepReport& report, const Fail& fail) override {
    const std::vector<ArrayOp>& ops = sim_.ops_;
    // In-flight array ops. Unlike the single-disk sweep, an array op's records span several
    // barrier epochs (per member: data epoch, then packed-commit epoch), so a reorder epoch in
    // the *middle* of the op — say member 0's commit, with member 1 still unwritten — must
    // still treat the op as in flight: the first unfinished op always is. Later ops can join
    // only if they also acknowledged inside the same epoch.
    std::vector<const ArrayOp*> inflight_ops;
    if (op_idx_ < ops.size()) {
      inflight_ops.push_back(&ops[op_idx_]);
      if (point.kind == CrashKind::kReorder) {
        for (size_t i = op_idx_ + 1; i < ops.size() && ops[i].end_writes <= point.epoch_end;
             ++i) {
          inflight_ops.push_back(&ops[i]);
        }
      }
    }

    // Fresh member Vlds over the crashed disks, then the array's stitched recovery.
    std::deque<core::Vld> vlds;
    std::vector<core::Vld*> members;
    for (simdisk::SimDisk& disk : disks) {
      members.push_back(&vlds.emplace_back(&disk, sim_.member_config_));
    }
    array::VldArray array(members, sim_.array_config_);
    auto info = array.Recover();
    report.recovery_times.push_back(array.now());  // Fresh clocks start at zero.
    if (!info.ok()) {
      fail("array recovery failed: " + info.status().ToString());
      return;
    }
    for (const core::VldRecoveryInfo& mi : info->members) {
      (mi.used_scan ? report.scan_recoveries : report.park_recoveries) += 1;
      report.checkpoint_recoveries += mi.from_checkpoint ? 1 : 0;
      report.rolled_back_recoveries += mi.discarded_txn_sectors > 0 ? 1 : 0;
      report.repaired_pieces += mi.repaired_pieces;
    }

    auto read_block = [&](uint32_t b) {
      return array.Read(static_cast<simdisk::Lba>(b) * sim_.block_sectors_, readback_);
    };

    // Invariant 2a: blocks no in-flight op touches read back their committed contents.
    std::unordered_set<uint32_t> inflight_blocks;
    for (const ArrayOp* op : inflight_ops) {
      for (const Group& g : op->groups) {
        inflight_blocks.insert(g.blocks.begin(), g.blocks.end());
      }
    }
    bool content_ok = true;
    for (uint32_t b = 0; b < sim_.array_blocks_ && content_ok; ++b) {
      if (inflight_blocks.count(b) > 0) {
        continue;
      }
      if (!read_block(b).ok()) {
        fail("read of array block " + std::to_string(b) + " failed");
        content_ok = false;
        break;
      }
      if (!ContentMatches(readback_, committed_[b])) {
        fail("committed array block " + std::to_string(b) + " has wrong contents after recovery");
        content_ok = false;
      }
    }
    // Invariant 2b: the in-flight op is atomic per member group. Striped members crash
    // independently — one member's group may have committed while another rolled back — but
    // within one member the group's packed commit must be all-old or all-new. Mirrored groups
    // all hold the full op and must agree after resync.
    for (const ArrayOp* op : inflight_ops) {
      for (const Group& g : op->groups) {
        bool all_old = true;
        bool all_new = true;
        bool reads_ok = true;
        for (size_t i = 0; i < g.blocks.size() && reads_ok; ++i) {
          if (!read_block(g.blocks[i]).ok()) {
            fail("read of in-flight array block " + std::to_string(g.blocks[i]) + " failed");
            reads_ok = false;
            break;
          }
          all_old = all_old && ContentMatches(readback_, g.before[i]);
          all_new = all_new && ContentMatches(readback_, g.after[i]);
        }
        if (reads_ok && !(all_old || all_new)) {
          fail("in-flight array op acked at n=" + std::to_string(op->end_writes) +
               " partially applied on member " + std::to_string(g.member) +
               " (group atomicity violated)");
        }
      }
    }

    // Invariants 3 and 4, per member.
    for (uint32_t m = 0; m < members.size(); ++m) {
      CheckMapInvariants(*members[m], [&](const std::string& what) {
        fail("member " + std::to_string(m) + ": " + what);
      });
    }

    // Invariant 5: the recovered array still accepts and serves writes (striped: exercises the
    // member that owns block 0; mirrored: fans out to every replica).
    if (options_.probe_after_recovery) {
      const common::Status w = array.Write(0, probe_block_);
      const common::Status r = w.ok() ? array.Read(0, readback_) : w;
      if (!r.ok() || !ContentMatches(readback_, probe_block_)) {
        fail("post-recovery array probe write/read failed");
      }
    }
  }

 private:
  const ArrayCrashSim& sim_;
  const CrashSweepOptions& options_;
  size_t op_idx_ = 0;
  std::vector<std::vector<std::byte>> committed_;  // Acknowledged contents per array block.
  std::vector<std::byte> probe_block_;
  std::vector<std::byte> readback_;
};

CrashSweepReport ArrayCrashSim::Sweep(const CrashSweepOptions& options) const {
  return RunCrashSweep(trace_, bases_, options,
                       [&] { return std::make_unique<Target>(*this, options); });
}

}  // namespace vlog::crashsim
