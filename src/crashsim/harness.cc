#include "src/crashsim/harness.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/bytes.h"
#include "src/crashsim/sweep_driver.h"
#include "src/simdisk/host_model.h"
#include "src/ufs/layout.h"

namespace vlog::crashsim {

std::string CrashPointName(const CrashPoint& point) {
  std::ostringstream os;
  os << "crash point #" << point.ordinal << " n=" << point.writes_applied
     << " kind=" << CrashKindName(point.kind);
  if (point.kind == CrashKind::kTornPrefix || point.kind == CrashKind::kTornSuffix) {
    os << " keep=" << point.keep_sectors;
  }
  if (point.kind == CrashKind::kTornRandom || point.kind == CrashKind::kCorruptTail) {
    os << " seed=" << point.seed;
  }
  if (point.kind == CrashKind::kReorder) {
    os << " epoch_end=" << point.epoch_end << " extra=" << point.extra.size()
       << " seed=" << point.seed;
  }
  return os.str();
}

namespace {

common::Duration Percentile(std::vector<common::Duration> sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t idx = std::min(sorted.size() - 1,
                              static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

// The ops a crash at `point` may leave partially persisted, when ops[0, next) are committed.
// A prefix/torn point cuts inside at most the next unfinished op; a reorder point's extras
// can touch every op whose commit lies inside its epoch (a packed group commit flips them
// together).
template <typename Op>
std::vector<const Op*> InflightOps(const std::vector<Op>& ops, size_t next,
                                   const CrashPoint& point) {
  std::vector<const Op*> inflight;
  if (point.kind == CrashKind::kReorder) {
    for (size_t i = next; i < ops.size() && ops[i].end_writes <= point.epoch_end; ++i) {
      inflight.push_back(&ops[i]);
    }
  } else if (next < ops.size()) {
    inflight.push_back(&ops[next]);
  }
  return inflight;
}

}  // namespace

void CrashSweepReport::AddViolation(const CrashPoint& point, const std::string& what,
                                    size_t max_details) {
  ++violations;
  if (first_violation_ordinal < 0) {
    first_violation_ordinal = static_cast<int64_t>(point.ordinal);
  }
  if (violation_details.size() < max_details) {
    violation_details.push_back(CrashPointName(point) + ": " + what);
  }
}

std::string CrashSweepReport::Summary() const {
  std::vector<common::Duration> sorted = recovery_times;
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream os;
  os << points << " crash points (" << clean_points << " clean, " << torn_points << " torn, "
     << corrupt_points << " corrupt-tail, " << reorder_points << " reorder), seed " << seed
     << ", " << violations << " violations; recoveries: "
     << park_recoveries << " park, " << scan_recoveries << " scan, " << checkpoint_recoveries
     << " checkpoint-seeded, " << rolled_back_recoveries << " rolled back a torn commit, "
     << repaired_pieces << " pieces repaired";
  if (nvm_points + nvm_torn_points > 0) {
    os << "; nvm: " << nvm_points << " intact replays, " << nvm_torn_points
       << " torn-tail variants";
  }
  if (!sorted.empty()) {
    os << "; recovery time ms min/median/p90/max = " << common::ToMilliseconds(sorted.front())
       << "/" << common::ToMilliseconds(Percentile(sorted, 0.5)) << "/"
       << common::ToMilliseconds(Percentile(sorted, 0.9)) << "/"
       << common::ToMilliseconds(sorted.back());
  }
  if (violations > 0) {
    // The full replay command: --seed reproduces the point list, --point narrows the sweep to
    // the first violating ordinal. The same pair of flags works for the single-disk and array
    // sweep binaries alike.
    os << "\n  replay: <sweep test binary> --seed=" << seed << " --point="
       << first_violation_ordinal << " (reruns exactly that crash point)";
  }
  for (const std::string& detail : violation_details) {
    os << "\n  " << detail;
  }
  return os.str();
}

// --- VldCrashSim ---

VldCrashSim::VldCrashSim(simdisk::DiskParams params, core::VldConfig config)
    : params_(std::move(params)), config_(config) {}

void VldCrashSim::EnableStage(core::NvmStageConfig stage_config,
                              simdisk::NvmDeviceParams nvm_params) {
  staged_ = true;
  stage_config_ = stage_config;
  nvm_params_ = nvm_params;
}

common::Status VldCrashSim::Record(
    const std::function<common::Status(ShadowVld&)>& workload) {
  common::Clock clock;
  simdisk::SimDisk disk(params_, &clock);
  core::Vld vld(&disk, config_);
  RETURN_IF_ERROR(vld.Format());
  logical_blocks_ = vld.logical_blocks();
  block_bytes_ = vld.block_sectors() * disk.SectorBytes();
  // Recording starts after Format: the base is a fork of the freshly formatted device, and
  // every later media write (data, map sectors, checkpoints, park) lands in the trace.
  bases_.push_back(StartRecording(trace_, disk));
  std::unique_ptr<simdisk::NvmDevice> nvm;
  std::unique_ptr<core::NvmStage> stage;
  if (staged_) {
    nvm = std::make_unique<simdisk::NvmDevice>(nvm_params_, &clock);
    stage = std::make_unique<core::NvmStage>(nvm.get(), &vld, stage_config_);
    RETURN_IF_ERROR(stage->Format());
    // NVM recording starts after the stage format, mirroring the disk trace: each NVM write
    // is tagged with the disk trace length at acknowledgement so the sweep can cut both
    // persistence domains consistently.
    nvm_trace_.set_base(nvm->Snapshot());
    nvm->set_write_observer([this](uint64_t offset, std::span<const std::byte> data) {
      nvm_trace_.Append(offset, data, trace_.size());
    });
  }
  ShadowVld shadow(&vld, &trace_);
  if (staged_) {
    shadow.AttachStage(stage.get(), &nvm_trace_);
  }
  common::Status status = workload(shadow);
  ops_ = shadow.TakeOps();
  return status;
}

// The VLD target: the committed contents of every logical block (plus, when staged, the
// rolling NVM image), checked against one recovered Vld — read through the recovered stage
// when staged, with the torn-NVM-tail matrix on top.
class VldCrashSim::Target final : public CrashTarget {
 public:
  Target(const VldCrashSim& sim, const CrashSweepOptions& options)
      : sim_(sim),
        options_(options),
        committed_(sim.logical_blocks_),
        nvm_image_(sim.nvm_trace_.base()),
        probe_block_(sim.block_bytes_, std::byte{0xA5}),
        readback_(sim.block_bytes_) {}

  void Fold(uint64_t applied) override {
    const std::vector<ShadowVld::Op>& ops = sim_.ops_;
    while (op_idx_ < ops.size() && ops[op_idx_].end_writes <= applied) {
      const ShadowVld::Op& op = ops[op_idx_];
      for (size_t i = 0; i < op.blocks.size(); ++i) {
        committed_[op.blocks[i]] = op.after[i];
      }
      ++op_idx_;
    }
    // An NVM write tagged T happened before disk write #T was issued, so it is persisted at
    // every cut with applied >= T — the same fold rule ops use for end_writes. Unstaged
    // recordings have an empty NVM trace.
    const NvmTrace& nvm_trace = sim_.nvm_trace_;
    while (nvm_applied_ < nvm_trace.size() && nvm_trace[nvm_applied_].disk_writes <= applied) {
      const NvmWriteRecord& rec = nvm_trace[nvm_applied_];
      nvm_undo_.assign(nvm_image_.begin() + static_cast<ptrdiff_t>(rec.offset),
                       nvm_image_.begin() + static_cast<ptrdiff_t>(rec.offset + rec.data.size()));
      ApplyNvmWrite(nvm_image_, rec);
      ++nvm_applied_;
    }
  }

  void Check(const CrashPoint& point, std::span<simdisk::SimDisk> disks,
             CrashSweepReport& report, const Fail& fail) override {
    const std::vector<ShadowVld::Op>& ops = sim_.ops_;
    const bool staged = sim_.staged_;
    const uint32_t block_sectors = sim_.block_bytes_ / sim_.params_.geometry.sector_bytes;
    const std::vector<const ShadowVld::Op*> inflight_ops = InflightOps(ops, op_idx_, point);

    simdisk::SimDisk& disk = disks[0];
    common::Clock& clock = *disk.clock();
    core::Vld vld(&disk, sim_.config_);
    const common::Time start = clock.Now();
    auto info = vld.Recover();
    report.recovery_times.push_back(clock.Now() - start);
    if (!info.ok()) {
      fail("recovery failed: " + info.status().ToString());
      return;
    }
    (info->used_scan ? report.scan_recoveries : report.park_recoveries) += 1;
    report.checkpoint_recoveries += info->from_checkpoint ? 1 : 0;
    report.rolled_back_recoveries += info->discarded_txn_sectors > 0 ? 1 : 0;
    report.repaired_pieces += info->repaired_pieces;

    // Staged sweeps recover the stage over the recovered Vld (stage recovery validates staged
    // ranges against the backing device, and disk recovery never touches NVM, so the order is
    // observationally equivalent to recovering the stage first). The reconstructed NVM image
    // here is intact — every acknowledged append fully persisted — so a replay that reports a
    // torn tail would itself be a bug. All content checks below then read THROUGH the stage:
    // an acked-in-NVM write must be served from the replayed overlay.
    std::optional<simdisk::NvmDevice> nvm_dev;
    std::optional<core::NvmStage> stage;
    if (staged) {
      nvm_dev.emplace(sim_.nvm_params_, &clock, nvm_image_);
      stage.emplace(&*nvm_dev, &vld, sim_.stage_config_);
      auto stage_info = stage->Recover();
      if (!stage_info.ok()) {
        fail("nvm stage recovery failed: " + stage_info.status().ToString());
        return;
      }
      ++report.nvm_points;
      if (stage_info->torn_tail_dropped) {
        fail("intact NVM image replayed with a torn tail");
      }
    }
    const auto read_block = [&](uint32_t b, std::span<std::byte> out) {
      const simdisk::Lba lba = static_cast<simdisk::Lba>(b) * block_sectors;
      return staged ? stage->Read(lba, out) : vld.Read(lba, out);
    };

    // Invariant 2: committed contents exact; in-flight blocks all-old or all-new. When several
    // in-flight ops touch the same block, "old" is the first writer's before-image and "new"
    // the last writer's after-image (the group commits atomically, so nothing between is
    // legal).
    struct InflightVals {
      const std::vector<std::byte>* before = nullptr;
      const std::vector<std::byte>* after = nullptr;
    };
    std::unordered_map<uint32_t, InflightVals> inflight_index;
    for (const ShadowVld::Op* op : inflight_ops) {
      for (size_t i = 0; i < op->blocks.size(); ++i) {
        auto [it, inserted] =
            inflight_index.try_emplace(op->blocks[i], InflightVals{&op->before[i], &op->after[i]});
        if (!inserted) {
          it->second.after = &op->after[i];
        }
      }
    }
    bool all_old = true;
    bool all_new = true;
    bool content_ok = true;
    for (uint32_t b = 0; b < sim_.logical_blocks_ && content_ok; ++b) {
      if (!read_block(b, readback_).ok()) {
        fail("read of logical block " + std::to_string(b) + " failed");
        content_ok = false;
        break;
      }
      const auto it = inflight_index.find(b);
      if (it == inflight_index.end()) {
        if (!ContentMatches(readback_, committed_[b])) {
          fail("committed logical block " + std::to_string(b) +
                   " has wrong contents after recovery");
          content_ok = false;
        }
        continue;
      }
      all_old = all_old && ContentMatches(readback_, *it->second.before);
      all_new = all_new && ContentMatches(readback_, *it->second.after);
    }
    if (content_ok && !(all_old || all_new)) {
      fail("in-flight command partially applied (atomicity violated)");
    }

    CheckMapInvariants(vld, fail);

    // Torn-NVM-tail matrix: a crash during an NVM append keeps a line-aligned prefix of it. A
    // tear is only physically admissible at a clean point whose last persisted NVM write is
    // the append coinciding with this cut (no disk write can land after an append that never
    // finished) — and only for log records, not single-line superblock updates. Each variant
    // reverts a line-aligned suffix of that append to its pre-write bytes and re-recovers: the
    // record CRCs must drop exactly the torn record, so the op that owns the append reads back
    // all-old-or-all-new and earlier committed staged ops keep their exact contents. These
    // checks run before the probe, which mutates block 0.
    const NvmTrace& nvm_trace = sim_.nvm_trace_;
    if (staged && point.kind == CrashKind::kClean && nvm_applied_ > 0 &&
        nvm_trace[nvm_applied_ - 1].disk_writes == point.writes_applied &&
        nvm_trace[nvm_applied_ - 1].offset != 0) {
      const NvmWriteRecord& last = nvm_trace[nvm_applied_ - 1];
      // The op whose acknowledgement covers the torn append — the in-flight op for these
      // variants. Ops record the NVM trace length at ack, monotonically.
      const auto owner_it =
          std::lower_bound(ops.begin(), ops.end(), nvm_applied_,
                           [](const ShadowVld::Op& op, size_t n) { return op.nvm_end < n; });
      const ShadowVld::Op* owner = owner_it != ops.end() ? &*owner_it : nullptr;
      std::unordered_set<uint32_t> owner_blocks;
      if (owner != nullptr) {
        owner_blocks.insert(owner->blocks.begin(), owner->blocks.end());
      }
      // Recently committed ops are collateral-damage sentinels: their records precede the torn
      // append, so the tear must leave their contents untouched.
      std::vector<const ShadowVld::Op*> sentinels;
      for (auto it = owner_it; it != ops.begin() && sentinels.size() < 6;) {
        --it;
        if (it->end_writes <= point.writes_applied && !it->blocks.empty()) {
          sentinels.push_back(&*it);
        }
      }
      const uint32_t line = sim_.nvm_params_.cache_line_bytes;
      const uint64_t lines = last.data.size() / line;
      const uint64_t step = std::max<uint64_t>(1, lines / 4);
      for (uint64_t cl = 0; cl < lines; cl += step) {
        const uint64_t cut = cl * line;
        std::vector<std::byte> torn = nvm_image_;
        std::memcpy(torn.data() + last.offset + cut, nvm_undo_.data() + cut,
                    last.data.size() - cut);
        simdisk::NvmDevice torn_nvm(sim_.nvm_params_, &clock, std::move(torn));
        core::NvmStage torn_stage(&torn_nvm, &vld, sim_.stage_config_);
        ++report.nvm_torn_points;
        auto torn_info = torn_stage.Recover();
        if (!torn_info.ok()) {
          fail("nvm tear at line " + std::to_string(cl) + ": stage recovery failed: " +
                   torn_info.status().ToString());
          continue;
        }
        bool t_ok = true;
        if (owner != nullptr) {
          bool t_all_old = true;
          bool t_all_new = true;
          for (size_t i = 0; i < owner->blocks.size() && t_ok; ++i) {
            if (!torn_stage.Read(static_cast<simdisk::Lba>(owner->blocks[i]) * block_sectors,
                                 readback_)
                     .ok()) {
              fail("nvm tear at line " + std::to_string(cl) + ": read of owning op's block failed");
              t_ok = false;
              break;
            }
            t_all_old = t_all_old && ContentMatches(readback_, owner->before[i]);
            t_all_new = t_all_new && ContentMatches(readback_, owner->after[i]);
          }
          if (t_ok && !(t_all_old || t_all_new)) {
            fail("nvm tear at line " + std::to_string(cl) +
                     ": op owning the torn append partially applied");
          }
        }
        for (const ShadowVld::Op* op : sentinels) {
          for (size_t i = 0; i < op->blocks.size() && t_ok; ++i) {
            const uint32_t b = op->blocks[i];
            if (owner_blocks.count(b) != 0 || inflight_index.count(b) != 0) {
              continue;  // Covered by the all-old-or-all-new checks instead.
            }
            if (!torn_stage.Read(static_cast<simdisk::Lba>(b) * block_sectors, readback_).ok() ||
                !ContentMatches(readback_, committed_[b])) {
              fail("nvm tear at line " + std::to_string(cl) + ": committed block " +
                       std::to_string(b) + " disturbed");
              t_ok = false;
            }
          }
        }
      }
    }

    // Invariant 5: the recovered device still accepts and serves writes. Staged runs push the
    // probe through the stage and a full drain, exercising destage + allocator in one go.
    if (options_.probe_after_recovery) {
      common::Status st = staged ? stage->Write(0, probe_block_) : vld.Write(0, probe_block_);
      if (st.ok() && staged) {
        st = stage->Drain();
      }
      if (st.ok()) {
        st = staged ? stage->Read(0, readback_) : vld.Read(0, readback_);
      }
      if (!st.ok() || !ContentMatches(readback_, probe_block_)) {
        fail("post-recovery probe write/read failed");
      }
    }
  }

 private:
  const VldCrashSim& sim_;
  const CrashSweepOptions& options_;
  size_t op_idx_ = 0;
  std::vector<std::vector<std::byte>> committed_;  // Contents after every fully-persisted op.
  // Staged sweeps: the rolling NVM image (NVM is non-volatile, so every write tagged <= the
  // disk cut is present) plus the pre-write bytes of the last applied NVM record — the undo
  // buffer torn-NVM-tail variants are synthesized from.
  size_t nvm_applied_ = 0;
  std::vector<std::byte> nvm_image_;
  std::vector<std::byte> nvm_undo_;
  std::vector<std::byte> probe_block_;
  std::vector<std::byte> readback_;
};

CrashSweepReport VldCrashSim::Sweep(const CrashSweepOptions& options) const {
  return RunCrashSweep(trace_, bases_, options,
                       [&] { return std::make_unique<Target>(*this, options); });
}

// --- VlfsCrashSim ---

VlfsCrashSim::VlfsCrashSim(simdisk::DiskParams params, vlfs::VlfsConfig config)
    : params_(std::move(params)), config_(config) {}

common::Status VlfsCrashSim::Record(const std::vector<VlfsOp>& script) {
  common::Clock clock;
  simdisk::SimDisk disk(params_, &clock);
  simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
  vlfs::Vlfs fs(&disk, &host, config_);
  RETURN_IF_ERROR(fs.Format());
  bases_.push_back(StartRecording(trace_, disk));

  // The expected-state model is maintained here, not read back from the fs: a divergence shows
  // up in the sweep (including at the final clean point, which is the uncrashed state).
  std::unordered_map<std::string, FileState> state;
  std::unordered_set<std::string> known;
  for (const VlfsOp& op : script) {
    FsOpRecord rec;
    rec.path = op.path;
    if (!op.path.empty() && known.insert(op.path).second) {
      all_paths_.push_back(op.path);
    }
    const auto it = op.path.empty() ? state.end() : state.find(op.path);
    rec.before = it == state.end() ? std::nullopt : std::optional<FileState>(it->second);
    switch (op.kind) {
      case VlfsOp::Kind::kCreate:
        RETURN_IF_ERROR(fs.Create(op.path));
        rec.after = FileState{};
        break;
      case VlfsOp::Kind::kMkdir: {
        RETURN_IF_ERROR(fs.Mkdir(op.path));
        FileState dir;
        dir.is_dir = true;
        rec.after = std::move(dir);
        break;
      }
      case VlfsOp::Kind::kRemove:
        RETURN_IF_ERROR(fs.Remove(op.path));
        rec.after = std::nullopt;
        break;
      case VlfsOp::Kind::kWriteSync: {
        RETURN_IF_ERROR(fs.Write(op.path, op.offset, op.data, fs::WritePolicy::kSync));
        FileState next = rec.before.value_or(FileState{});
        if (next.content.size() < op.offset + op.data.size()) {
          next.content.resize(op.offset + op.data.size());
        }
        std::memcpy(next.content.data() + op.offset, op.data.data(), op.data.size());
        rec.after = std::move(next);
        break;
      }
      case VlfsOp::Kind::kCheckpoint:
        RETURN_IF_ERROR(fs.Checkpoint());
        break;
      case VlfsOp::Kind::kIdle:
        fs.RunIdle(op.idle_budget);
        break;
      case VlfsOp::Kind::kPark:
        RETURN_IF_ERROR(fs.Park());
        break;
    }
    rec.end_writes = trace_.size();
    if (!op.path.empty()) {
      if (rec.after.has_value()) {
        state[op.path] = *rec.after;
      } else {
        state.erase(op.path);
      }
    }
    ops_.push_back(std::move(rec));
  }
  return common::OkStatus();
}

// The VLFS target: the committed path -> (type, contents) namespace, checked against one
// recovered Vlfs, plus an allocator cross-check against the crashed media.
class VlfsCrashSim::Target final : public CrashTarget {
 public:
  Target(const VlfsCrashSim& sim, const CrashSweepOptions& options)
      : sim_(sim), options_(options) {}

  void Fold(uint64_t applied) override {
    const std::vector<FsOpRecord>& ops = sim_.ops_;
    while (op_idx_ < ops.size() && ops[op_idx_].end_writes <= applied) {
      const FsOpRecord& op = ops[op_idx_];
      if (!op.path.empty()) {
        if (op.after.has_value()) {
          committed_[op.path] = *op.after;
        } else {
          committed_.erase(op.path);
        }
      }
      ++op_idx_;
    }
  }

  void Check(const CrashPoint& point, std::span<simdisk::SimDisk> disks,
             CrashSweepReport& report, const Fail& fail) override {
    const uint32_t sector_bytes = sim_.params_.geometry.sector_bytes;
    const std::vector<const FsOpRecord*> inflight_ops = InflightOps(sim_.ops_, op_idx_, point);
    // Per path, the first toucher's before-image and last toucher's after-image.
    std::unordered_map<std::string, std::pair<const FsOpRecord*, const FsOpRecord*>>
        inflight_paths;
    for (const FsOpRecord* op : inflight_ops) {
      if (op->path.empty()) {
        continue;
      }
      auto [it, inserted] = inflight_paths.try_emplace(op->path, op, op);
      if (!inserted) {
        it->second.second = op;
      }
    }

    simdisk::SimDisk& disk = disks[0];
    common::Clock& clock = *disk.clock();
    simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
    vlfs::Vlfs fs(&disk, &host, sim_.config_);
    const common::Time start = clock.Now();
    auto info = fs.Recover();
    report.recovery_times.push_back(clock.Now() - start);
    if (!info.ok()) {
      fail("recovery failed: " + info.status().ToString());
      return;
    }
    (info->used_scan ? report.scan_recoveries : report.park_recoveries) += 1;
    report.checkpoint_recoveries += info->from_checkpoint ? 1 : 0;
    report.rolled_back_recoveries += info->discarded_txn_sectors > 0 ? 1 : 0;

    for (const std::string& path : sim_.all_paths_) {
      const auto infl = inflight_paths.find(path);
      if (infl != inflight_paths.end()) {
        // The in-flight operation(s) must be all-or-nothing at the file level.
        const std::string as_old = CheckPath(fs, path, infl->second.first->before);
        if (!as_old.empty()) {
          const std::string as_new = CheckPath(fs, path, infl->second.second->after);
          if (!as_new.empty()) {
            fail("in-flight op on '" + path + "' neither old nor new state (" + as_old + " / " +
                     as_new + ")");
          }
        }
        continue;
      }
      const auto it = committed_.find(path);
      const std::string err = CheckPath(
          fs, path, it == committed_.end() ? std::nullopt : std::optional<FileState>(it->second));
      if (!err.empty()) {
        fail(err);
      }
    }

    // Invariant 4 (mirrors VldCrashSim): the recovered allocator must agree with a free-space
    // shadow rebuilt independently from the recovered metadata — live inode-map blocks, the
    // virtual log's live/pinned map blocks, and every data/indirect block reachable from a
    // live inode read straight off the crashed media image.
    {
      const uint32_t block_sectors = fs.block_sectors();
      const size_t block_bytes = static_cast<size_t>(block_sectors) * sector_bytes;
      std::unordered_set<uint32_t> shadow;
      const std::vector<uint32_t>& imap = fs.inode_map();
      for (const uint32_t phys : imap) {
        if (phys != core::kUnmappedBlock) {
          shadow.insert(phys);
        }
      }
      for (uint32_t k = 0; k < fs.vlog().config().pieces; ++k) {
        if (const auto block = fs.vlog().LiveBlockOfPiece(k)) {
          shadow.insert(*block);
        }
      }
      for (const uint32_t block : fs.vlog().PinnedBlocks()) {
        shadow.insert(block);
      }
      std::vector<std::byte> iraw(block_bytes);
      std::vector<std::byte> table(block_bytes);
      for (const uint32_t iphys : imap) {
        if (iphys == core::kUnmappedBlock) {
          continue;
        }
        disk.PeekMedia(static_cast<simdisk::Lba>(iphys) * block_sectors, iraw);
        for (uint32_t i = 0; i < ufs::kInodesPerBlock; ++i) {
          const ufs::Inode inode = ufs::Inode::Decode(
              std::span<const std::byte>(iraw).subspan(i * ufs::kInodeBytes));
          if (inode.IsFree()) {
            continue;
          }
          const uint64_t blocks = (inode.size + block_bytes - 1) / block_bytes;
          for (uint64_t fbi = 0; fbi < std::min<uint64_t>(blocks, ufs::kDirectPtrs); ++fbi) {
            if (inode.direct[fbi] != ufs::kNoAddr) {
              shadow.insert(inode.direct[fbi]);
            }
          }
          if (inode.indirect != ufs::kNoAddr) {
            shadow.insert(inode.indirect);
            disk.PeekMedia(static_cast<simdisk::Lba>(inode.indirect) * block_sectors, table);
            const uint64_t limit =
                std::min<uint64_t>(blocks, ufs::kDirectPtrs + ufs::kPtrsPerBlock);
            for (uint64_t fbi = ufs::kDirectPtrs; fbi < limit; ++fbi) {
              const uint32_t phys =
                  common::LoadLe<uint32_t>(table, (fbi - ufs::kDirectPtrs) * 4);
              if (phys != ufs::kNoAddr) {
                shadow.insert(phys);
              }
            }
          }
        }
      }
      bool shadow_ok = true;
      for (const uint32_t block : shadow) {
        if (fs.space().state(block) != core::BlockState::kLive) {
          fail("allocator disagrees with shadow: block " + std::to_string(block) +
                   " reachable but not live");
          shadow_ok = false;
          break;
        }
      }
      if (shadow_ok && fs.space().live_blocks() != shadow.size()) {
        fail("allocator live-block count " + std::to_string(fs.space().live_blocks()) +
                 " != shadow reachable count " + std::to_string(shadow.size()));
      }
    }

    if (options_.probe_after_recovery) {
      const std::string probe = "/crashsim-probe";
      std::vector<std::byte> payload(1024, std::byte{0x5A});
      std::vector<std::byte> back(payload.size());
      common::Status st = fs.Create(probe);
      if (st.ok()) {
        st = fs.Write(probe, 0, payload, fs::WritePolicy::kSync);
      }
      if (st.ok()) {
        auto read = fs.Read(probe, 0, back);
        st = read.ok() ? common::OkStatus() : read.status();
        if (st.ok() && (static_cast<size_t>(*read) != back.size() || back != payload)) {
          st = common::Corruption("probe readback mismatch");
        }
      }
      if (!st.ok()) {
        fail("post-recovery probe failed: " + st.ToString());
      }
    }
  }

 private:
  // Checks one path against an expected state (nullopt = absent). Returns a description of the
  // mismatch, or an empty string.
  static std::string CheckPath(vlfs::Vlfs& fs, const std::string& path,
                               const std::optional<FileState>& expect) {
    auto stat = fs.Stat(path);
    if (!expect.has_value()) {
      return stat.ok() ? "path '" + path + "' resurrected after recovery" : "";
    }
    if (!stat.ok()) {
      return "path '" + path + "' missing after recovery";
    }
    if (stat->is_directory != expect->is_dir) {
      return "path '" + path + "' changed type after recovery";
    }
    if (expect->is_dir) {
      return "";
    }
    if (stat->size != expect->content.size()) {
      return "file '" + path + "' has wrong size after recovery";
    }
    std::vector<std::byte> data(expect->content.size());
    if (!data.empty()) {
      auto read = fs.Read(path, 0, data);
      if (!read.ok() || *read != data.size() ||
          std::memcmp(data.data(), expect->content.data(), data.size()) != 0) {
        return "file '" + path + "' has wrong contents after recovery";
      }
    }
    return "";
  }

  const VlfsCrashSim& sim_;
  const CrashSweepOptions& options_;
  size_t op_idx_ = 0;
  std::unordered_map<std::string, FileState> committed_;
};

CrashSweepReport VlfsCrashSim::Sweep(const CrashSweepOptions& options) const {
  return RunCrashSweep(trace_, bases_, options,
                       [&] { return std::make_unique<Target>(*this, options); });
}

}  // namespace vlog::crashsim
