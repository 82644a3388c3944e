// smallfile-ufs: the paper's Fig. 6 shape. UFS with the SPARCstation-10 host model runs on the
// benchmark's TimedDevice, which sits on a Vld over the truncated 36-cylinder HP97560. Each
// round creates and synchronously writes seeded small files, drops the buffer cache, reads
// every file back and compares it, then removes them all. The synchronous Vld::Read/Write path
// and the file system do the work; the queue, SPTF and the governor are unused.
#include <string>

#include "perfbench/src/timed_device.h"
#include "perfbench/src/vld_layers.h"
#include "perfbench/src/workload.h"
#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/host_model.h"
#include "src/simdisk/sim_disk.h"
#include "src/ufs/ufs.h"

namespace perfbench {
namespace {

using vlog::fs::WritePolicy;

constexpr uint32_t kCylinders = 36;
constexpr uint32_t kFilesPerRound = 100;
constexpr uint32_t kRounds = 300;
constexpr uint32_t kSizeStep = 512;  // File sizes are 512 B .. 8 KB in 512 B steps.
constexpr uint32_t kSizeSteps = 16;
constexpr uint32_t kCallsPerFile = 4;  // Create, Write(kSync), Read, Remove.
// Files an aged file system already holds, under /old, before the measured rounds.
constexpr uint32_t kOldFiles = 1000;

struct Inputs {
  std::vector<uint32_t> sizes;  // Bytes of file i of round k at [k * kFilesPerRound + i].
  std::vector<uint32_t> old_sizes;
  uint64_t seed = 0;
};

Inputs Generate(uint64_t seed) {
  common::Rng rng(Mix64(seed ^ 0x736d616c6cULL));
  Inputs in;
  in.seed = seed;
  in.sizes.resize(static_cast<size_t>(kRounds) * kFilesPerRound);
  in.old_sizes.resize(kOldFiles);
  for (std::vector<uint32_t>* v : {&in.sizes, &in.old_sizes}) {
    for (uint32_t& s : *v) {
      s = kSizeStep * (1 + static_cast<uint32_t>(rng.Below(kSizeSteps)));
    }
  }
  return in;
}

class SmallFileUfsPass : public Pass {
 public:
  SmallFileUfsPass(const Inputs& in, PassMode mode) : in_(in), mode_(mode) {}

  void Setup(PassResult& r) override {
    const int64_t t0 = WallNowNs();
    const vlog::simdisk::DiskParams params =
        vlog::simdisk::Truncated(vlog::simdisk::Hp97560(), kCylinders);
    disk_ = std::make_unique<vlog::simdisk::SimDisk>(params, &clock_);
    const int64_t t1 = WallNowNs();
    vld_ = std::make_unique<vlog::core::Vld>(disk_.get());
    device_ = std::make_unique<TimedDevice>(vld_.get());
    host_ = std::make_unique<vlog::simdisk::HostModel>(vlog::simdisk::SparcStation10(), &clock_);
    // FFS cylinder groups sized to the physical cylinder, as the paper's platform does.
    const uint32_t blocks_per_cylinder = params.geometry.tracks_per_cylinder *
                                         params.geometry.sectors_per_track *
                                         params.geometry.sector_bytes / vlog::ufs::kBlockBytes;
    fs_ = std::make_unique<vlog::ufs::Ufs>(
        device_.get(), host_.get(), vlog::ufs::UfsConfig{.blocks_per_cg = blocks_per_cylinder});
    r.Check(vld_->Format(), "vld format");
    r.Check(fs_->Format(), "ufs format");
    const int64_t t2 = WallNowNs();
    // Age the file system: the measured rounds allocate around existing files.
    r.Check(fs_->Mkdir("/old"), "prepopulate Mkdir");
    std::vector<std::byte> data;
    for (uint32_t i = 0; i < kOldFiles; ++i) {
      const std::string path = "/old/f" + std::to_string(i);
      data.resize(in_.old_sizes[i]);
      FillPayload(data, PayloadKey(in_.sizes.size() + i, in_.seed));
      r.Check(fs_->Create(path), "prepopulate Create");
      r.Check(fs_->Write(path, 0, data, WritePolicy::kAsync), "prepopulate Write");
    }
    r.Check(fs_->Sync(), "prepopulate Sync");
    const int64_t t3 = WallNowNs();
    r.wall["simdisk.construct_s"] = (t1 - t0) * 1e-9;
    r.wall["vld.format_s"] = (t2 - t1) * 1e-9;
    r.wall["vld.prepopulate_s"] = (t3 - t2) * 1e-9;
    for (uint32_t i = 0; i < kFilesPerRound; ++i) {
      paths_.push_back("/f" + std::to_string(i));
    }
    if (mode_ == PassMode::kBreakdown) {
      tracer_ = std::make_unique<obs::TraceRecorder>(&clock_);
      disk_->set_tracer(tracer_.get());
      host_->set_tracer(tracer_.get());
    }
  }

  void Measure(PassResult& r, SpanLog* spans) override {
    before_ = VldSnapshot::Take(*vld_);
    ufs_before_ = fs_->stats();
    device_->set_spans(spans);
    const uint64_t device_written_before = device_->sectors_written();
    const common::Time start = clock_.Now();
    std::vector<std::byte> data;
    std::vector<std::byte> back;
    uint64_t call = 0;
    for (uint32_t round = 0; round < kRounds; ++round) {
      const size_t base = static_cast<size_t>(round) * kFilesPerRound;
      for (uint32_t i = 0; i < kFilesPerRound; ++i) {
        r.Check(Call(spans, ++call, &r.sim_write, [&] { return fs_->Create(paths_[i]); }),
                "Create");
        {
          SpanScope s(spans, SpanName::kBenchPayload, call);
          data.resize(in_.sizes[base + i]);
          FillPayload(data, PayloadKey(base + i, in_.seed));
        }
        r.Check(Call(spans, ++call, &r.sim_write,
                     [&] { return fs_->Write(paths_[i], 0, data, WritePolicy::kSync); }),
                "Write");
      }
      r.Check(Call(spans, ++call, nullptr, [&] { return fs_->DropCaches(); }), "DropCaches");
      for (uint32_t i = 0; i < kFilesPerRound; ++i) {
        const uint32_t size = in_.sizes[base + i];
        back.assign(size + kSizeStep, std::byte{0});  // Room for an overlong read.
        common::StatusOr<uint64_t> got = common::FailedPrecondition("not read");
        Call(spans, ++call, &r.sim_read, [&] {
          got = fs_->Read(paths_[i], 0, back);
          return got.status();
        });
        SpanScope s(spans, SpanName::kBenchCheck, call);
        if (!got.ok()) {
          r.Check(got.status(), "Read");
        } else if (*got != size ||
                   !PayloadMatches(std::span<const std::byte>(back).first(size),
                                   PayloadKey(base + i, in_.seed))) {
          r.Fail("read-back of " + paths_[i] + " in round " + std::to_string(round) +
                 " differs from what was written");
        }
      }
      for (uint32_t i = 0; i < kFilesPerRound; ++i) {
        r.Check(Call(spans, ++call, &r.sim_write, [&] { return fs_->Remove(paths_[i]); }),
                "Remove");
      }
    }
    device_->set_spans(nullptr);
    r.ops = static_cast<uint64_t>(kRounds) * kFilesPerRound * kCallsPerFile;
    r.sim_ops = r.ops;
    r.attempted += r.ops;
    r.sim_elapsed = clock_.Now() - start;
    r.user_sectors = device_->sectors_written() - device_written_before;
  }

  void Finish(PassResult& r) override {
    const uint64_t files = static_cast<uint64_t>(kRounds) * kFilesPerRound;
    RecordVldLayers(*vld_, before_, r.ops, r.user_sectors / vld_->block_sectors(), r);
    if (tracer_ != nullptr) {
      RecordBreakdown(*tracer_, r.breakdown);
      disk_->set_tracer(nullptr);
      host_->set_tracer(nullptr);
    }
    const vlog::ufs::UfsStats& u = fs_->stats();
    const uint64_t hits = u.cache_hits - ufs_before_.cache_hits;
    const uint64_t misses = u.cache_misses - ufs_before_.cache_misses;
    r.layer["ufs.cache_hit_frac"] = Ratio(hits, hits + misses);
    r.layer["ufs.sync_metadata_writes_per_file"] =
        Ratio(u.sync_metadata_writes - ufs_before_.sync_metadata_writes, files);
  }

 private:
  // One fs call: a ufs.call span (with the obs request span when breaking down simulated
  // time) and, when `sim` is set, its simulated latency.
  template <typename F>
  common::Status Call(SpanLog* spans, uint64_t id, obs::LatencyHistogram* sim, F&& f) {
    SpanScope s(spans, SpanName::kUfsCall, id);
    obs::SpanScope request(tracer_.get(), obs::Layer::kFs);
    const common::Time t = clock_.Now();
    const common::Status st = f();
    if (sim != nullptr) {
      sim->Record(clock_.Now() - t);
    }
    return st;
  }

  const Inputs& in_;
  PassMode mode_;
  common::Clock clock_;
  std::unique_ptr<vlog::simdisk::SimDisk> disk_;
  std::unique_ptr<vlog::core::Vld> vld_;
  std::unique_ptr<TimedDevice> device_;
  std::unique_ptr<vlog::simdisk::HostModel> host_;
  std::unique_ptr<vlog::ufs::Ufs> fs_;
  std::unique_ptr<obs::TraceRecorder> tracer_;
  std::vector<std::string> paths_;
  VldSnapshot before_;
  vlog::ufs::UfsStats ufs_before_;
};

class SmallFileUfs : public Workload {
 public:
  explicit SmallFileUfs(uint64_t seed) : in_(Generate(seed)) {}
  std::unique_ptr<Pass> NewPass(PassMode mode) const override {
    return std::make_unique<SmallFileUfsPass>(in_, mode);
  }

 private:
  Inputs in_;
};

}  // namespace

std::unique_ptr<Workload> MakeSmallFileUfs(uint64_t seed) {
  return std::make_unique<SmallFileUfs>(seed);
}

}  // namespace perfbench
