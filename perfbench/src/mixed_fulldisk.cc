// mixed-fulldisk: 16 closed-loop streams issuing 50% reads and 50% 4 KB writes, uniform over
// the prepopulated half of a full-size HP97560 VLD (1.37 GB of media, larger than any host
// cache). Each round submits one request per stream through SubmitRead/SubmitWrite and
// services them with one FlushQueue: SPTF read ordering, RAW forwarding and group commit do the
// work, and every read payload is checked against the model of its block.
#include <algorithm>

#include "perfbench/src/vld_layers.h"
#include "perfbench/src/workload.h"
#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace perfbench {
namespace {

using vlog::core::Vld;

constexpr uint32_t kStreams = 16;
constexpr uint32_t kQueueDepth = 32;
constexpr uint32_t kBlockSectors = 8;
constexpr size_t kBlockBytes = 4096;
constexpr size_t kOps = 120000;

struct Inputs {
  std::vector<uint32_t> draws;  // Block draw per request; its low bit picks read (1) or write.
};

Inputs Generate(uint64_t seed) {
  common::Rng rng(Mix64(seed ^ 0x6d69786564ULL));
  Inputs in;
  in.draws.resize(kOps);
  for (uint32_t& d : in.draws) {
    d = static_cast<uint32_t>(rng.Next() >> 32);
  }
  return in;
}

class MixedFullDiskPass : public Pass {
 public:
  MixedFullDiskPass(const Inputs& in, PassMode mode) : in_(in), mode_(mode) {}

  void Setup(PassResult& r) override {
    const int64_t t0 = WallNowNs();
    disk_ = std::make_unique<vlog::simdisk::SimDisk>(vlog::simdisk::Hp97560(), &clock_);
    const int64_t t1 = WallNowNs();
    vld_ = std::make_unique<Vld>(disk_.get(), vlog::core::VldConfig{.queue_depth = kQueueDepth});
    r.Check(vld_->Format(), "format");
    const int64_t t2 = WallNowNs();
    // Prepopulate half the logical space with queued full-depth batches (group commits).
    region_ = vld_->logical_blocks() / 2;
    version_.assign(region_, 0);
    std::vector<std::byte> payload(kBlockBytes);
    for (uint32_t b = 0; b < region_; ++b) {
      FillPayload(payload, PayloadKey(b, 0));
      r.Check(vld_->SubmitWrite(static_cast<vlog::simdisk::Lba>(b) * kBlockSectors, payload)
                  .status(),
              "prepopulate SubmitWrite");
      if (vld_->QueuedRequests() == kQueueDepth || b + 1 == region_) {
        r.Check(vld_->FlushQueue().status(), "prepopulate FlushQueue");
      }
    }
    const int64_t t3 = WallNowNs();
    r.wall["simdisk.construct_s"] = (t1 - t0) * 1e-9;
    r.wall["vld.format_s"] = (t2 - t1) * 1e-9;
    r.wall["vld.prepopulate_s"] = (t3 - t2) * 1e-9;
    if (mode_ == PassMode::kBreakdown) {
      tracer_ = std::make_unique<obs::TraceRecorder>(&clock_);
      disk_->set_tracer(tracer_.get());
    }
  }

  void Measure(PassResult& r, SpanLog* spans) override {
    before_ = VldSnapshot::Take(*vld_);
    const common::Time start = clock_.Now();
    struct Inflight {
      uint64_t id;
      uint32_t block;
      uint32_t version;  // Written version, or the version a read must see.
      bool is_read;
    };
    std::vector<Inflight> inflight;
    inflight.reserve(kStreams);
    std::vector<std::byte> payload(kBlockBytes);
    const size_t n = in_.draws.size();
    uint64_t round = 0;
    for (size_t next = 0; next < n; ++round) {
      // Every stream is idle (its previous request completed in the last FlushQueue), so each
      // submits its next request now.
      for (uint32_t s = 0; s < kStreams && next < n; ++s, ++next) {
        const uint32_t draw = in_.draws[next];
        const uint32_t block = Scale(draw, region_);
        const vlog::simdisk::Lba lba = static_cast<vlog::simdisk::Lba>(block) * kBlockSectors;
        const bool is_read = (draw & 1) != 0;
        common::StatusOr<uint64_t> id = common::FailedPrecondition("not submitted");
        uint32_t version = version_[block];
        if (is_read) {
          // A read sees every write submitted before it, in this round or earlier.
          SpanScope sp(spans, SpanName::kVldSubmit, next);
          id = vld_->SubmitRead(lba, kBlockSectors);
        } else {
          {
            SpanScope sp(spans, SpanName::kBenchPayload, next);
            version = ++version_[block];
            FillPayload(payload, PayloadKey(block, version));
          }
          SpanScope sp(spans, SpanName::kVldSubmit, next);
          id = vld_->SubmitWrite(lba, payload);
        }
        if (!id.ok()) {
          r.Check(id.status(), is_read ? "SubmitRead" : "SubmitWrite");
          continue;
        }
        inflight.push_back(Inflight{*id, block, version, is_read});
      }
      common::StatusOr<std::vector<Vld::QueuedCompletion>> done =
          common::FailedPrecondition("not flushed");
      {
        SpanScope sp(spans, SpanName::kVldFlush, round);
        done = vld_->FlushQueue();
      }
      SpanScope sp(spans, SpanName::kBenchCheck, round);
      if (!done.ok()) {
        r.Check(done.status(), "FlushQueue");
        for (size_t i = 0; i < inflight.size(); ++i) {
          r.Fail("FlushQueue: request not completed");
        }
        inflight.clear();
        continue;
      }
      // Completions come back in submission order.
      if (done->size() != inflight.size()) {
        r.Fail("FlushQueue: completion count differs from submissions");
      }
      for (size_t i = 0; i < done->size() && i < inflight.size(); ++i) {
        const Vld::QueuedCompletion& c = (*done)[i];
        const Inflight& e = inflight[i];
        if (c.id != e.id) {
          r.Fail("FlushQueue: completion out of submission order");
          continue;
        }
        ++completed_;
        if (e.is_read) {
          r.sim_read.Record(c.Latency());
          if (!PayloadMatches(c.data, PayloadKey(e.block, e.version))) {
            r.Fail("read of block " + std::to_string(e.block) + " returned the wrong payload");
          }
        } else {
          r.sim_write.Record(c.Latency());
          ++written_;
        }
      }
      inflight.clear();
    }
    r.ops = completed_;
    r.sim_ops = completed_;
    r.attempted += n;
    r.sim_elapsed = clock_.Now() - start;
    r.user_sectors = written_ * kBlockSectors;
  }

  void Finish(PassResult& r) override {
    RecordVldLayers(*vld_, before_, completed_, written_, r);
    if (tracer_ != nullptr) {
      RecordBreakdown(*tracer_, r.breakdown);
      disk_->set_tracer(nullptr);
    }
  }

 private:
  const Inputs& in_;
  PassMode mode_;
  common::Clock clock_;
  std::unique_ptr<vlog::simdisk::SimDisk> disk_;
  std::unique_ptr<Vld> vld_;
  std::unique_ptr<obs::TraceRecorder> tracer_;
  uint32_t region_ = 0;
  std::vector<uint32_t> version_;  // Version of each block's last submitted write.
  VldSnapshot before_;
  uint64_t completed_ = 0;
  uint64_t written_ = 0;
};

class MixedFullDisk : public Workload {
 public:
  explicit MixedFullDisk(uint64_t seed) : in_(Generate(seed)) {}
  std::unique_ptr<Pass> NewPass(PassMode mode) const override {
    return std::make_unique<MixedFullDiskPass>(in_, mode);
  }

 private:
  Inputs in_;
};

}  // namespace

std::unique_ptr<Workload> MakeMixedFullDisk(uint64_t seed) {
  return std::make_unique<MixedFullDisk>(seed);
}

}  // namespace perfbench
