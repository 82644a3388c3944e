// governed-hot: open-loop diurnal 4 KB writes on a truncated, 70%-full HP97560 VLD, with the
// duty-cycled CompactionGovernor between batches and an obs::Timeline polled at batch
// boundaries. Free-space pressure makes the allocator, compactor, governor and checkpoints do
// most of the work; there are no reads in the measured phase, so the read scheduler is idle.
#include <algorithm>
#include <cmath>
#include <numbers>

#include "perfbench/src/vld_layers.h"
#include "perfbench/src/workload.h"
#include "src/common/rng.h"
#include "src/core/governor.h"
#include "src/core/vld.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace perfbench {
namespace {

using vlog::core::Vld;

constexpr uint32_t kCylinders = 36;
constexpr uint32_t kQueueDepth = 32;
constexpr uint32_t kMaxBatch = 8;
constexpr uint32_t kBlockSectors = 8;
constexpr size_t kBlockBytes = 4096;
constexpr double kPrepopulated = 0.70;
constexpr size_t kArrivals = 60000;
// Diurnal arrivals, as in bench_queue_depth's long-haul leg: 24/s mean, +-75% over 2 s.
constexpr double kMeanRate = 24;
constexpr double kAmplitude = 0.75;
constexpr common::Duration kPeriod = common::Seconds(2);
constexpr common::Duration kWindow = common::Seconds(2);
constexpr common::Duration kSloBudget = common::Milliseconds(400);

struct Inputs {
  std::vector<common::Duration> arrivals;  // Due times, relative to the measured phase start.
  std::vector<uint32_t> draws;             // Block draw per arrival, scaled onto the region.
  uint64_t seed = 0;
};

// Lewis-Shedler thinning of a Poisson stream at the peak rate against the diurnal rate.
Inputs Generate(uint64_t seed) {
  common::Rng rng(Mix64(seed ^ 0x676f7665726e6564ULL));
  const double peak = kMeanRate * (1 + kAmplitude);
  Inputs in;
  in.seed = seed;
  in.arrivals.reserve(kArrivals);
  in.draws.reserve(kArrivals);
  common::Duration t = 0;
  while (in.arrivals.size() < kArrivals) {
    t += static_cast<common::Duration>(-std::log1p(-rng.NextDouble()) * 1e9 / peak) + 1;
    const double phase = static_cast<double>(t % kPeriod) / static_cast<double>(kPeriod);
    const double rate = kMeanRate * (1 + kAmplitude * std::sin(2 * std::numbers::pi * phase));
    if (rng.NextDouble() * peak < rate) {
      in.arrivals.push_back(t);
      in.draws.push_back(static_cast<uint32_t>(rng.Next() >> 32));
    }
  }
  return in;
}

class GovernedHotPass : public Pass {
 public:
  GovernedHotPass(const Inputs& in, PassMode mode) : in_(in), mode_(mode) {}

  void Setup(PassResult& r) override {
    const int64_t t0 = WallNowNs();
    disk_ = std::make_unique<vlog::simdisk::SimDisk>(
        vlog::simdisk::Truncated(vlog::simdisk::Hp97560(), kCylinders), &clock_);
    const int64_t t1 = WallNowNs();
    vld_ = std::make_unique<Vld>(disk_.get(), vlog::core::VldConfig{.queue_depth = kQueueDepth});
    r.Check(vld_->Format(), "format");
    const int64_t t2 = WallNowNs();
    region_ = static_cast<uint32_t>(vld_->logical_blocks() * kPrepopulated);
    acked_.assign(region_, 0);
    next_version_.assign(region_, 0);
    std::vector<std::byte> payload(kBlockBytes);
    for (uint32_t b = 0; b < region_; ++b) {
      FillPayload(payload, PayloadKey(b, 0));
      r.Check(vld_->Write(static_cast<vlog::simdisk::Lba>(b) * kBlockSectors, payload),
              "prepopulate write");
    }
    const int64_t t3 = WallNowNs();
    r.wall["simdisk.construct_s"] = (t1 - t0) * 1e-9;
    r.wall["vld.format_s"] = (t2 - t1) * 1e-9;
    r.wall["vld.prepopulate_s"] = (t3 - t2) * 1e-9;

    timeline_ = std::make_unique<obs::Timeline>(
        obs::TimelineConfig{.window = kWindow, .start = clock_.Now()});
    latency_ = &timeline_->AddHistogram("latency");
    vld_->RegisterTimelineProbes(*timeline_, "");
    timeline_->AddSlo("latency", kSloBudget, "vld.");
    vlog::core::GovernorConfig gov;
    gov.slo_budget = kSloBudget;
    gov.target_empty_tracks = 8;
    gov.low_water_tracks = 3;
    gov.max_burst = common::Milliseconds(50);
    governor_ = std::make_unique<vlog::core::CompactionGovernor>(vld_.get(), timeline_.get(), gov);
    governor_->RegisterTimelineProbes(*timeline_, "");
    if (mode_ == PassMode::kBreakdown) {
      tracer_ = std::make_unique<obs::TraceRecorder>(&clock_);
      disk_->set_tracer(tracer_.get());
    }
  }

  void Measure(PassResult& r, SpanLog* spans) override {
    before_ = VldSnapshot::Take(*vld_);
    min_empty_tracks_ = vld_->space().EmptyTrackCount();
    const common::Time start = clock_.Now();
    const size_t n = in_.arrivals.size();
    struct Inflight {
      uint64_t id;
      size_t arrival;
      uint32_t block;
      uint32_t version;
    };
    std::vector<Inflight> inflight;
    inflight.reserve(kMaxBatch);
    std::vector<std::byte> payload(kBlockBytes);
    size_t next_arrival = 0;  // First arrival not yet due.
    size_t next_submit = 0;   // First due arrival not yet submitted.
    uint64_t batch = 0;
    while (next_submit < n) {
      const common::Time now = clock_.Now();
      while (next_arrival < n && start + in_.arrivals[next_arrival] <= now) {
        ++next_arrival;
      }
      if (next_submit == next_arrival) {
        // Arrival trough: offer the whole gap to the governor, then jump to the next arrival.
        const common::Time due = start + in_.arrivals[next_arrival];
        Burst(due - now, spans);
        clock_.AdvanceTo(due);
        Poll(spans);
        continue;
      }
      ++batch;
      const size_t count = std::min<size_t>(kMaxBatch, next_arrival - next_submit);
      for (size_t i = 0; i < count; ++i, ++next_submit) {
        const uint32_t block = Scale(in_.draws[next_submit], region_);
        uint32_t version = 0;
        {
          SpanScope s(spans, SpanName::kBenchPayload, next_submit);
          version = ++next_version_[block];
          FillPayload(payload, PayloadKey(block, version));
        }
        common::StatusOr<uint64_t> id = common::FailedPrecondition("not submitted");
        {
          SpanScope s(spans, SpanName::kVldSubmit, next_submit);
          id = vld_->SubmitWrite(static_cast<vlog::simdisk::Lba>(block) * kBlockSectors, payload);
        }
        if (!id.ok()) {
          r.Check(id.status(), "SubmitWrite");
          continue;
        }
        inflight.push_back(Inflight{*id, next_submit, block, version});
      }
      common::StatusOr<std::vector<Vld::QueuedCompletion>> done =
          common::FailedPrecondition("not flushed");
      {
        SpanScope s(spans, SpanName::kVldFlush, batch);
        done = vld_->FlushQueue();
      }
      {
        SpanScope s(spans, SpanName::kBenchCheck, batch);
        if (!done.ok()) {
          r.Check(done.status(), "FlushQueue");
        } else {
          for (const Vld::QueuedCompletion& c : *done) {
            const auto it = std::find_if(inflight.begin(), inflight.end(),
                                         [&](const Inflight& e) { return e.id == c.id; });
            if (it == inflight.end()) {
              r.Fail("FlushQueue: unknown completion id");
              continue;
            }
            const common::Duration latency = c.complete_time - (start + in_.arrivals[it->arrival]);
            r.sim_write.Record(latency);
            latency_->Record(latency);
            acked_[it->block] = std::max(acked_[it->block], it->version);
            ++completed_;
            *it = inflight.back();
            inflight.pop_back();
          }
        }
        for (size_t i = 0; i < inflight.size(); ++i) {
          r.Fail("FlushQueue: request not completed");
        }
        inflight.clear();
        min_empty_tracks_ = std::min(min_empty_tracks_, vld_->space().EmptyTrackCount());
      }
      Poll(spans);
      // Between batches the device queue is empty: the governor's preemption point.
      Burst(0, spans);
    }
    r.ops = completed_;
    r.sim_ops = completed_;
    r.attempted += n;
    r.sim_elapsed = clock_.Now() - start;
    r.user_sectors = completed_ * kBlockSectors;
  }

  void Finish(PassResult& r) override {
    timeline_->Finish(clock_.Now());
    RecordVldLayers(*vld_, before_, completed_, completed_, r);
    if (tracer_ != nullptr) {
      RecordBreakdown(*tracer_, r.breakdown);
      disk_->set_tracer(nullptr);
    }
    const vlog::core::GovernorStats& g = governor_->stats();
    r.layer["governor.decisions"] = g.decisions;
    r.layer["governor.bursts_per_decision"] = Ratio(g.bursts, g.decisions);
    r.layer["governor.backoffs"] = g.backoffs;
    r.layer["governor.pressure_overrides"] = g.pressure_overrides;
    r.layer["space.empty_tracks_min"] = min_empty_tracks_;

    // Read every block of the region back, in seeded order and in queued batches of
    // kQueueDepth, and compare it with its last acknowledged write.
    const std::vector<uint32_t> order = VerifyOrder(region_, in_.seed);
    for (size_t first = 0; first < order.size(); first += kQueueDepth) {
      const size_t last = std::min(order.size(), first + kQueueDepth);
      for (size_t i = first; i < last; ++i) {
        r.Check(vld_->SubmitRead(static_cast<vlog::simdisk::Lba>(order[i]) * kBlockSectors,
                                 kBlockSectors)
                    .status(),
                "verify SubmitRead");
      }
      common::StatusOr<std::vector<Vld::QueuedCompletion>> done = vld_->FlushQueue();
      if (!done.ok()) {
        r.Check(done.status(), "verify FlushQueue");
        continue;
      }
      for (const Vld::QueuedCompletion& c : *done) {
        const uint32_t b = static_cast<uint32_t>(c.lba / kBlockSectors);
        r.sim_read.Record(c.Latency());
        ++r.attempted;
        if (!PayloadMatches(c.data, PayloadKey(b, acked_[b]))) {
          r.Fail("verify read: block " + std::to_string(b) + " differs from its last acked write");
        }
      }
    }
  }

 private:
  void Poll(SpanLog* spans) {
    SpanScope s(spans, SpanName::kObsPoll);
    timeline_->Poll(clock_.Now());
  }

  void Burst(common::Duration idle_hint, SpanLog* spans) {
    common::Duration granted = 0;
    {
      SpanScope s(spans, SpanName::kGovernorBurst);
      granted = governor_->RunBurst(idle_hint);
    }
    if (granted > 0) {
      Poll(spans);
    }
  }

  const Inputs& in_;
  PassMode mode_;
  common::Clock clock_;
  std::unique_ptr<vlog::simdisk::SimDisk> disk_;
  std::unique_ptr<Vld> vld_;
  std::unique_ptr<obs::Timeline> timeline_;
  obs::WindowedHistogram* latency_ = nullptr;
  std::unique_ptr<vlog::core::CompactionGovernor> governor_;
  std::unique_ptr<obs::TraceRecorder> tracer_;
  uint32_t region_ = 0;
  std::vector<uint32_t> acked_;         // Version of each block's last acknowledged write.
  std::vector<uint32_t> next_version_;  // Version of each block's last submitted write.
  VldSnapshot before_;
  uint64_t min_empty_tracks_ = 0;
  uint64_t completed_ = 0;
};

class GovernedHot : public Workload {
 public:
  explicit GovernedHot(uint64_t seed) : in_(Generate(seed)) {}
  std::unique_ptr<Pass> NewPass(PassMode mode) const override {
    return std::make_unique<GovernedHotPass>(in_, mode);
  }

 private:
  Inputs in_;
};

}  // namespace

std::unique_ptr<Workload> MakeGovernedHot(uint64_t seed) {
  return std::make_unique<GovernedHot>(seed);
}

}  // namespace perfbench
