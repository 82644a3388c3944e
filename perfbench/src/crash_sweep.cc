// crash-sweep: records a seeded op mix through ShadowVld on the crash harness's small
// truncated disk with a volatile write-back cache (sync writes, WriteAtomic, Trim,
// WriteQueuedBatch, RunIdle, Checkpoint and a final Park), then sweeps every crash point with
// VldCrashSim::Sweep on one worker: clean, torn, corrupt and reorder points. Per-point image
// rebuild and recovery dominate; the foreground paths are negligible.
#include <algorithm>
#include <string>

#include "perfbench/src/vld_layers.h"
#include "perfbench/src/workload.h"
#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/scenarios.h"
#include "src/crashsim/shadow_vld.h"

namespace perfbench {
namespace {

using vlog::core::Vld;
using vlog::crashsim::ShadowVld;

constexpr uint32_t kBlockSectors = 8;  // The crash harness's VLD block size.
constexpr size_t kBlockBytes = 4096;
constexpr double kPrefilled = 0.25;  // Blocks written once before the op mix.
constexpr uint32_t kRounds = 60;
constexpr uint32_t kCheckpointEvery = 5;  // Rounds.
constexpr uint32_t kMaxExtents = 8;

enum class OpKind : uint8_t { kWrite, kAtomic, kQueued, kTrim, kIdle, kCheckpoint };

struct ScriptOp {
  OpKind kind = OpKind::kWrite;
  uint32_t count = 1;  // Blocks (write, atomic, queued, trim).
  uint32_t draws[kMaxExtents] = {};
  common::Duration budget = 0;  // kIdle.
};

// One round of the op mix; only the blocks each op touches are drawn from the seed, so every
// seed records the same shape of history.
constexpr ScriptOp kRound[] = {
    {OpKind::kWrite},     {OpKind::kWrite},       {OpKind::kAtomic, 3}, {OpKind::kWrite},
    {OpKind::kQueued, 6}, {OpKind::kTrim, 2},     {OpKind::kWrite},     {OpKind::kWrite},
    {OpKind::kAtomic, 2}, {OpKind::kWrite},       {OpKind::kQueued, 4},
    {OpKind::kIdle, 0, {}, common::Milliseconds(30)},
};

struct Inputs {
  std::vector<ScriptOp> script;
  uint64_t seed = 0;
};

Inputs Generate(uint64_t seed) {
  common::Rng rng(Mix64(seed ^ 0x6372617368ULL));
  Inputs in;
  in.seed = seed;
  for (uint32_t round = 1; round <= kRounds; ++round) {
    for (ScriptOp op : kRound) {
      for (uint32_t& d : op.draws) {
        d = static_cast<uint32_t>(rng.Next() >> 32);
      }
      in.script.push_back(op);
    }
    if (round % kCheckpointEvery == 0) {
      in.script.push_back(ScriptOp{OpKind::kCheckpoint});
    }
  }
  return in;
}

class CrashSweepPass : public Pass {
 public:
  explicit CrashSweepPass(const Inputs& in) : in_(in) {}

  void Setup(PassResult& r) override {
    const int64_t t0 = WallNowNs();
    sim_ = std::make_unique<vlog::crashsim::VldCrashSim>(vlog::crashsim::CrashSimCachedDiskParams(),
                                                         vlog::crashsim::CrashSimVldConfig());
    r.Check(sim_->Record([&](ShadowVld& dev) { return Record(dev, r); }), "record");
    r.wall["crashsim.record_s"] = (WallNowNs() - t0) * 1e-9;
  }

  void Measure(PassResult& r, SpanLog* spans) override {
    vlog::crashsim::CrashSweepOptions options;
    // Thinned enumeration, so one pass sweeps a long history in about two seconds.
    options.enumerate.clean_stride = 4;
    options.enumerate.torn_stride = 8;
    options.enumerate.corrupt_stride = 32;
    options.enumerate.seed = in_.seed;
    options.reorder.exhaustive_window = 1;
    options.reorder.samples_per_epoch = 1;
    options.reorder.seed = in_.seed;
    options.workers = 1;
    const int64_t t0 = WallNowNs();
    {
      SpanScope s(spans, SpanName::kCrashSweep);
      report_ = sim_->Sweep(options);
    }
    r.wall["crashsim.sweep_s"] = (WallNowNs() - t0) * 1e-9;
    r.ops = report_.points;
    r.attempted += report_.points;
    for (uint64_t i = 0; i < report_.violations; ++i) {
      r.Fail(i < report_.violation_details.size() ? report_.violation_details[i]
                                                  : "crash invariant violation");
    }
  }

  void Finish(PassResult& r) override {
    const double points = static_cast<double>(report_.points);
    r.layer["crashsim.clean_points"] = report_.clean_points;
    r.layer["crashsim.torn_points"] = report_.torn_points;
    r.layer["crashsim.corrupt_points"] = report_.corrupt_points;
    r.layer["crashsim.reorder_points"] = report_.reorder_points;
    r.layer["crashsim.scan_recovery_frac"] = Ratio(report_.scan_recoveries, points);
    r.layer["crashsim.park_recovery_frac"] = Ratio(report_.park_recoveries, points);
    r.layer["crashsim.checkpoint_recovery_frac"] = Ratio(report_.checkpoint_recoveries, points);
    r.layer["crashsim.rolled_back_recovery_frac"] = Ratio(report_.rolled_back_recoveries, points);
    obs::LatencyHistogram recovery;
    for (const common::Duration d : report_.recovery_times) {
      recovery.Record(d);
    }
    r.layer["crashsim.sim_recovery_p50_ms"] = recovery.Percentile(50) / 1e6;
    r.layer["crashsim.sim_recovery_p99_ms"] = recovery.Percentile(99) / 1e6;
    // The sweep's Summary() text must be identical for a seed, so it joins the digest.
    r.layer["crashsim.summary_hash"] = static_cast<double>(Fnv1a(report_.Summary()) >> 16);
  }

 private:
  // The recorded history: a prefill, the seeded op mix, a read-back of every block against the
  // model, and a final Park.
  common::Status Record(ShadowVld& dev, PassResult& r) {
    Vld& vld = dev.vld();
    common::Clock* clock = vld.disk().clock();
    const uint32_t blocks = vld.logical_blocks();
    const VldSnapshot before = VldSnapshot::Take(vld);
    const common::Time start = clock->Now();
    // Version of each block's content; 0 = unmapped or trimmed, which reads as zeros. Versions
    // come from one counter, so a block rewritten after a trim never repeats an old payload.
    std::vector<uint32_t> version(blocks, 0);
    uint32_t last_version = 0;
    uint64_t written_blocks = 0;
    uint64_t ops = 0;
    const auto lba_of = [](uint32_t b) {
      return static_cast<vlog::simdisk::Lba>(b) * kBlockSectors;
    };
    const auto timed = [&](auto&& f) {
      const common::Time t = clock->Now();
      const common::Status st = f();
      r.sim_write.Record(clock->Now() - t);
      return st;
    };

    // The prefill's sequential writes are all alike; leaving them out of sim_write keeps its
    // median inside one mode of the op mix's latencies.
    std::vector<std::byte> payload(kBlockBytes);
    const uint32_t prefill = static_cast<uint32_t>(blocks * kPrefilled);
    for (uint32_t b = 0; b < prefill; ++b, ++ops, ++written_blocks) {
      version[b] = ++last_version;
      FillPayload(payload, PayloadKey(b, version[b]));
      RETURN_IF_ERROR(dev.Write(lba_of(b), payload));
    }
    std::vector<std::vector<std::byte>> payloads(kMaxExtents, std::vector<std::byte>(kBlockBytes));
    std::vector<Vld::AtomicWrite> extents;
    for (const ScriptOp& op : in_.script) {
      ++ops;
      switch (op.kind) {
        case OpKind::kWrite: {
          const uint32_t b = Scale(op.draws[0], blocks);
          version[b] = ++last_version;
          FillPayload(payload, PayloadKey(b, version[b]));
          RETURN_IF_ERROR(timed([&] { return dev.Write(lba_of(b), payload); }));
          ++written_blocks;
          break;
        }
        case OpKind::kAtomic:
        case OpKind::kQueued: {
          extents.clear();
          for (uint32_t i = 0; i < op.count; ++i) {
            const uint32_t b = Scale(op.draws[i], blocks);
            if (std::any_of(extents.begin(), extents.end(),
                            [&](const Vld::AtomicWrite& e) { return e.lba == lba_of(b); })) {
              continue;  // One extent per block.
            }
            std::vector<std::byte>& data = payloads[extents.size()];
            version[b] = ++last_version;
            FillPayload(data, PayloadKey(b, version[b]));
            extents.push_back(Vld::AtomicWrite{lba_of(b), data});
          }
          written_blocks += extents.size();
          RETURN_IF_ERROR(timed([&] {
            return op.kind == OpKind::kAtomic ? dev.WriteAtomic(extents)
                                              : dev.WriteQueuedBatch(extents);
          }));
          break;
        }
        case OpKind::kTrim: {
          const uint32_t first = Scale(op.draws[0], blocks - op.count + 1);
          RETURN_IF_ERROR(dev.Trim(lba_of(first), static_cast<uint64_t>(op.count) * kBlockSectors));
          std::fill(version.begin() + first, version.begin() + first + op.count, 0);
          break;
        }
        case OpKind::kIdle:
          dev.RunIdle(op.budget);
          break;
        case OpKind::kCheckpoint:
          RETURN_IF_ERROR(dev.Checkpoint());
          break;
      }
    }
    r.sim_ops = ops;
    r.sim_elapsed = clock->Now() - start;
    r.user_sectors = written_blocks * kBlockSectors;
    RecordVldLayers(vld, before, ops, written_blocks, r);

    for (const uint32_t b : VerifyOrder(blocks, in_.seed)) {
      const common::Time t = clock->Now();
      const common::Status st = dev.Read(lba_of(b), payload);
      r.sim_read.Record(clock->Now() - t);
      ++r.attempted;
      const bool zeros = std::all_of(payload.begin(), payload.end(),
                                     [](std::byte x) { return x == std::byte{0}; });
      if (!st.ok()) {
        r.Check(st, "verify read");
      } else if (version[b] == 0 ? !zeros : !PayloadMatches(payload, PayloadKey(b, version[b]))) {
        r.Fail("verify read: block " + std::to_string(b) + " differs from the model");
      }
    }
    return dev.Park();
  }

  const Inputs& in_;
  std::unique_ptr<vlog::crashsim::VldCrashSim> sim_;
  vlog::crashsim::CrashSweepReport report_;
};

class CrashSweep : public Workload {
 public:
  explicit CrashSweep(uint64_t seed) : in_(Generate(seed)) {}
  std::unique_ptr<Pass> NewPass(PassMode) const override {
    return std::make_unique<CrashSweepPass>(in_);
  }

 private:
  Inputs in_;
};

}  // namespace

std::unique_ptr<Workload> MakeCrashSweep(uint64_t seed) {
  return std::make_unique<CrashSweep>(seed);
}

}  // namespace perfbench
