// Queued I/O engine: closed-loop multi-stream random 4 KB updates against the VLD on the
// HP97560, sweeping queue depth 1 -> 32. Each depth-N run keeps N streams with one outstanding
// update each; the device pipelines controller overhead, eager-writes the data blocks, and
// group-commits the whole queue's map entries in one packed virtual-log transaction. Reports
// IOPS and mean/p50/p90/p99 per-request latency with the queueing/controller/seek/rotation/
// transfer breakdown from the trace layer, plus the synchronous baseline the depth-1 row must
// match exactly; the mixed read/write legs compare the VLD's FCFS and SPTF read scheduling.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/nvm/nvm_stage.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/nvm_device.h"
#include "src/simdisk/sim_disk.h"
#include "src/workload/queue_sweep.h"

namespace {

using namespace vlog;

constexpr uint64_t kSeed = 2;

// The synchronous baseline: the same random-update sequence through Vld::Write.
double SyncBaselineMs(int updates, int warmup, double* iops_out) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 36), &clock);
  core::Vld vld(&disk, core::VldConfig{.queue_depth = 32});
  bench::Check(vld.Format(), "format");
  common::Rng rng(kSeed);
  const uint32_t blocks = vld.logical_blocks() / 2;
  std::vector<std::byte> payload(4096);
  for (int i = 0; i < warmup; ++i) {
    bench::Check(vld.Write(static_cast<simdisk::Lba>(rng.Below(blocks)) * 8, payload),
                 "warmup write");
  }
  const common::Time start = clock.Now();
  for (int i = 0; i < updates; ++i) {
    bench::Check(vld.Write(static_cast<simdisk::Lba>(rng.Below(blocks)) * 8, payload),
                 "sync write");
  }
  const common::Duration elapsed = clock.Now() - start;
  if (iops_out != nullptr) {
    *iops_out = static_cast<double>(updates) / common::ToSeconds(elapsed);
  }
  return bench::Ms(elapsed / updates);
}

// Exact (bit-for-bit) histogram equality: same buckets, count, sum, and observed range.
bool HistEq(const obs::LatencyHistogram& a, const obs::LatencyHistogram& b) {
  return a.buckets() == b.buckets() && a.Count() == b.Count() && a.Sum() == b.Sum() &&
         a.Min() == b.Min() && a.Max() == b.Max();
}

// One open-loop Poisson run with the full observability stack attached (tracer + timeline +
// SLO + steady-state), or — with `observed` false — the identical workload bare, as the
// control for the "observability never moves the virtual clock" gate.
struct OpenLoopLeg {
  workload::OpenLoopResult result;
  std::string timeline_json;
  size_t windows = 0;
  size_t violations = 0;
  std::string dominant;       // Of the first violation span.
  bool recovered = false;     // A window after the last violation span completed requests.
  bool merge_exact = false;   // Window histograms merge to the run-wide one, bit for bit.
  uint64_t steady_windows = 0;
  common::Time final_time = 0;
};

OpenLoopLeg RunOpenLoopLeg(const workload::OpenLoopOptions& options, common::Duration window,
                           common::Duration budget, bool observed) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 36), &clock);
  core::Vld vld(&disk, core::VldConfig{.queue_depth = 32});
  bench::Check(vld.Format(), "format");
  OpenLoopLeg leg;
  if (!observed) {
    leg.result = bench::CheckOk(workload::RunOpenLoopPoisson(vld, options), "open loop bare");
    leg.final_time = clock.Now();
    return leg;
  }
  obs::TraceRecorder tracer(&clock);
  disk.set_tracer(&tracer);
  obs::Timeline timeline(obs::TimelineConfig{.window = window, .start = clock.Now()});
  obs::WindowedHistogram& latency = timeline.AddHistogram("latency");
  obs::RegisterBreakdownCounters(timeline, tracer, "breakdown.");
  vld.RegisterTimelineProbes(timeline, "");
  timeline.AddSlo("latency", budget, "breakdown.");
  timeline.AddSteadySeries("vld.free_blocks");
  timeline.AddSteadySeries("p99:latency");
  timeline.ConfigureSteadyState(6, 0.15);
  leg.result =
      bench::CheckOk(workload::RunOpenLoopPoisson(vld, options, &timeline, &latency),
                     "open loop");
  timeline.Finish(clock.Now());
  leg.final_time = clock.Now();
  leg.timeline_json = timeline.Json();
  leg.windows = timeline.windows().size();
  obs::LatencyHistogram merged;
  for (const obs::TimelineWindow& w : timeline.windows()) {
    merged.Merge(w.histograms[0]);
  }
  leg.merge_exact =
      HistEq(merged, latency.total()) && HistEq(merged, leg.result.latency_hist);
  const obs::Timeline::SloResult& slo = timeline.slos()[0];
  leg.violations = slo.violations.size();
  if (!slo.violations.empty()) {
    leg.dominant = slo.violations.front().dominant;
    // Recovery is a window that served requests inside the budget. An empty trailing window
    // (the run ending just after it opened) shows nothing.
    const uint64_t last_breach = slo.violations.back().end_window;
    leg.recovered = std::any_of(timeline.windows().begin(), timeline.windows().end(),
                                [&](const obs::TimelineWindow& w) {
                                  return w.index > last_breach && w.histograms[0].Count() > 0;
                                });
  }
  leg.steady_windows = timeline.steady_windows();
  return leg;
}

// --- Long-horizon governed-compaction leg ---
//
// The paper's free-space claim run to steady state: continuous diurnal arrivals at high
// physical utilization, with the duty-cycled CompactionGovernor pacing hole-plugging against
// the foreground p99. The control leg (identical workload, governor never offered a grant)
// shows the eager allocator's fill-track reserve draining away — the free-space death spiral
// §5.2 predicts at sustained utilization — while the governed leg holds the reserve, settles
// to the steady-state detector's bar, and keeps every SLO violation span inside the declared
// overload burst plus a short recovery margin.

// Windows after the declared burst interval during which a breach (the backlog the burst
// queued still draining) or a depleted track reserve is still attributed to the burst.
constexpr uint64_t kBurstRecoveryWindows = 3;

struct LongHaulLeg {
  workload::OpenLoopResult result;
  std::string timeline_json;
  uint64_t empties_before = 0;
  uint64_t empties_after = 0;
  uint64_t min_empty_tracks = 0;  // Min vld.empty_tracks sample outside burst+margin windows.
  uint64_t tracks_compacted = 0;
  uint64_t idle_grants = 0;
  uint64_t backoffs = 0;
  size_t windows = 0;
  size_t violations = 0;
  bool violations_contained = true;  // Every span within the declared burst + margin.
  double worst_outside_ms = 0;       // Worst window p99 outside burst+margin windows.
  bool steady = false;
  uint64_t steady_windows = 0;
  // The checkpoint trade: how many checkpoints the run took (and how many of them the
  // pinned-sector valve forced in the foreground), the sectors each wrote on average (the
  // pieces its slot was missing plus the header), the device sectors written per host sector,
  // and what the log left behind costs a parked recovery on a fresh VLD.
  uint64_t checkpoints = 0;
  uint64_t auto_checkpoints = 0;
  double sectors_per_checkpoint = 0;
  double device_per_host_sector = 0;
  double parked_recovery_ms = 0;
  uint64_t parked_recovery_sectors = 0;  // Log sectors that recovery's walk read.
  // What the one-move burst rule saves and costs: how far past its deadline the average
  // granted burst ran, and how many credit grants waited for the credit to cover one move.
  double overrun_ms_per_burst = 0;
  uint64_t deferred_grants = 0;
};

LongHaulLeg RunLongHaulLeg(workload::OpenLoopOptions options, common::Duration window,
                           common::Duration budget, bool governed) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 36), &clock);
  core::Vld vld(&disk, core::VldConfig{.queue_depth = 32});
  bench::Check(vld.Format(), "format");
  // Prepopulate the whole update region so the run starts at its long-run utilization with a
  // finite fill-track reserve; every arrival is then an update that opens a hole somewhere.
  options.region_blocks = static_cast<uint32_t>(vld.logical_blocks() * 0.55);
  std::vector<std::byte> payload(4096);
  for (uint32_t b = 0; b < options.region_blocks; ++b) {
    bench::Check(vld.Write(static_cast<simdisk::Lba>(b) * 8, payload), "prepopulate");
  }
  obs::Timeline timeline(obs::TimelineConfig{.window = window, .start = clock.Now()});
  obs::WindowedHistogram& latency = timeline.AddHistogram("latency");
  vld.RegisterTimelineProbes(timeline, "");
  timeline.AddSlo("latency", budget, "vld.");
  timeline.AddSteadySeries("vld.free_blocks");
  timeline.AddSteadySeries("vld.utilization_ppm");
  timeline.ConfigureSteadyState(5, 0.05);
  core::GovernorConfig gov_config;
  gov_config.slo_budget = budget;
  // Chase a deeper reserve than the idle compactor's default target: under continuous load
  // the foreground drains whatever exists, so the trough-time surplus must stay ahead of
  // peak-time consumption.
  gov_config.target_empty_tracks = 8;
  gov_config.low_water_tracks = 3;
  // One block move costs ~29 ms of media time and a greedy victim about two, so a 25 ms
  // credit cap would grant one move at a time (the governor never caps below one move); 50 ms
  // keeps bursts preemptible but lets one finish a typical victim.
  gov_config.max_burst = common::Milliseconds(50);
  core::CompactionGovernor governor(&vld, &timeline, gov_config);
  // Registered on both legs (the control's governor just never runs) so the two timelines
  // export the identical series schema.
  governor.RegisterTimelineProbes(timeline, "");
  LongHaulLeg leg;
  leg.empties_before = vld.space().EmptyTrackCount();
  const simdisk::DiskStats disk_before = disk.stats();
  const core::VldStats vld_before = vld.stats();
  const core::VirtualLogStats vlog_before = vld.vlog().stats();
  leg.result = bench::CheckOk(
      workload::RunGovernedOpenLoop(vld, options, governed ? &governor : nullptr, &timeline,
                                    &latency),
      "long-haul leg");
  timeline.Finish(clock.Now());
  const core::VirtualLogStats vlog_delta = vld.vlog().stats() - vlog_before;
  leg.checkpoints = vlog_delta.checkpoints;
  leg.auto_checkpoints = vlog_delta.auto_checkpoints;
  leg.sectors_per_checkpoint = static_cast<double>(vlog_delta.checkpoint_sectors) /
                               static_cast<double>(std::max<uint64_t>(leg.checkpoints, 1));
  const uint64_t host_sectors =
      (vld.stats() - vld_before).blocks_written * vld.block_sectors();
  leg.device_per_host_sector = static_cast<double>((disk.stats() - disk_before).sectors_written) /
                               static_cast<double>(std::max<uint64_t>(host_sectors, 1));
  leg.empties_after = vld.space().EmptyTrackCount();
  leg.tracks_compacted = vld.compactor().stats().tracks_compacted;
  leg.idle_grants = governor.stats().idle_grants;
  leg.backoffs = governor.stats().backoffs;
  leg.overrun_ms_per_burst =
      bench::Ms(vld.compactor().stats().overrun_time) /
      static_cast<double>(std::max<uint64_t>(governor.stats().bursts, 1));
  leg.deferred_grants = governor.stats().deferred;
  leg.timeline_json = timeline.Json();
  leg.windows = timeline.windows().size();
  leg.steady = timeline.IsSteady();
  leg.steady_windows = timeline.steady_windows();
  // The declared overload interval in window indices, widened by the recovery margin: the
  // burst's arrivals queue a backlog that takes a few more windows to drain.
  const uint64_t bw_first = static_cast<uint64_t>(options.burst_start / window);
  const uint64_t bw_last =
      static_cast<uint64_t>((options.burst_start + options.burst_duration) / window) +
      kBurstRecoveryWindows;
  const obs::Timeline::SloResult& slo = timeline.slos()[0];
  leg.violations = slo.violations.size();
  for (const obs::Timeline::SloViolation& v : slo.violations) {
    leg.violations_contained &= v.start_window >= bw_first && v.end_window <= bw_last;
  }
  const int empty_gauge = timeline.GaugeIndex("vld.empty_tracks");
  uint64_t min_empty = ~0ull;
  for (const obs::TimelineWindow& w : timeline.windows()) {
    if (w.index >= bw_first && w.index <= bw_last) {
      continue;  // The declared burst may transiently eat deep into the reserve.
    }
    min_empty = std::min(min_empty, w.gauges[static_cast<size_t>(empty_gauge)]);
    leg.worst_outside_ms = std::max(leg.worst_outside_ms, w.histograms[0].Percentile(99) / 1e6);
  }
  leg.min_empty_tracks = min_empty;
  // Power down, then bring the final state up on a fresh VLD: the parked recovery walks the
  // log written since the last checkpoint, so fewer checkpoints make it longer.
  bench::Check(vld.Park(), "long-haul park");
  core::Vld restarted(&disk, core::VldConfig{.queue_depth = 32});
  const common::Time recover_start = clock.Now();
  leg.parked_recovery_sectors =
      bench::CheckOk(restarted.Recover(), "long-haul parked recovery").log_sectors_read;
  leg.parked_recovery_ms = bench::Ms(clock.Now() - recover_start);
  return leg;
}

// --- NVM staging legs (--nvm) ---
//
// The paper's two latency mechanisms composed and separated: eager writing alone (sync
// updates land wherever the head is), an NVM staging tier over NAIVE in-place placement
// (acks at NVM latency, background destage seeks to the in-place targets), and the stage
// over the eager-writing VLD (acks at NVM latency, destage batches ride the virtual log's
// group commit). Same seed, same closed-loop depth-1 sync 4 KB updates; the stage is pumped
// on a duty cycle between writes so the log never forces a synchronous overflow drain.

enum class NvmLegKind { kEagerOnly, kNvmOverNaive, kNvmOverEager };

struct NvmLeg {
  double iops = 0;
  obs::LatencyHistogram ack_hist;       // Per-write acknowledgement latency.
  obs::TimeBreakdown breakdown;         // Tracer totals over the whole leg (incl. destages).
  common::Duration trace_latency = 0;   // Tracer latency sum, for the exact identity gate.
  uint64_t staged_writes = 0;
  uint64_t overflow_drains = 0;
  uint64_t destage_batches = 0;
};

NvmLeg RunNvmLeg(NvmLegKind kind, int updates, int warmup) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 36), &clock);
  obs::TraceRecorder tracer(&clock);
  disk.set_tracer(&tracer);
  std::unique_ptr<core::Vld> vld;
  std::unique_ptr<simdisk::NvmDevice> nvm;
  std::unique_ptr<core::NvmStage> stage;
  uint32_t blocks = 0;
  if (kind == NvmLegKind::kEagerOnly || kind == NvmLegKind::kNvmOverEager) {
    vld = std::make_unique<core::Vld>(&disk, core::VldConfig{.queue_depth = 32});
    bench::Check(vld->Format(), "format");
    blocks = vld->logical_blocks() / 2;
  } else {
    blocks = static_cast<uint32_t>(disk.SectorCount() / 8 / 2);
  }
  if (kind != NvmLegKind::kEagerOnly) {
    nvm = std::make_unique<simdisk::NvmDevice>(simdisk::NvmDeviceParams{}, &clock);
    stage = kind == NvmLegKind::kNvmOverEager
                ? std::make_unique<core::NvmStage>(nvm.get(), vld.get())
                : std::make_unique<core::NvmStage>(nvm.get(),
                                                   static_cast<simdisk::BlockDevice*>(&disk));
    bench::Check(stage->Format(), "stage format");
    stage->set_tracer(&tracer);
  }
  auto write = [&](simdisk::Lba lba, std::span<const std::byte> in) {
    return stage != nullptr ? stage->Write(lba, in) : vld->Write(lba, in);
  };
  common::Rng rng(kSeed);
  std::vector<std::byte> payload(4096, std::byte{0x3C});
  for (int i = 0; i < warmup; ++i) {
    bench::Check(write(static_cast<simdisk::Lba>(rng.Below(blocks)) * 8, payload), "warmup");
    if (stage != nullptr && i % 8 == 7) {
      bench::CheckOk(stage->RunDestageBurst(common::Milliseconds(30)), "warmup destage");
    }
  }
  NvmLeg leg;
  const common::Time start = clock.Now();
  for (int i = 0; i < updates; ++i) {
    const common::Time t0 = clock.Now();
    bench::Check(write(static_cast<simdisk::Lba>(rng.Below(blocks)) * 8, payload), "update");
    leg.ack_hist.Record(static_cast<uint64_t>(clock.Now() - t0));
    // The duty cycle: one burst per 8 staged writes retires at least one 8-record batch, so
    // the log stays ahead of the offered load without ever blocking an ack.
    if (stage != nullptr && i % 8 == 7) {
      bench::CheckOk(stage->RunDestageBurst(common::Milliseconds(30)), "destage");
    }
  }
  if (stage != nullptr) {
    bench::Check(stage->Drain(), "drain");
    leg.staged_writes = stage->stats().staged_writes;
    leg.overflow_drains = stage->stats().overflow_drains;
    leg.destage_batches = stage->stats().destage_batches;
  }
  // Sustained throughput includes the destage work and the final drain: the stage defers
  // media time, it does not erase it.
  leg.iops = static_cast<double>(updates) / common::ToSeconds(clock.Now() - start);
  leg.breakdown = tracer.totals();
  leg.trace_latency = static_cast<common::Duration>(tracer.latency_hist().Sum());
  return leg;
}

int RunNvmLegs(const bench::BenchFlags& flags) {
  const int updates = flags.smoke ? 400 : 2000;
  const int warmup = flags.smoke ? 64 : 256;
  bench::Header("NVM staging three-way: sync 4 KB updates, eager vs NVM-over-naive vs both");
  bench::MetricsReport report("queue_depth_nvm");
  bench::PrintPercentileHeader();
  NvmLeg legs[3];
  const char* labels[3] = {"eager-only", "nvm-naive", "nvm-eager"};
  const NvmLegKind kinds[3] = {NvmLegKind::kEagerOnly, NvmLegKind::kNvmOverNaive,
                               NvmLegKind::kNvmOverEager};
  bool identity = true;
  for (int i = 0; i < 3; ++i) {
    legs[i] = RunNvmLeg(kinds[i], updates, warmup);
    bench::PrintPercentileRow(labels[i], legs[i].iops, legs[i].ack_hist);
    std::printf("%-16s staged %llu, destage batches %llu, overflow drains %llu, "
                "nvm %.3f ms total\n",
                "", static_cast<unsigned long long>(legs[i].staged_writes),
                static_cast<unsigned long long>(legs[i].destage_batches),
                static_cast<unsigned long long>(legs[i].overflow_drains),
                bench::Ms(legs[i].breakdown.nvm));
    report.AddRow(labels[i], legs[i].iops, legs[i].ack_hist, legs[i].breakdown,
                  {{"staged_writes", static_cast<double>(legs[i].staged_writes)},
                   {"destage_batches", static_cast<double>(legs[i].destage_batches)},
                   {"overflow_drains", static_cast<double>(legs[i].overflow_drains)}});
    identity &= legs[i].breakdown.Total() == legs[i].trace_latency;
  }
  // Acceptance gates. The headline: an acked staged sync write costs NVM time, not disk
  // time, so the staged p99 must sit far below the eager-writing p99 — and the stage must
  // actually have absorbed the traffic rather than quietly routing it around.
  const auto p99 = [](const NvmLeg& l) { return l.ack_hist.Percentile(99); };
  const bool staged_faster = p99(legs[2]) < p99(legs[0]);
  const bool naive_staged_faster = p99(legs[1]) < p99(legs[0]);
  const bool absorbed = legs[1].staged_writes == static_cast<uint64_t>(updates + warmup) &&
                        legs[2].staged_writes == static_cast<uint64_t>(updates + warmup);
  const bool no_overflow = legs[1].overflow_drains == 0 && legs[2].overflow_drains == 0;
  const bool nvm_attributed = legs[2].breakdown.nvm > 0 && legs[0].breakdown.nvm == 0;
  std::printf("\nstaged sync p99 < unstaged eager p99: %s (%.3f vs %.3f ms)\n",
              staged_faster ? "yes" : "NO", p99(legs[2]) / 1e6, p99(legs[0]) / 1e6);
  std::printf("NVM-over-naive p99 < eager p99: %s (%.3f ms)\n",
              naive_staged_faster ? "yes" : "NO", p99(legs[1]) / 1e6);
  std::printf("every sync write absorbed by the stage: %s\n", absorbed ? "yes" : "NO");
  std::printf("duty-cycled destage avoided overflow drains: %s\n", no_overflow ? "yes" : "NO");
  std::printf("breakdown components sum to latency: %s\n", identity ? "yes" : "NO");
  std::printf("nvm time attributed only on staged legs: %s\n", nvm_attributed ? "yes" : "NO");
  if (!staged_faster || !naive_staged_faster || !absorbed || !no_overflow || !identity ||
      !nvm_attributed) {
    std::fprintf(stderr, "FATAL: NVM staging acceptance gates failed\n");
    return 1;
  }
  bench::Note("\nThe stage acks at NVM latency regardless of placement policy underneath;");
  bench::Note("eager writing still wins the destage bill (group-committed batches vs seeks");
  bench::Note("back to in-place targets), which is the 'both' column's throughput edge.");
  report.MaybeWrite(flags);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::BenchFlags::Parse(argc, argv);
  if (flags.nvm) {
    return RunNvmLegs(flags);
  }
  const int updates = flags.smoke ? 400 : 2000;
  const int warmup = flags.smoke ? 64 : 256;
  bench::Header("Queue-depth sweep: closed-loop random 4 KB updates, VLD on HP97560");

  double sync_iops = 0;
  const double sync_ms = SyncBaselineMs(updates, warmup, &sync_iops);
  std::printf("sync baseline (Vld::Write): %.3f ms/update, %.0f IOPS\n\n", sync_ms, sync_iops);

  bench::MetricsReport report("queue_depth");
  bench::PrintPercentileHeader();
  double iops_depth1 = 0, iops_depth16 = 0, prev_iops = 0;
  double mean_ms_depth1 = 0;
  bool monotonic = true;
  bool breakdown_sums = true;
  for (uint32_t depth : {1u, 2u, 4u, 8u, 16u, 32u}) {
    common::Clock clock;
    simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 36), &clock);
    core::Vld vld(&disk, core::VldConfig{.queue_depth = 32});
    bench::Check(vld.Format(), "format");
    obs::TraceRecorder tracer(&clock);
    disk.set_tracer(&tracer);
    const workload::QueueDepthResult r = bench::CheckOk(
        workload::RunQueuedRandomUpdates(vld, depth, updates, warmup, kSeed), "sweep");
    char label[32];
    std::snprintf(label, sizeof(label), "depth=%u", depth);
    bench::PrintPercentileRow(label, r.iops, r.latency_hist);
    std::printf("%-16s queueing %.3f ms/req, controller %.3f, seek %.3f, rotation %.3f, "
                "transfer %.3f\n",
                "", bench::Ms(r.breakdown.queueing / static_cast<common::Duration>(r.updates)),
                bench::Ms(r.breakdown.controller / static_cast<common::Duration>(r.updates)),
                bench::Ms(r.breakdown.seek / static_cast<common::Duration>(r.updates)),
                bench::Ms(r.breakdown.rotation / static_cast<common::Duration>(r.updates)),
                bench::Ms(r.breakdown.transfer / static_cast<common::Duration>(r.updates)));
    report.AddRow(label, r.iops, r.latency_hist, r.breakdown,
                  {{"depth", static_cast<double>(depth)},
                   {"mean_queue_delay_us", static_cast<double>(r.mean_queue_delay) / 1000.0}});
    // The trace identity: per-request components (incl. the queueing residual) sum to exactly
    // the summed request latency.
    breakdown_sums &=
        r.breakdown.Total() == static_cast<common::Duration>(r.latency_hist.Sum());
    monotonic &= r.iops + 1e-9 >= prev_iops;
    prev_iops = r.iops;
    if (depth == 1) {
      iops_depth1 = r.iops;
      mean_ms_depth1 = bench::Ms(r.mean_latency);
    }
    if (depth == 16) {
      iops_depth16 = r.iops;
    }
  }

  // Write-back cache leg: the same closed-loop workload with a volatile cache in the drive.
  // The VLD's durability barriers now destage it, so the per-request breakdown gains a flush
  // component — and the exact breakdown-sums-to-latency identity must keep holding.
  // Attribution follows the group-commit rule: a depth-1 batch's commit (and thus its destage
  // work) is the request's own, so its flush column is populated; a shared commit belongs to
  // no single request and its destage time folds into each member's queueing residual.
  bench::Note("\nWith volatile write-back drive cache (barriers destage; flush component):");
  bool cached_flush_seen = false;
  for (uint32_t depth : {1u, 4u, 16u}) {
    common::Clock clock;
    simdisk::DiskParams params = simdisk::Truncated(simdisk::Hp97560(), 36);
    params.cache.capacity_sectors = 4096;
    simdisk::SimDisk disk(params, &clock);
    core::Vld vld(&disk, core::VldConfig{.queue_depth = 32});
    bench::Check(vld.Format(), "format");
    obs::TraceRecorder tracer(&clock);
    disk.set_tracer(&tracer);
    const workload::QueueDepthResult r = bench::CheckOk(
        workload::RunQueuedRandomUpdates(vld, depth, updates, warmup, kSeed), "cached sweep");
    char label[32];
    std::snprintf(label, sizeof(label), "depth=%u+wbc", depth);
    bench::PrintPercentileRow(label, r.iops, r.latency_hist);
    std::printf("%-16s queueing %.3f ms/req, controller %.3f, transfer %.3f, flush %.3f\n", "",
                bench::Ms(r.breakdown.queueing / static_cast<common::Duration>(r.updates)),
                bench::Ms(r.breakdown.controller / static_cast<common::Duration>(r.updates)),
                bench::Ms(r.breakdown.transfer / static_cast<common::Duration>(r.updates)),
                bench::Ms(r.breakdown.flush / static_cast<common::Duration>(r.updates)));
    report.AddRow(label, r.iops, r.latency_hist, r.breakdown,
                  {{"depth", static_cast<double>(depth)},
                   {"cache_sectors", static_cast<double>(params.cache.capacity_sectors)},
                   {"flushes", static_cast<double>(disk.stats().flushes)},
                   {"destaged_sectors", static_cast<double>(disk.stats().destaged_sectors)}});
    breakdown_sums &=
        r.breakdown.Total() == static_cast<common::Duration>(r.latency_hist.Sum());
    cached_flush_seen |= r.breakdown.flush > 0;
  }

  // Mixed read/write legs: reads join the queue (SubmitRead), where the positional scheduler
  // finally has something to optimize — reads go where the data *is*, writes go wherever the
  // allocator finds a block (the fill track here). Each depth-N run keeps N streams with one
  // outstanding op each; FCFS vs SPTF on the same seed isolates the scheduling gain.
  // Per-stream histograms feed the max/min throughput fairness ratio.
  bool sptf_beats_fcfs = true;
  double worst_fairness = 1.0;
  for (const auto& [mix_label, read_fraction] :
       {std::pair<const char*, double>{"r90", 0.9}, {"r50", 0.5}}) {
    bench::Note(std::string("\nMixed streams, ") + mix_label +
                " (read fraction " + std::to_string(read_fraction).substr(0, 4) +
                "), FCFS vs SPTF:");
    bench::PrintPercentileHeader();
    for (uint32_t depth : {1u, 2u, 4u, 8u, 16u, 32u}) {
      double iops_by_policy[2] = {0, 0};
      int which = 0;
      for (const core::SchedulerPolicy policy :
           {core::SchedulerPolicy::kFcfs, core::SchedulerPolicy::kSptf}) {
        common::Clock clock;
        simdisk::SimDisk disk(simdisk::Truncated(simdisk::Hp97560(), 36), &clock);
        core::Vld vld(&disk, core::VldConfig{.queue_depth = 32, .read_policy = policy});
        bench::Check(vld.Format(), "format");
        obs::TraceRecorder tracer(&clock);
        disk.set_tracer(&tracer);
        workload::MixedStreamOptions options;
        options.streams = depth;
        options.ops = updates;
        options.warmup = warmup;
        options.seed = kSeed;
        options.stream_configs = {workload::StreamConfig{.read_fraction = read_fraction}};
        const workload::MixedStreamResult r =
            bench::CheckOk(workload::RunMixedStreams(vld, options), "mixed sweep");
        const bool sptf = policy == core::SchedulerPolicy::kSptf;
        char label[48];
        std::snprintf(label, sizeof(label), "%s/%s/d%u", mix_label, sptf ? "sptf" : "fcfs",
                      depth);
        bench::PrintPercentileRow(label, r.iops, r.latency_hist);
        const double fairness = r.FairnessRatio();
        std::printf("%-16s fairness %.2f, forwarded %llu sectors, queueing %.3f ms/req\n", "",
                    fairness,
                    static_cast<unsigned long long>(vld.stats().forwarded_read_sectors),
                    bench::Ms(r.breakdown.queueing / static_cast<common::Duration>(
                                                         r.ops > 0 ? r.ops : 1)));
        // Reads and writes finish at different points of a batch (a read at its own service
        // time, a write at the group commit), so each class gets its own percentiles.
        const auto ms = [](const obs::LatencyHistogram& h, double p) {
          return h.Percentile(p) / 1e6;
        };
        std::printf("%-16s read p50 %.3f p99 %.3f ms, write p50 %.3f p99 %.3f ms\n", "",
                    ms(r.read_hist, 50), ms(r.read_hist, 99), ms(r.write_hist, 50),
                    ms(r.write_hist, 99));
        std::map<std::string, double> extra = {
            {"depth", static_cast<double>(depth)},
            {"read_fraction", read_fraction},
            {"sptf", sptf ? 1.0 : 0.0},
            {"fairness_ratio", fairness},
            {"read_p50_ms", ms(r.read_hist, 50)},
            {"read_p99_ms", ms(r.read_hist, 99)},
            {"write_p50_ms", ms(r.write_hist, 50)},
            {"write_p99_ms", ms(r.write_hist, 99)},
        };
        for (const workload::StreamResult& s : r.streams) {
          char key[32];
          std::snprintf(key, sizeof(key), "s%u_p50_us", s.stream);
          extra[key] = static_cast<double>(s.p50_latency) / 1000.0;
          std::snprintf(key, sizeof(key), "s%u_p99_us", s.stream);
          extra[key] = static_cast<double>(s.p99_latency) / 1000.0;
        }
        report.AddRow(label, r.iops, r.latency_hist, r.breakdown, extra);
        breakdown_sums &=
            r.breakdown.Total() == static_cast<common::Duration>(r.latency_hist.Sum());
        iops_by_policy[which++] = r.iops;
        if (depth >= 8) {
          worst_fairness = std::max(worst_fairness, fairness);
        }
      }
      // The read-heavy gate: SPTF must beat FCFS once the queue is deep enough to reorder.
      if (read_fraction > 0.5 && depth >= 8) {
        sptf_beats_fcfs &= iops_by_policy[1] > iops_by_policy[0];
      }
    }
  }

  // Open-loop Poisson leg: arrivals are exogenous (decoupled from completions), so offered
  // load above the ~380 IOPS depth-32 service capacity grows an unbounded backlog and
  // arrival->completion latency climbs until the burst ends — the timeline's SLO monitor must
  // see that breach, attribute its dominant component, and watch it recover. Run twice on the
  // same seed (timeline export must be byte-identical) plus once bare (observability must not
  // move the virtual clock).
  bench::Note("\nOpen-loop Poisson arrivals (150/s base, 1.2k/s burst; p99 SLO 50 ms/250 ms "
              "window):");
  workload::OpenLoopOptions olopt;
  olopt.rate_ops_per_s = 150;
  olopt.burst_rate_ops_per_s = 1200;
  olopt.burst_start = flags.smoke ? common::Milliseconds(400) : common::Milliseconds(1000);
  olopt.burst_duration = flags.smoke ? common::Milliseconds(400) : common::Milliseconds(1000);
  olopt.arrivals = flags.smoke ? 800 : 2000;
  olopt.seed = kSeed;
  const common::Duration ol_window = common::Milliseconds(250);
  const common::Duration ol_budget = common::Milliseconds(50);
  const OpenLoopLeg leg = RunOpenLoopLeg(olopt, ol_window, ol_budget, true);
  const OpenLoopLeg rerun = RunOpenLoopLeg(olopt, ol_window, ol_budget, true);
  const OpenLoopLeg bare = RunOpenLoopLeg(olopt, ol_window, ol_budget, false);
  bench::PrintPercentileHeader();
  bench::PrintPercentileRow("open-loop", leg.result.achieved_iops, leg.result.latency_hist);
  std::printf("%-16s offered %.0f/s, peak backlog %llu, %zu windows, %zu violation span(s), "
              "dominant '%s'\n",
              "", leg.result.offered_rate,
              static_cast<unsigned long long>(leg.result.max_backlog), leg.windows,
              leg.violations, leg.dominant.c_str());
  report.AddRow("open-loop", leg.result.achieved_iops, leg.result.latency_hist,
                leg.result.breakdown,
                {{"offered_rate", leg.result.offered_rate},
                 {"max_backlog", static_cast<double>(leg.result.max_backlog)},
                 {"windows", static_cast<double>(leg.windows)},
                 {"slo_violations", static_cast<double>(leg.violations)},
                 {"steady_windows", static_cast<double>(leg.steady_windows)}});
  const bool ol_deterministic =
      !leg.timeline_json.empty() && leg.timeline_json == rerun.timeline_json;
  const bool ol_windows = leg.windows >= 1;
  const bool ol_breach = leg.violations >= 1 && !leg.dominant.empty();
  const bool ol_clock_pure = leg.final_time == bare.final_time &&
                             leg.result.makespan == bare.result.makespan;

  // Long-horizon leg: diurnal arrivals at high utilization, run to steady state, governed vs
  // governor-off control. Window width == the diurnal period so gauge samples are
  // phase-aligned (each window close sees the same point of the cycle).
  bench::Note("\nLong-horizon governed compaction (diurnal 24/s, declared 1.2k/s burst; "
              "p99 SLO 400 ms / 2 s windows):");
  workload::OpenLoopOptions lh;
  lh.process = workload::ArrivalProcess::kDiurnal;
  // One track compacted (~60 ms of media time: about two ~29 ms block moves) buys ~7
  // foreground updates, so sustaining rate R costs the compactor ~R/7 tracks/s on top of the
  // foreground's own ~3 ms/op. 24/s (~3.4 tracks/s of demand) keeps the governed leg at steady
  // state with its reserve held, while an ungoverned reserve still drains to nothing well
  // before the run ends.
  lh.rate_ops_per_s = 24;
  lh.diurnal_period = common::Seconds(2);
  lh.diurnal_amplitude = 0.75;
  lh.burst_rate_ops_per_s = 1200;
  lh.burst_start = common::Seconds(4);
  lh.burst_duration = common::Milliseconds(400);
  lh.arrivals = flags.smoke ? 1400 : 1000000;
  lh.max_batch = 8;
  lh.seed = kSeed;
  const common::Duration lh_window = common::Seconds(2);
  // The budget needs headroom over the governed steady-state tail (window p99 up to ~150 ms
  // at this rate: diurnal-peak queueing plus compaction moves the foreground lands behind).
  // Set too close to equilibrium, every second window violates, the AIMD duty collapses, and
  // the reserve hovers at the pressure floor instead of the target — a backoff storm, not a
  // pace.
  const common::Duration lh_budget = common::Milliseconds(400);
  const LongHaulLeg lh_governed = RunLongHaulLeg(lh, lh_window, lh_budget, true);
  const LongHaulLeg lh_control = RunLongHaulLeg(lh, lh_window, lh_budget, false);
  bench::PrintPercentileHeader();
  bench::PrintPercentileRow("longhaul-gov", lh_governed.result.achieved_iops,
                            lh_governed.result.latency_hist);
  std::printf("%-16s empty tracks %llu -> %llu (min outside burst %llu), %llu compacted, "
              "%zu violation span(s), worst p99 outside burst %.1f ms, steady x%llu\n",
              "", static_cast<unsigned long long>(lh_governed.empties_before),
              static_cast<unsigned long long>(lh_governed.empties_after),
              static_cast<unsigned long long>(lh_governed.min_empty_tracks),
              static_cast<unsigned long long>(lh_governed.tracks_compacted),
              lh_governed.violations, lh_governed.worst_outside_ms,
              static_cast<unsigned long long>(lh_governed.steady_windows));
  bench::PrintPercentileRow("longhaul-off", lh_control.result.achieved_iops,
                            lh_control.result.latency_hist);
  std::printf("%-16s empty tracks %llu -> %llu (death spiral control)\n", "",
              static_cast<unsigned long long>(lh_control.empties_before),
              static_cast<unsigned long long>(lh_control.empties_after));
  for (const LongHaulLeg* l : {&lh_governed, &lh_control}) {
    const char* label = l == &lh_governed ? "longhaul-gov" : "longhaul-off";
    std::printf("%-16s %llu checkpoint(s) of %.1f sectors each, %llu forced by the valve; %.3f "
                "device sectors per host sector; parked recovery %.1f ms (%llu log sectors)\n",
                label, static_cast<unsigned long long>(l->checkpoints), l->sectors_per_checkpoint,
                static_cast<unsigned long long>(l->auto_checkpoints), l->device_per_host_sector,
                l->parked_recovery_ms,
                static_cast<unsigned long long>(l->parked_recovery_sectors));
    std::printf("%-16s bursts overran their deadline by %.3f ms each on average; %llu credit "
                "grant(s) withheld below one move\n",
                label, l->overrun_ms_per_burst,
                static_cast<unsigned long long>(l->deferred_grants));
    report.AddRow(label, l->result.achieved_iops, l->result.latency_hist, l->result.breakdown,
                  {{"empties_before", static_cast<double>(l->empties_before)},
                   {"empties_after", static_cast<double>(l->empties_after)},
                   {"min_empty_tracks", static_cast<double>(l->min_empty_tracks)},
                   {"tracks_compacted", static_cast<double>(l->tracks_compacted)},
                   {"idle_grants", static_cast<double>(l->idle_grants)},
                   {"backoffs", static_cast<double>(l->backoffs)},
                   {"windows", static_cast<double>(l->windows)},
                   {"slo_violations", static_cast<double>(l->violations)},
                   {"steady_windows", static_cast<double>(l->steady_windows)},
                   {"checkpoints", static_cast<double>(l->checkpoints)},
                   {"auto_checkpoints", static_cast<double>(l->auto_checkpoints)},
                   {"sectors_per_checkpoint", l->sectors_per_checkpoint},
                   {"device_sectors_per_host_sector", l->device_per_host_sector},
                   {"parked_recovery_ms", l->parked_recovery_ms},
                   {"parked_recovery_sectors", static_cast<double>(l->parked_recovery_sectors)},
                   {"overrun_ms_per_burst", l->overrun_ms_per_burst},
                   {"deferred_grants", static_cast<double>(l->deferred_grants)}});
  }
  const bool lh_steady = lh_governed.steady;
  const bool lh_floor =
      lh_governed.min_empty_tracks >= 1 && lh_governed.empties_after >= 2;
  const bool lh_contained =
      lh_governed.violations >= 1 && lh_governed.violations_contained;
  const bool lh_spiral = lh_control.empties_after < lh_control.empties_before &&
                         lh_governed.empties_after > lh_control.empties_after &&
                         lh_governed.tracks_compacted > 0;
  // Idle time must release piled-up pins before the foreground valve has to checkpoint.
  const bool lh_valve_idle = lh_governed.auto_checkpoints == 0;

  bench::Note("");
  // Acceptance gates: depth-1 latency identical to the sync path (tracing attached — it must
  // not move the clock), IOPS monotonically non-decreasing in depth, >= 2x throughput at
  // depth 16, and the traced breakdown summing exactly to the measured latency — including
  // the flush component on the write-back-cache rows and the queued-read mixed legs. The
  // read-heavy legs must show SPTF beating FCFS at every depth >= 8.
  const bool depth1_matches = mean_ms_depth1 == sync_ms;
  const bool doubled = iops_depth16 >= 2.0 * iops_depth1;
  std::printf("depth-1 latency == sync path: %s (%.3f vs %.3f ms)\n",
              depth1_matches ? "yes" : "NO", mean_ms_depth1, sync_ms);
  std::printf("IOPS monotonically non-decreasing: %s\n", monotonic ? "yes" : "NO");
  std::printf("depth-16 speedup >= 2x: %s (%.2fx)\n", doubled ? "yes" : "NO",
              iops_depth1 > 0 ? iops_depth16 / iops_depth1 : 0.0);
  std::printf("breakdown components sum to latency: %s\n", breakdown_sums ? "yes" : "NO");
  std::printf("write-back rows report a flush component: %s\n",
              cached_flush_seen ? "yes" : "NO");
  std::printf("read-heavy SPTF > FCFS at depth >= 8: %s (worst fairness %.2f)\n",
              sptf_beats_fcfs ? "yes" : "NO", worst_fairness);
  std::printf("open-loop timeline byte-identical on rerun: %s\n",
              ol_deterministic ? "yes" : "NO");
  std::printf("open-loop timeline has windows: %s (%zu)\n", ol_windows ? "yes" : "NO",
              leg.windows);
  std::printf("open-loop burst breaches the SLO with a dominant component: %s\n",
              ol_breach ? "yes" : "NO");
  std::printf("open-loop SLO breach recovers before end of run: %s\n",
              leg.recovered ? "yes" : "NO");
  std::printf("window histograms merge to run-wide exactly: %s\n",
              leg.merge_exact ? "yes" : "NO");
  std::printf("observability never moves the virtual clock: %s\n",
              ol_clock_pure ? "yes" : "NO");
  std::printf("long-haul steady-state detector fires: %s (x%llu)\n", lh_steady ? "yes" : "NO",
              static_cast<unsigned long long>(lh_governed.steady_windows));
  std::printf("long-haul reserve stays above the allocator floor: %s (min %llu, end %llu)\n",
              lh_floor ? "yes" : "NO",
              static_cast<unsigned long long>(lh_governed.min_empty_tracks),
              static_cast<unsigned long long>(lh_governed.empties_after));
  std::printf("long-haul p99 breaches only inside the declared burst: %s (%zu span(s))\n",
              lh_contained ? "yes" : "NO", lh_governed.violations);
  std::printf("long-haul governor-off control shows the death spiral: %s (%llu -> %llu)\n",
              lh_spiral ? "yes" : "NO",
              static_cast<unsigned long long>(lh_control.empties_before),
              static_cast<unsigned long long>(lh_control.empties_after));
  std::printf("long-haul pinned-sector valve never fires under the governor: %s (x%llu)\n",
              lh_valve_idle ? "yes" : "NO",
              static_cast<unsigned long long>(lh_governed.auto_checkpoints));
  if (!depth1_matches || !monotonic || !doubled || !breakdown_sums || !cached_flush_seen ||
      !sptf_beats_fcfs || !ol_deterministic || !ol_windows || !ol_breach || !leg.recovered ||
      !leg.merge_exact || !ol_clock_pure || !lh_steady || !lh_floor || !lh_contained ||
      !lh_spiral || !lh_valve_idle) {
    std::fprintf(stderr, "FATAL: queue-depth acceptance gates failed\n");
    return 1;
  }

  bench::Note("\nGroup commit turns N map-sector appends into ceil(N/8) packed log writes and");
  bench::Note("hides per-command controller overhead behind media time; SPTF additionally cuts");
  bench::Note("positioning on a deep queue (Section 4.2's 'many entries share one sector').");
  report.MaybeWrite(flags);
  bench::MaybeWriteTimeline(flags, leg.timeline_json);
  bench::MaybeWriteNamedTimeline(flags, "longhaul", lh_governed.timeline_json);
  // The governor-off control too: the steady-state-vs-death-spiral pair in EXPERIMENTS.md
  // is rendered from these two artifacts.
  bench::MaybeWriteNamedTimeline(flags, "longhaul_off", lh_control.timeline_json);
  return 0;
}
