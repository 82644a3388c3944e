// Closed-loop multi-stream random-update driver for the queued VLD write engine.
//
// Models `depth` independent streams, each keeping exactly one 4 KB random update
// outstanding: the device accepts a queue's worth of requests, services them with the
// controller pipelined against the media, and acknowledges the whole group when its single
// packed map commit is durable — at which point every stream immediately submits its next
// update (closed loop). Per-request latency is measured submit -> group-commit on the virtual
// clock; IOPS over the measured interval. Depth 1 degenerates to the synchronous Write path.
#ifndef SRC_WORKLOAD_QUEUE_SWEEP_H_
#define SRC_WORKLOAD_QUEUE_SWEEP_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/governor.h"
#include "src/core/vld.h"
#include "src/obs/histogram.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"

namespace vlog::workload {

struct QueueDepthResult {
  uint32_t depth = 0;
  uint64_t updates = 0;           // Measured requests (excludes warmup).
  double iops = 0;                // Measured requests per simulated second.
  common::Duration mean_latency = 0;
  common::Duration p50_latency = 0;
  common::Duration p90_latency = 0;
  common::Duration p99_latency = 0;
  common::Duration max_latency = 0;
  // Mean time a request waited behind earlier queue entries before its controller work began
  // (FlushQueue services FIFO; placement is eager so service order cannot improve writes).
  common::Duration mean_queue_delay = 0;
  // Per-request latencies (ns) over the measured window, for mergeable percentile export.
  obs::LatencyHistogram latency_hist;
  // Sum over measured requests of where their time went; components add up to the total
  // simulated request time. Zero unless a TraceRecorder is attached to the Vld's disk.
  obs::TimeBreakdown breakdown;
};

// Runs `warmup` unmeasured then `updates` measured random 4 KB updates over the first half of
// the device's logical space, `depth` streams closed-loop. The Vld must be freshly formatted
// with queue_depth >= depth.
common::StatusOr<QueueDepthResult> RunQueuedRandomUpdates(core::Vld& vld, uint32_t depth,
                                                          int updates, int warmup,
                                                          uint64_t seed = 2);

// --- Mixed read/write multi-stream driver (SubmitRead + SubmitWrite through one queue) ---

// Deterministic Zipf(theta) sampler over ranks [0, n): rank 0 is hottest, p(i) ~ 1/(i+1)^theta.
// theta 0 degenerates to uniform. Sampling is a binary search over a precomputed CDF.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double theta);
  uint32_t Sample(common::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// One stream's behavior in a mixed run.
struct StreamConfig {
  double read_fraction = 0.5;       // P(next op is a read).
  common::Duration think_time = 0;  // Idle time between a completion and the next submission.
  double zipf_theta = 0.0;          // Block-address skew (0 = uniform over the region).
};

struct StreamResult {
  uint32_t stream = 0;
  uint64_t reads = 0;   // Measured ops.
  uint64_t writes = 0;
  double iops = 0;      // Measured ops over the shared measured window.
  common::Duration p50_latency = 0;
  common::Duration p99_latency = 0;
  obs::LatencyHistogram latency_hist;  // Per-request latencies (ns), reads and writes.
};

struct MixedStreamResult {
  uint64_t ops = 0;  // Measured ops across all streams.
  double iops = 0;
  obs::LatencyHistogram latency_hist;
  obs::LatencyHistogram read_hist;   // latency_hist's reads...
  obs::LatencyHistogram write_hist;  // ...and its writes.
  obs::TimeBreakdown breakdown;  // Tracer totals over the measured window (zero untraced).
  std::vector<StreamResult> streams;

  // Max/min per-stream throughput over the shared window — 1.0 is perfectly fair; a scheduler
  // that feasts on near requests and starves a far stream drives this up.
  double FairnessRatio() const;
};

struct MixedStreamOptions {
  uint32_t streams = 4;  // Also the queue depth driven (one outstanding op per stream).
  int ops = 1000;        // Measured completions (across streams; excludes warmup).
  int warmup = 100;
  uint64_t seed = 2;
  // Per-stream behavior: size streams(), or size 1 to apply to every stream, or empty for
  // defaults. Each stream's Zipf hot spot is rotated so hot sets do not collide.
  std::vector<StreamConfig> stream_configs;
  // Write every block in the region once before warmup so reads hit mapped blocks.
  bool prepopulate = true;
};

// Runs a closed-loop mixed read/write workload over the first half of the logical space:
// each stream keeps one 4 KB op outstanding (submitted when its think time expires), the
// queue group-services via FlushQueue, and per-stream latency histograms are collected over
// the measured window. The Vld must be freshly formatted with queue_depth >= streams.
common::StatusOr<MixedStreamResult> RunMixedStreams(core::Vld& vld,
                                                    const MixedStreamOptions& options);

// --- Open-loop Poisson arrival driver ---
//
// Unlike the closed-loop drivers above (where the submission rate adapts to the device —
// saturation shows up as flat throughput, never as unbounded queues), arrivals here are an
// exogenous Poisson process: requests arrive whether or not earlier ones completed, queue in
// an unbounded arrival backlog in front of the device queue, and latency is measured
// arrival -> completion, so time spent waiting in the backlog counts. Offered load above the
// service capacity therefore produces the classic open-loop signature — latency grows with
// the backlog until the offered rate drops back below capacity — which is exactly the SLO
// breach-and-recovery shape the timeline leg of bench_queue_depth asserts.

// Arrival-process shapes for the open-loop driver. Every process is pre-generated up front
// from the seed and options alone — generation touches no clock and no device, so the same
// seed always yields the same schedule regardless of how the device keeps up.
enum class ArrivalProcess {
  kPoisson,  // Homogeneous base rate (plus the optional burst-interval override).
  kOnOff,    // Alternating ON (base rate) and OFF (silent) phases — bursty traffic.
  kDiurnal,  // Sinusoid-modulated rate: rate * (1 + amplitude * sin(2*pi*t/period)).
};

struct OpenLoopOptions {
  double rate_ops_per_s = 2000;      // Base Poisson arrival rate.
  // Arrivals inside [burst_start, burst_start + burst_duration) (relative to run start) use
  // this rate instead — set above the device's service capacity to force an SLO breach that
  // recovers once the burst ends. 0 disables the burst. The burst overrides whatever rate the
  // arrival process would otherwise be running (it is the *declared* overload interval the
  // long-horizon bench excludes from its p99 gate).
  double burst_rate_ops_per_s = 0;
  common::Duration burst_start = 0;
  common::Duration burst_duration = 0;
  int arrivals = 2000;        // Total arrivals; the run ends when all have completed.
  double read_fraction = 0;   // P(an arrival is a 4 KB read) — writes otherwise.
  uint64_t seed = 2;
  // Max requests submitted per FlushQueue batch (clamped to the device queue depth; 0 = use
  // the device queue depth). Smaller batches poll the timeline more often.
  uint32_t max_batch = 0;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  common::Duration on_duration = common::Milliseconds(500);   // kOnOff phase lengths.
  common::Duration off_duration = common::Milliseconds(500);
  common::Duration diurnal_period = common::Seconds(2);  // kDiurnal modulation period.
  double diurnal_amplitude = 0.5;                        // Peak rate swing, in [0, 1).
  // Logical blocks the ops address, starting at block 0 (0 = half the logical space). Raising
  // this raises steady-state physical utilization — the long-horizon legs use it to put the
  // allocator under real free-space pressure.
  uint32_t region_blocks = 0;
};

struct OpenLoopResult {
  uint64_t ops = 0;
  double offered_rate = 0;   // Arrivals per second of arrival-process span.
  double achieved_iops = 0;  // Completions per second of makespan.
  common::Duration makespan = 0;
  uint64_t max_backlog = 0;  // Peak arrival-backlog depth (arrived, not yet submitted).
  obs::LatencyHistogram latency_hist;  // Arrival -> completion (includes backlog wait).
  obs::TimeBreakdown breakdown;        // Tracer totals over the run (zero untraced).
};

// Runs `arrivals` open-loop 4 KB random ops over the first half of the logical space. When
// `timeline` is non-null it is Poll()ed at every batch boundary and idle jump (the driver
// never calls Finish — the caller owns export). When `latency` is non-null every completion's
// arrival->completion latency is recorded there as well as in the result histogram, so a
// timeline window histogram can track the same series. The Vld must be freshly formatted.
common::StatusOr<OpenLoopResult> RunOpenLoopPoisson(core::Vld& vld,
                                                    const OpenLoopOptions& options,
                                                    obs::Timeline* timeline = nullptr,
                                                    obs::WindowedHistogram* latency = nullptr);

// The arrival schedule RunOpenLoopPoisson would use, relative to `start`: strictly increasing
// timestamps, `options.arrivals` of them. kPoisson draws exponential interarrivals at the
// piecewise rate; kOnOff/kDiurnal thin a max-rate Poisson stream against the instantaneous
// rate (Lewis-Shedler), so non-homogeneous schedules stay a pure function of (seed, options).
// Clock-pure: reads and advances nothing.
std::vector<common::Time> GenerateArrivals(const OpenLoopOptions& options, common::Time start);

// RunOpenLoopPoisson with duty-cycled background compaction: between foreground batches the
// driver offers the governor a grant (RunBurst(0)), and on idle jumps it declares the arrival
// gap as a trough (RunBurst(gap)) before advancing to the next arrival. `governor` must
// govern `vld`; passing nullptr is exactly RunOpenLoopPoisson. The timeline (when non-null)
// is additionally Polled after each governed burst so compaction time lands in the right
// window.
common::StatusOr<OpenLoopResult> RunGovernedOpenLoop(core::Vld& vld,
                                                     const OpenLoopOptions& options,
                                                     core::CompactionGovernor* governor,
                                                     obs::Timeline* timeline = nullptr,
                                                     obs::WindowedHistogram* latency = nullptr);

}  // namespace vlog::workload

#endif  // SRC_WORKLOAD_QUEUE_SWEEP_H_
