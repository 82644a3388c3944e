// Closed-loop random-update driver for the queued VLD engine and the multi-disk virtual-log
// array, and a random-read driver for the array.
//
// The update driver models `depth` independent streams, each keeping exactly one one-block
// random update outstanding: the device accepts a queue's worth of requests, services them
// with the controller pipelined against the media, and acknowledges the whole group when its
// packed map commit is durable — at which point every stream immediately submits its next
// update (closed loop). Per-request latency is measured submit -> acknowledgement on the
// virtual clock; IOPS over the measured interval. On a VldArray every batch fans out as one
// packed group commit per touched member with a cross-disk completion barrier; the same
// region and seed through the bare member Vld make the same requests, which is how an N = 1
// array is shown to dissolve completely.
//
// The read driver measures synchronous array reads over a region prepopulated with a known
// per-block pattern, verifying every returned payload — run it healthy and again with a
// replica marked failed to compare mirrored degraded-mode latency against the read-balanced
// healthy path.
#ifndef SRC_WORKLOAD_ARRAY_SWEEP_H_
#define SRC_WORKLOAD_ARRAY_SWEEP_H_

#include <cstdint>

#include "src/array/vld_array.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/obs/histogram.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"

namespace vlog::workload {

struct UpdateSweepResult {
  uint32_t depth = 0;
  uint64_t updates = 0;           // Measured requests (excludes warmup).
  double iops = 0;                // Measured requests per simulated second.
  common::Duration mean_latency = 0;
  common::Duration p50_latency = 0;
  common::Duration p99_latency = 0;
  // Mean time a request waited behind earlier queue entries before its controller work began.
  common::Duration mean_queue_delay = 0;
  obs::LatencyHistogram latency_hist;  // Per-request latencies (ns), mergeable.
  // Sum over measured requests of where their time went; components add up to the total
  // simulated request time. Zero unless a TraceRecorder is attached to a bare Vld's disk.
  obs::TimeBreakdown breakdown;
};

// Runs `warmup` unmeasured then `updates` measured random one-block updates over the first
// `region_blocks` blocks (0 = the first half of the device), `depth` streams closed-loop.
// Payload bytes follow the deterministic pattern (block * 131 + offset * 7) so reads can
// verify content later. `Device` is core::Vld or array::VldArray, freshly formatted, with
// queue_depth() >= depth. When `timeline` is non-null it is Poll()ed with the device time
// (the array's barrier time) at every batch boundary (warmup included); when `latency` is
// non-null every measured completion's latency is recorded there too, so a timeline window
// histogram tracks the same series the result histogram summarizes.
template <typename Device>
common::StatusOr<UpdateSweepResult> RunRandomUpdates(Device& dev, uint32_t depth, int updates,
                                                     int warmup, uint64_t seed = 2,
                                                     uint32_t region_blocks = 0,
                                                     obs::Timeline* timeline = nullptr,
                                                     obs::WindowedHistogram* latency = nullptr);
extern template common::StatusOr<UpdateSweepResult> RunRandomUpdates(
    core::Vld&, uint32_t, int, int, uint64_t, uint32_t, obs::Timeline*, obs::WindowedHistogram*);
extern template common::StatusOr<UpdateSweepResult> RunRandomUpdates(
    array::VldArray&, uint32_t, int, int, uint64_t, uint32_t, obs::Timeline*,
    obs::WindowedHistogram*);

// Writes the deterministic pattern to every block of the region (0 = first half), so
// RunArrayRandomReads can verify payloads. Uses the synchronous write path.
common::Status PrepopulateArray(array::VldArray& array, uint32_t region_blocks = 0);

struct ArrayReadResult {
  uint64_t reads = 0;
  double iops = 0;
  common::Duration mean_latency = 0;
  common::Duration p50_latency = 0;
  common::Duration p99_latency = 0;
  obs::LatencyHistogram latency_hist;
  bool payloads_ok = true;  // Every read returned its block's expected pattern.
};

// Runs `reads` synchronous random one-block reads over the (prepopulated) region, verifying
// each payload against the deterministic pattern. Latency is the array-clock delta per read.
common::StatusOr<ArrayReadResult> RunArrayRandomReads(array::VldArray& array, int reads,
                                                      uint64_t seed = 3,
                                                      uint32_t region_blocks = 0);

}  // namespace vlog::workload

#endif  // SRC_WORKLOAD_ARRAY_SWEEP_H_
