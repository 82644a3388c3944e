#include "src/workload/array_sweep.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/rng.h"
#include "src/workload/payload.h"

namespace vlog::workload {

namespace {

// The deterministic block payload the update and read drivers agree on: byte j of block b is
// (b * 131 + j * 7) & 0xFF.
void FillPattern(uint32_t block, std::vector<std::byte>& payload) {
  FillAffinePayload(payload, block * 131u);
}

// Fills `result`'s rate and latency summary (an UpdateSweepResult or an ArrayReadResult) from
// the measured latencies and the interval they span.
template <typename Result>
void Summarize(std::vector<common::Duration> latencies, common::Duration elapsed,
               Result* result) {
  result->iops =
      elapsed > 0 ? static_cast<double>(latencies.size()) / common::ToSeconds(elapsed) : 0;
  common::Duration total = 0;
  for (const common::Duration lat : latencies) {
    total += lat;
    result->latency_hist.Record(lat);
  }
  result->mean_latency =
      latencies.empty() ? 0 : total / static_cast<common::Duration>(latencies.size());
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    const auto exact_pct = [&](size_t pct) {
      return latencies[std::min(latencies.size() - 1, latencies.size() * pct / 100)];
    };
    result->p50_latency = exact_pct(50);
    result->p99_latency = exact_pct(99);
  }
}

// The device's notion of current time: the member clock for a bare Vld, the array barrier
// time for an array.
common::Time Now(core::Vld& vld) { return vld.disk().clock()->Now(); }
common::Time Now(array::VldArray& array) { return array.now(); }
// Where the breakdown comes from: a bare Vld's recorder. An array's would need its members'.
obs::TraceRecorder* Tracer(core::Vld& vld) { return vld.disk().tracer(); }
obs::TraceRecorder* Tracer(array::VldArray&) { return nullptr; }

}  // namespace

template <typename Device>
common::StatusOr<UpdateSweepResult> RunRandomUpdates(Device& dev, uint32_t depth, int updates,
                                                     int warmup, uint64_t seed,
                                                     uint32_t region_blocks,
                                                     obs::Timeline* timeline,
                                                     obs::WindowedHistogram* window_latency) {
  if (depth == 0 || depth > dev.queue_depth()) {
    return common::InvalidArgument("update sweep: depth out of range");
  }
  const uint32_t block_sectors = dev.block_sectors();
  const uint32_t device_blocks = static_cast<uint32_t>(dev.SectorCount() / block_sectors);
  const uint32_t blocks = region_blocks != 0 ? region_blocks : device_blocks / 2;
  if (blocks == 0 || blocks > device_blocks) {
    return common::InvalidArgument("update sweep: region out of range");
  }
  common::Rng rng(seed);
  std::vector<std::byte> payload(static_cast<size_t>(block_sectors) * dev.SectorBytes());

  common::Duration queue_delay_total = 0;
  // One closed-loop round: every stream submits its next update (all streams became ready at
  // the previous group commit, i.e. "now"), then the queue drains through one group commit.
  auto run_round = [&](int n, std::vector<common::Duration>* latencies) -> common::Status {
    for (int i = 0; i < n; ++i) {
      const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
      FillPattern(b, payload);
      RETURN_IF_ERROR(
          dev.SubmitWrite(static_cast<simdisk::Lba>(b) * block_sectors, payload).status());
    }
    ASSIGN_OR_RETURN(const std::vector<core::Vld::QueuedCompletion> done, dev.FlushQueue());
    if (latencies != nullptr) {
      for (const core::Vld::QueuedCompletion& c : done) {
        latencies->push_back(c.Latency());
        queue_delay_total += c.QueueDelay();
        if (window_latency != nullptr) {
          window_latency->Record(c.Latency());
        }
      }
    }
    if (timeline != nullptr) {
      timeline->Poll(Now(dev));
    }
    return common::OkStatus();
  };

  for (int remaining = warmup; remaining > 0;) {
    const int n = std::min<int>(remaining, static_cast<int>(depth));
    RETURN_IF_ERROR(run_round(n, nullptr));
    remaining -= n;
  }

  std::vector<common::Duration> latencies;
  latencies.reserve(static_cast<size_t>(updates));
  obs::TraceRecorder* tracer = Tracer(dev);
  const obs::TimeBreakdown totals_before =
      tracer != nullptr ? tracer->totals() : obs::TimeBreakdown{};
  const common::Time start = Now(dev);
  for (int remaining = updates; remaining > 0;) {
    const int n = std::min<int>(remaining, static_cast<int>(depth));
    RETURN_IF_ERROR(run_round(n, &latencies));
    remaining -= n;
  }
  const common::Duration elapsed = Now(dev) - start;

  UpdateSweepResult result;
  result.depth = depth;
  result.updates = latencies.size();
  result.mean_queue_delay =
      latencies.empty() ? 0
                        : queue_delay_total / static_cast<common::Duration>(latencies.size());
  if (tracer != nullptr) {
    result.breakdown = tracer->totals() - totals_before;
  }
  Summarize(std::move(latencies), elapsed, &result);
  return result;
}

template common::StatusOr<UpdateSweepResult> RunRandomUpdates(
    core::Vld&, uint32_t, int, int, uint64_t, uint32_t, obs::Timeline*, obs::WindowedHistogram*);
template common::StatusOr<UpdateSweepResult> RunRandomUpdates(
    array::VldArray&, uint32_t, int, int, uint64_t, uint32_t, obs::Timeline*,
    obs::WindowedHistogram*);

common::Status PrepopulateArray(array::VldArray& array, uint32_t region_blocks) {
  const uint32_t block_sectors = array.block_sectors();
  const uint32_t device_blocks = static_cast<uint32_t>(array.SectorCount() / block_sectors);
  const uint32_t blocks = region_blocks != 0 ? region_blocks : device_blocks / 2;
  if (blocks == 0 || blocks > device_blocks) {
    return common::InvalidArgument("array prepopulate: region out of range");
  }
  std::vector<std::byte> payload(static_cast<size_t>(block_sectors) * array.SectorBytes());
  for (uint32_t b = 0; b < blocks; ++b) {
    FillPattern(b, payload);
    RETURN_IF_ERROR(array.Write(static_cast<simdisk::Lba>(b) * block_sectors, payload));
  }
  return common::OkStatus();
}

common::StatusOr<ArrayReadResult> RunArrayRandomReads(array::VldArray& array, int reads,
                                                      uint64_t seed, uint32_t region_blocks) {
  const uint32_t block_sectors = array.block_sectors();
  const uint32_t device_blocks = static_cast<uint32_t>(array.SectorCount() / block_sectors);
  const uint32_t blocks = region_blocks != 0 ? region_blocks : device_blocks / 2;
  if (blocks == 0 || blocks > device_blocks) {
    return common::InvalidArgument("array reads: region out of range");
  }
  common::Rng rng(seed);
  std::vector<std::byte> got(static_cast<size_t>(block_sectors) * array.SectorBytes());
  std::vector<std::byte> want(got.size());

  ArrayReadResult result;
  std::vector<common::Duration> latencies;
  latencies.reserve(static_cast<size_t>(reads));
  const common::Time start = array.now();
  for (int i = 0; i < reads; ++i) {
    const uint32_t b = static_cast<uint32_t>(rng.Below(blocks));
    const common::Time before = array.now();
    RETURN_IF_ERROR(array.Read(static_cast<simdisk::Lba>(b) * block_sectors, got));
    latencies.push_back(array.now() - before);
    FillPattern(b, want);
    result.payloads_ok &= got == want;
  }
  const common::Duration elapsed = array.now() - start;
  result.reads = latencies.size();
  Summarize(std::move(latencies), elapsed, &result);
  return result;
}

}  // namespace vlog::workload
