#include "src/workload/queue_sweep.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/workload/payload.h"

namespace vlog::workload {

namespace {
constexpr size_t kUpdateBytes = 4096;
constexpr double kPi = 3.14159265358979323846;
}  // namespace

ZipfSampler::ZipfSampler(uint32_t n, double theta) {
  cdf_.resize(n == 0 ? 1 : n);
  double sum = 0;
  for (uint32_t i = 0; i < cdf_.size(); ++i) {
    sum += theta == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

uint32_t ZipfSampler::Sample(common::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint32_t>(std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                                                cdf_.size() - 1));
}

double MixedStreamResult::FairnessRatio() const {
  double min_iops = std::numeric_limits<double>::infinity();
  double max_iops = 0;
  for (const StreamResult& s : streams) {
    min_iops = std::min(min_iops, s.iops);
    max_iops = std::max(max_iops, s.iops);
  }
  if (max_iops <= 0) {
    return 1.0;
  }
  if (min_iops <= 0) {
    return std::numeric_limits<double>::infinity();
  }
  return max_iops / min_iops;
}

common::StatusOr<MixedStreamResult> RunMixedStreams(core::Vld& vld,
                                                    const MixedStreamOptions& options) {
  if (options.streams == 0 || options.streams > vld.queue_depth()) {
    return common::InvalidArgument("mixed streams: stream count out of range");
  }
  if (!options.stream_configs.empty() && options.stream_configs.size() != 1 &&
      options.stream_configs.size() != options.streams) {
    return common::InvalidArgument("mixed streams: bad stream_configs size");
  }
  const uint32_t block_sectors = kUpdateBytes / vld.SectorBytes();
  const uint32_t blocks = vld.logical_blocks() / 2;
  common::Clock* clock = vld.disk().clock();

  // Per-stream state: behavior, decorrelated rng, a rotated Zipf hot spot, and the time the
  // stream's think interval ends (it resubmits then).
  struct Stream {
    StreamConfig config;
    common::Rng rng{0};
    ZipfSampler zipf{1, 0};
    uint32_t hot_offset = 0;
    common::Time next_ready = 0;
    bool outstanding = false;
    uint64_t reads = 0;
    uint64_t writes = 0;
    obs::LatencyHistogram hist;
  };
  std::vector<Stream> streams(options.streams);
  for (uint32_t s = 0; s < options.streams; ++s) {
    if (options.stream_configs.size() == options.streams) {
      streams[s].config = options.stream_configs[s];
    } else if (options.stream_configs.size() == 1) {
      streams[s].config = options.stream_configs[0];
    }
    streams[s].rng = common::Rng(options.seed * 1000003ull + 17ull * s + 1);
    streams[s].zipf = ZipfSampler(blocks, streams[s].config.zipf_theta);
    streams[s].hot_offset =
        static_cast<uint32_t>((static_cast<uint64_t>(s) * blocks) / options.streams);
  }

  std::vector<std::byte> payload(kUpdateBytes);
  const auto fill_payload = [&](uint32_t block, uint32_t stream) {
    FillAffinePayload(payload, block * 131u + stream * 29u);
  };
  if (options.prepopulate) {
    for (uint32_t b = 0; b < blocks; ++b) {
      fill_payload(b, 0);
      RETURN_IF_ERROR(vld.Write(static_cast<simdisk::Lba>(b) * block_sectors, payload));
    }
  }

  MixedStreamResult result;
  obs::TraceRecorder* tracer = vld.disk().tracer();
  obs::TimeBreakdown totals_start = tracer != nullptr ? tracer->totals() : obs::TimeBreakdown{};
  common::Time window_start = clock->Now();
  // Completion id -> stream. At most `streams` entries at once, so a flat vector with linear
  // find beats a node-allocating map on the per-op hot path.
  std::vector<std::pair<uint64_t, uint32_t>> inflight;
  inflight.reserve(options.streams);
  int discarded = 0;
  int recorded = 0;
  bool measuring = options.warmup == 0;
  // Closed loop, whole batches: submit every ready stream's next op, group-service the queue,
  // retire completions. The measured window opens at a batch boundary once `warmup`
  // completions have been discarded, so the tracer-totals diff covers exactly the recorded
  // spans and the breakdown-sums-to-latency identity carries over to mixed runs.
  while (recorded < options.ops) {
    common::Time earliest = std::numeric_limits<common::Time>::max();
    bool submitted = false;
    for (uint32_t s = 0; s < options.streams; ++s) {
      Stream& st = streams[s];
      if (st.outstanding) {
        continue;
      }
      earliest = std::min(earliest, st.next_ready);
      if (st.next_ready > clock->Now()) {
        continue;
      }
      const bool is_read = st.rng.Chance(st.config.read_fraction);
      const uint32_t rank = st.config.zipf_theta > 0 ? st.zipf.Sample(st.rng)
                                                     : static_cast<uint32_t>(st.rng.Below(blocks));
      const uint32_t block = (rank + st.hot_offset) % blocks;
      const simdisk::Lba lba = static_cast<simdisk::Lba>(block) * block_sectors;
      uint64_t id = 0;
      if (is_read) {
        ASSIGN_OR_RETURN(id, vld.SubmitRead(lba, block_sectors));
      } else {
        fill_payload(block, s);
        ASSIGN_OR_RETURN(id, vld.SubmitWrite(lba, payload));
      }
      inflight.emplace_back(id, s);
      st.outstanding = true;
      submitted = true;
    }
    if (!submitted) {
      // Every idle stream is thinking: jump to the first wakeup.
      clock->AdvanceTo(earliest);
      continue;
    }
    ASSIGN_OR_RETURN(std::vector<core::Vld::QueuedCompletion> done, vld.FlushQueue());
    for (const core::Vld::QueuedCompletion& c : done) {
      const auto it = std::find_if(inflight.begin(), inflight.end(),
                                   [&](const auto& e) { return e.first == c.id; });
      if (it == inflight.end()) {
        return common::FailedPrecondition("mixed streams: unknown completion id");
      }
      RETURN_IF_ERROR(c.status);
      Stream& st = streams[it->second];
      *it = inflight.back();
      inflight.pop_back();
      st.outstanding = false;
      st.next_ready = c.complete_time + st.config.think_time;
      if (!measuring) {
        ++discarded;
        continue;
      }
      ++recorded;
      st.hist.Record(c.Latency());
      result.latency_hist.Record(c.Latency());
      if (c.is_write) {
        ++st.writes;
        result.write_hist.Record(c.Latency());
      } else {
        ++st.reads;
        result.read_hist.Record(c.Latency());
      }
    }
    if (!measuring && discarded >= options.warmup) {
      measuring = true;
      window_start = clock->Now();
      if (tracer != nullptr) {
        totals_start = tracer->totals();
      }
    }
  }

  const common::Duration elapsed = clock->Now() - window_start;
  result.ops = static_cast<uint64_t>(recorded);
  result.iops = elapsed > 0 ? static_cast<double>(recorded) / common::ToSeconds(elapsed) : 0;
  if (tracer != nullptr) {
    result.breakdown = tracer->totals() - totals_start;
  }
  result.streams.resize(options.streams);
  for (uint32_t s = 0; s < options.streams; ++s) {
    StreamResult& r = result.streams[s];
    r.stream = s;
    r.reads = streams[s].reads;
    r.writes = streams[s].writes;
    const uint64_t ops = r.reads + r.writes;
    r.iops = elapsed > 0 ? static_cast<double>(ops) / common::ToSeconds(elapsed) : 0;
    r.latency_hist = streams[s].hist;
    r.p50_latency = static_cast<common::Duration>(streams[s].hist.Percentile(50));
    r.p99_latency = static_cast<common::Duration>(streams[s].hist.Percentile(99));
  }
  return result;
}

namespace {

// Instantaneous arrival rate at absolute time `t` (run started at `start`). The declared
// burst interval overrides whatever the process shape would otherwise produce.
double ArrivalRateAt(const OpenLoopOptions& options, common::Time t, common::Time start) {
  const common::Time burst_lo = start + options.burst_start;
  if (options.burst_rate_ops_per_s > 0 && t >= burst_lo &&
      t < burst_lo + options.burst_duration) {
    return options.burst_rate_ops_per_s;
  }
  switch (options.process) {
    case ArrivalProcess::kPoisson:
      return options.rate_ops_per_s;
    case ArrivalProcess::kOnOff: {
      const common::Duration cycle = options.on_duration + options.off_duration;
      if (cycle <= 0) {
        return options.rate_ops_per_s;
      }
      const common::Duration phase = (t - start) % cycle;
      return phase < options.on_duration ? options.rate_ops_per_s : 0.0;
    }
    case ArrivalProcess::kDiurnal: {
      if (options.diurnal_period <= 0) {
        return options.rate_ops_per_s;
      }
      const double frac = static_cast<double>((t - start) % options.diurnal_period) /
                          static_cast<double>(options.diurnal_period);
      return options.rate_ops_per_s *
             (1.0 + options.diurnal_amplitude * std::sin(2.0 * kPi * frac));
    }
  }
  return options.rate_ops_per_s;
}

// Appends `options.arrivals` strictly increasing timestamps to `out`, drawing from `rng`.
// kPoisson keeps the original single-draw exponential walk (so existing seeds reproduce
// byte-identically); the non-homogeneous processes thin a Poisson stream at the max rate
// against ArrivalRateAt (Lewis-Shedler), which stays exact for any bounded rate function.
void AppendArrivals(const OpenLoopOptions& options, common::Time start, common::Rng& rng,
                    std::vector<common::Time>& out) {
  out.reserve(out.size() + static_cast<size_t>(options.arrivals));
  common::Time t = start;
  if (options.process == ArrivalProcess::kPoisson) {
    const common::Time burst_lo = start + options.burst_start;
    const common::Time burst_hi = burst_lo + options.burst_duration;
    for (int i = 0; i < options.arrivals; ++i) {
      const bool in_burst =
          options.burst_rate_ops_per_s > 0 && t >= burst_lo && t < burst_hi;
      const double rate = in_burst ? options.burst_rate_ops_per_s : options.rate_ops_per_s;
      const double u = rng.NextDouble();
      const double gap_ns = -std::log1p(-u) * 1e9 / rate;
      t += static_cast<common::Duration>(gap_ns) + 1;  // Strictly increasing arrival times.
      out.push_back(t);
    }
    return;
  }
  double rate_max = options.rate_ops_per_s;
  if (options.process == ArrivalProcess::kDiurnal) {
    rate_max *= 1.0 + options.diurnal_amplitude;
  }
  rate_max = std::max(rate_max, options.burst_rate_ops_per_s);
  for (int accepted = 0; accepted < options.arrivals;) {
    const double u = rng.NextDouble();
    const double gap_ns = -std::log1p(-u) * 1e9 / rate_max;
    t += static_cast<common::Duration>(gap_ns) + 1;
    if (rng.NextDouble() * rate_max < ArrivalRateAt(options, t, start)) {
      out.push_back(t);
      ++accepted;
    }
  }
}

common::StatusOr<OpenLoopResult> RunOpenLoopImpl(core::Vld& vld,
                                                 const OpenLoopOptions& options,
                                                 core::CompactionGovernor* governor,
                                                 obs::Timeline* timeline,
                                                 obs::WindowedHistogram* latency) {
  if (options.rate_ops_per_s <= 0) {
    return common::InvalidArgument("open loop: rate must be positive");
  }
  if (options.arrivals <= 0) {
    return common::InvalidArgument("open loop: arrivals must be positive");
  }
  if (options.region_blocks > vld.logical_blocks()) {
    return common::InvalidArgument("open loop: region exceeds the logical space");
  }
  const uint32_t batch_limit =
      options.max_batch == 0 ? vld.queue_depth()
                             : std::min(options.max_batch, vld.queue_depth());
  const uint32_t block_sectors = kUpdateBytes / vld.SectorBytes();
  const uint32_t blocks =
      options.region_blocks != 0 ? options.region_blocks : vld.logical_blocks() / 2;
  common::Clock* clock = vld.disk().clock();
  const common::Time run_start = clock->Now();

  // The arrival process is generated up front, sequentially, so the schedule depends only on
  // the seed and the options — never on how the device keeps up.
  common::Rng rng(options.seed);
  std::vector<common::Time> arrival_times;
  AppendArrivals(options, run_start, rng, arrival_times);

  std::vector<std::byte> payload(kUpdateBytes);
  OpenLoopResult result;
  obs::TraceRecorder* tracer = vld.disk().tracer();
  const obs::TimeBreakdown totals_before =
      tracer != nullptr ? tracer->totals() : obs::TimeBreakdown{};

  // Completion id -> arrival time of the oldest-submitted requests (at most queue_depth).
  std::vector<std::pair<uint64_t, common::Time>> inflight;
  inflight.reserve(batch_limit);
  size_t next_arrival = 0;   // First arrival not yet ingested into the backlog.
  size_t next_submit = 0;    // First arrival not yet submitted to the device.
  uint64_t completed = 0;
  while (completed < static_cast<uint64_t>(options.arrivals)) {
    const common::Time now = clock->Now();
    // Ingest every arrival whose timestamp has passed (they queue in the backlog).
    while (next_arrival < arrival_times.size() && arrival_times[next_arrival] <= now) {
      ++next_arrival;
    }
    result.max_backlog = std::max(result.max_backlog,
                                  static_cast<uint64_t>(next_arrival - next_submit));
    if (next_submit == next_arrival) {
      // Device idle and nothing has arrived: an arrival trough. Offer the whole gap to the
      // governor first (idle time is where compaction is free), then jump to the next
      // arrival. AdvanceTo clamps, so a burst that overran the gap just means no jump.
      if (governor != nullptr) {
        const common::Duration gap = arrival_times[next_arrival] - now;
        if (gap > 0 && governor->RunBurst(gap) > 0 && timeline != nullptr) {
          timeline->Poll(clock->Now());
        }
      }
      clock->AdvanceTo(arrival_times[next_arrival]);
      if (timeline != nullptr) {
        timeline->Poll(clock->Now());
      }
      continue;
    }
    // Submit up to one device batch from the backlog (oldest first), then group-service it.
    const size_t n =
        std::min<size_t>(batch_limit, next_arrival - next_submit);
    for (size_t i = 0; i < n; ++i) {
      const common::Time arrival = arrival_times[next_submit];
      const uint32_t block = static_cast<uint32_t>(rng.Below(blocks));
      const simdisk::Lba lba = static_cast<simdisk::Lba>(block) * block_sectors;
      uint64_t id = 0;
      if (rng.Chance(options.read_fraction)) {
        ASSIGN_OR_RETURN(id, vld.SubmitRead(lba, block_sectors));
      } else {
        FillAffinePayload(payload, block * 131u);
        ASSIGN_OR_RETURN(id, vld.SubmitWrite(lba, payload));
      }
      inflight.emplace_back(id, arrival);
      ++next_submit;
    }
    ASSIGN_OR_RETURN(std::vector<core::Vld::QueuedCompletion> done, vld.FlushQueue());
    for (const core::Vld::QueuedCompletion& c : done) {
      const auto it = std::find_if(inflight.begin(), inflight.end(),
                                   [&](const auto& e) { return e.first == c.id; });
      if (it == inflight.end()) {
        return common::FailedPrecondition("open loop: unknown completion id");
      }
      RETURN_IF_ERROR(c.status);
      const common::Duration lat = c.complete_time - it->second;
      *it = inflight.back();
      inflight.pop_back();
      result.latency_hist.Record(lat);
      if (latency != nullptr) {
        latency->Record(lat);
      }
      ++completed;
    }
    if (timeline != nullptr) {
      timeline->Poll(clock->Now());
    }
    // Between-batch governed burst: the backlog is momentarily drained from the device queue,
    // so this is the natural preemption point for duty-cycled compaction.
    if (governor != nullptr && governor->RunBurst(0) > 0 && timeline != nullptr) {
      timeline->Poll(clock->Now());
    }
  }

  result.ops = completed;
  result.makespan = clock->Now() - run_start;
  const common::Duration arrival_span = arrival_times.back() - run_start;
  result.offered_rate = arrival_span > 0 ? static_cast<double>(options.arrivals) /
                                               common::ToSeconds(arrival_span)
                                         : 0;
  result.achieved_iops = result.makespan > 0 ? static_cast<double>(completed) /
                                                   common::ToSeconds(result.makespan)
                                             : 0;
  if (tracer != nullptr) {
    result.breakdown = tracer->totals() - totals_before;
  }
  return result;
}

}  // namespace

common::StatusOr<OpenLoopResult> RunOpenLoopPoisson(core::Vld& vld,
                                                    const OpenLoopOptions& options,
                                                    obs::Timeline* timeline,
                                                    obs::WindowedHistogram* latency) {
  return RunOpenLoopImpl(vld, options, /*governor=*/nullptr, timeline, latency);
}

std::vector<common::Time> GenerateArrivals(const OpenLoopOptions& options, common::Time start) {
  common::Rng rng(options.seed);
  std::vector<common::Time> out;
  AppendArrivals(options, start, rng, out);
  return out;
}

common::StatusOr<OpenLoopResult> RunGovernedOpenLoop(core::Vld& vld,
                                                     const OpenLoopOptions& options,
                                                     core::CompactionGovernor* governor,
                                                     obs::Timeline* timeline,
                                                     obs::WindowedHistogram* latency) {
  return RunOpenLoopImpl(vld, options, governor, timeline, latency);
}

}  // namespace vlog::workload
