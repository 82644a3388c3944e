#include "src/core/governor.h"

#include <algorithm>

namespace vlog::core {

CompactionGovernor::CompactionGovernor(Vld* vld, const obs::Timeline* timeline,
                                       GovernorConfig config)
    : vld_(vld), timeline_(timeline), config_(config), duty_(config.initial_duty) {
  if (config_.target_empty_tracks == 0) {
    config_.target_empty_tracks = vld_->target_empty_tracks();
  }
  if (timeline_ != nullptr) {
    hist_index_ = timeline_->HistogramIndex(config_.latency_hist);
  }
}

void CompactionGovernor::ConsumeWindows() {
  if (timeline_ == nullptr || hist_index_ < 0) {
    return;
  }
  const auto& windows = timeline_->windows();
  for (; windows_consumed_ < windows.size(); ++windows_consumed_) {
    const obs::LatencyHistogram& h =
        windows[windows_consumed_].histograms[static_cast<size_t>(hist_index_)];
    // An empty window neither violates nor certifies: foreground silence says nothing about
    // the tail, so it leaves the duty (and the violating flag) as-is.
    if (h.Count() == 0) {
      continue;
    }
    const bool violating = config_.slo_budget > 0 &&
                           h.Percentile(99) > static_cast<double>(config_.slo_budget);
    if (violating) {
      duty_ = std::max(config_.min_duty, duty_ * config_.backoff);
      ++stats_.backoffs;
    } else {
      duty_ = std::min(config_.max_duty, duty_ + config_.ramp);
      ++stats_.ramps;
    }
    last_window_violating_ = violating;
  }
}

bool CompactionGovernor::NeedsWork() const {
  // Mirrors what RunIdle would actually do with the time: pins piled up past half the
  // valve's limit mean a checkpoint is due, and a shortfall of empty tracks means the
  // compactor has a target to chase. When neither holds, RunIdle is a no-op and a grant
  // would be too.
  return vld_->vlog().IdleCheckpointDue() ||
         vld_->space().EmptyTrackCount() < config_.target_empty_tracks;
}

common::Duration CompactionGovernor::Grant(common::Duration idle_hint) {
  ++stats_.decisions;
  ConsumeWindows();
  const common::Time now = vld_->disk().clock()->Now();
  // The shortest grant that lets the compactor start a block move: one mean move, or 1 ns
  // before any move has been measured (a fresh compactor starts a move on any budget).
  const common::Duration move = std::max<common::Duration>(vld_->compactor().MoveCost(), 1);
  if (clock_seen_) {
    // Credit may always build up to one move, so a cap shorter than a move cannot shut the
    // credit path off.
    const double accrued = static_cast<double>(now - last_now_) * duty_;
    credit_ = std::min(credit_ + static_cast<common::Duration>(accrued),
                       std::max(config_.max_burst, move));
  }
  clock_seen_ = true;
  last_now_ = now;
  if (!NeedsWork()) {
    return 0;
  }
  common::Duration grant = 0;
  const bool pressure = vld_->space().EmptyTrackCount() < config_.low_water_tracks;
  if (idle_hint > 0) {
    // A declared arrival trough: compaction here delays nobody, so the whole gap is granted
    // and no credit is spent — exactly the paper's idle-time compactor behavior.
    grant = idle_hint;
    ++stats_.idle_grants;
  } else if (pressure) {
    // Starvation imminent: grant at least one move even mid-violation — a bounded latency
    // breach beats the allocator running out of fill tracks.
    grant = std::max(credit_, move);
    credit_ = 0;
    ++stats_.pressure_overrides;
  } else if (last_window_violating_) {
    return 0;  // Back off: let the foreground drain until a clean window arrives.
  } else if (credit_ < move) {
    ++stats_.deferred;
    return 0;  // A burst this short would start no move; keep accruing.
  } else {
    grant = credit_;
    credit_ = 0;
  }
  ++stats_.bursts;
  stats_.granted_ns += static_cast<uint64_t>(grant);
  return grant;
}

common::Duration CompactionGovernor::RunBurst(common::Duration idle_hint) {
  const common::Duration grant = Grant(idle_hint);
  if (grant > 0) {
    vld_->RunGovernedBurst(grant, config_.target_empty_tracks);
  }
  return grant;
}

void CompactionGovernor::RegisterTimelineProbes(obs::Timeline& timeline,
                                                const std::string& prefix) const {
  timeline.AddCounter(prefix + "gov.decisions", [this] { return stats_.decisions; });
  timeline.AddCounter(prefix + "gov.bursts", [this] { return stats_.bursts; });
  timeline.AddCounter(prefix + "gov.idle_grants", [this] { return stats_.idle_grants; });
  timeline.AddCounter(prefix + "gov.backoffs", [this] { return stats_.backoffs; });
  timeline.AddCounter(prefix + "gov.ramps", [this] { return stats_.ramps; });
  timeline.AddCounter(prefix + "gov.pressure_overrides",
                      [this] { return stats_.pressure_overrides; });
  timeline.AddCounter(prefix + "gov.granted_ns", [this] { return stats_.granted_ns; });
  timeline.AddCounter(prefix + "gov.deferred", [this] { return stats_.deferred; });
  timeline.AddGauge(prefix + "gov.duty_ppm",
                    [this] { return static_cast<uint64_t>(duty_ * 1e6); });
  timeline.AddGauge(prefix + "gov.credit_ns",
                    [this] { return static_cast<uint64_t>(credit_); });
  timeline.AddGauge(prefix + "gov.move_cost_ns", [this] {
    return static_cast<uint64_t>(vld_->compactor().MoveCost());
  });
}

}  // namespace vlog::core
