// Duty-cycled compaction governor: feedback pacing of background compaction under a p99 SLO.
//
// The idle-time compactor (§4.2) assumes idle windows exist. Under continuous open-loop
// traffic they mostly don't, so background work must be *paced* against the foreground: run
// too little and eager writing starves for empty tracks (the free-space death spiral the
// paper predicts at high utilization), run too much and compaction I/O blows the foreground
// tail latency. The governor converts observed pressure into a compaction duty cycle:
//
//   inputs    free-space gauges read straight from the VLD (empty tracks vs the allocator's
//             fill target, and pinned map sectors piled up past half the valve's limit, which
//             a checkpoint releases) and the windowed p99 of a foreground latency histogram
//             on an obs::Timeline.
//   control   AIMD on the duty cycle: each closed timeline window whose p99 exceeds the
//             budget multiplies the duty by `backoff`; each clean window adds `ramp`.
//   actuation between foreground batches the driver asks for a grant; elapsed simulated time
//             accrues credit at the current duty (capped at `max_burst`, so bursts stay
//             short enough to preempt), and a grant spends the credit via
//             Vld::RunGovernedBurst — a preemptible, mid-track-resumable compactor run that
//             starts a block move only when one Compactor::MoveCost() still fits before its
//             deadline. A credit grant therefore waits until the credit covers one move (the
//             wait is counted as `deferred`), and the cap never falls below one move.
//   troughs   when the driver knows the device is idle until the next arrival (an open-loop
//             arrival gap), the whole gap is granted free of charge — idle time is exactly
//             when the paper's compactor runs, so troughs are where the governor ramps
//             hardest.
//   pressure  below `low_water_tracks` empty tracks the governor grants at least one move
//             even during a violating window: a bounded latency breach beats allocator
//             starvation.
#ifndef SRC_CORE_GOVERNOR_H_
#define SRC_CORE_GOVERNOR_H_

#include <cstdint>
#include <string>

#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/obs/timeline.h"

namespace vlog::core {

struct GovernorConfig {
  // Per-window p99 budget on `latency_hist`; 0 means unlimited (latency never throttles
  // compaction — the setting the governor-vs-idle differential test uses).
  common::Duration slo_budget = 0;
  std::string latency_hist = "latency";  // Timeline histogram the per-window p99 is read from.
  // Empty-track fill target; 0 inherits the VLD's own target so the governor stops granting
  // exactly where RunIdle's compactor would stop compacting.
  uint32_t target_empty_tracks = 0;
  uint32_t low_water_tracks = 2;  // Below this, grants override SLO backoff.
  double initial_duty = 0.10;
  double min_duty = 0.02;
  double max_duty = 0.50;
  double ramp = 0.04;     // Additive duty increase per clean window.
  double backoff = 0.5;   // Multiplicative duty decrease per violating window.
  // Credit cap == burst length cap, raised to one compactor move when a move costs more.
  common::Duration max_burst = common::Milliseconds(25);
};

struct GovernorStats {
  uint64_t decisions = 0;           // Grant() calls.
  uint64_t bursts = 0;              // Nonzero grants.
  uint64_t idle_grants = 0;         // Grants issued inside declared arrival troughs.
  uint64_t backoffs = 0;            // Violating windows consumed (duty cut).
  uint64_t ramps = 0;               // Clean windows consumed (duty raised).
  uint64_t pressure_overrides = 0;  // Grants forced by the low-water pressure floor.
  uint64_t granted_ns = 0;          // Total budget granted.
  uint64_t deferred = 0;            // Credit grants withheld: credit below one move.
};

class CompactionGovernor {
 public:
  // `timeline` may be null: without one there is no latency feedback, so the duty stays at
  // `initial_duty` and only the free-space inputs gate grants (the crashsim scenario runs
  // this way). The timeline is only read (windows closed by the driver's own Polls); the
  // governor never polls or advances anything.
  CompactionGovernor(Vld* vld, const obs::Timeline* timeline, GovernorConfig config);

  // Decides how much compaction to run right now and returns the granted budget without
  // running it (callers that must route the burst themselves, e.g. through a crashsim shadow
  // device, use this then call RunGovernedBurst on their own handle). `idle_hint > 0`
  // declares a known device-idle gap until the next arrival.
  common::Duration Grant(common::Duration idle_hint = 0);

  // Grant() + Vld::RunGovernedBurst of the result. Returns the granted budget.
  common::Duration RunBurst(common::Duration idle_hint = 0);

  double duty() const { return duty_; }
  const GovernorStats& stats() const { return stats_; }

  // Registers the governor's decision series under `prefix`: counters gov.decisions,
  // gov.bursts, gov.idle_grants, gov.backoffs, gov.ramps, gov.pressure_overrides,
  // gov.granted_ns, gov.deferred and gauges gov.duty_ppm, gov.credit_ns, gov.move_cost_ns
  // (Compactor::MoveCost). Pure reads; the governor must outlive the timeline's last Poll.
  // Registering on the same timeline the governor watches is fine (sampling reads no
  // histogram).
  void RegisterTimelineProbes(obs::Timeline& timeline, const std::string& prefix) const;

 private:
  // Applies AIMD for every timeline window closed since the last call.
  void ConsumeWindows();
  // Compaction (or a checkpoint to release piled-up pins) is still worth granting time for.
  bool NeedsWork() const;

  Vld* vld_;
  const obs::Timeline* timeline_;
  GovernorConfig config_;
  double duty_;
  common::Duration credit_ = 0;
  common::Time last_now_ = 0;
  bool clock_seen_ = false;          // last_now_ is valid (first Grant only accrues from then).
  size_t windows_consumed_ = 0;      // Timeline windows already folded into the duty.
  bool last_window_violating_ = false;
  int hist_index_ = -1;
  GovernorStats stats_;
};

}  // namespace vlog::core

#endif  // SRC_CORE_GOVERNOR_H_
