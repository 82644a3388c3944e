// Cross-layer request tracing on the virtual clock.
//
// The whole repository is single-threaded over one simulated clock, so every clock advance
// belongs to exactly one activity. The TraceRecorder exploits that: each layer emits typed
// events (kSubmit, kSeek, kMediaXfer, kMapAppend, kGroupCommit, ...) stamped with the current
// sim-time and the *current span* — a per-request id propagated implicitly down the call tree
// (file system -> NVM stage -> VLD -> VirtualLog -> SimDisk) by SpanScope guards. One host write
// is therefore followable end to end, and its latency decomposes exactly:
//
//   latency = host_cpu + controller + seek + head_switch + rotation + transfer + nvm + queueing
//
// where all but the last are the durations of the span's own charged events and `queueing` is the
// residual — time the request spent waiting on work not its own (other requests' media time,
// a shared group commit, a busy controller). For a synchronous request the residual is zero by
// construction; the identity is asserted in tests.
//
// Overhead when disabled: layers hold a `TraceRecorder*` that is null by default, and every
// instrumentation site is guarded by that null check (SpanScope no-ops on a null recorder).
// Tracing never advances the clock, so enabling it cannot change simulated time either.
//
// Determinism: events carry only integers derived from the simulation (times, ids, LBAs), the
// ring buffer is drained in chronological order, and spans are stored densely in id order —
// two runs of the same seed produce byte-identical TraceJson() output.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/obs/histogram.h"

namespace vlog::obs {

class MetricsRegistry;

// Which layer of the stack emitted an event.
enum class Layer : uint8_t { kHost, kFs, kNvm, kVld, kVlog, kDisk };

// What a span's request is doing. Reads and writes take different paths through a queued
// device (reads are position-schedulable, writes are eager), so tooling wants them apart.
enum class SpanKind : uint8_t { kOther, kWrite, kRead };

enum class EventType : uint8_t {
  // Span lifecycle (markers).
  kSubmit,    // A request entered the stack: the root of a span.
  kEnter,     // The span's request crossed into a lower layer.
  kComplete,  // The request was acknowledged.
  // Charged time (dur = the virtual-clock advance the activity caused).
  kHostCpu,     // Host OS / file system CPU.
  kController,  // Per-command SCSI controller overhead (queued: only the un-overlapped part).
  kSeek,        // Arm movement.
  kHeadSwitch,  // Head-switch settle in excess of the concurrent seek.
  kRotation,    // Rotational delay.
  kMediaXfer,   // Media transfer.
  kBusXfer,     // Bus transfer out of the track buffer.
  kDestage,     // Write-cache destage: mechanical time writing one dirty extent (a=lba,
                // b=sectors). Emitted by Flush and by capacity-pressure drains.
  kNvmWrite,    // Byte-addressable NVM append/superblock write (a=byte offset, b=bytes).
  kNvmRead,     // NVM overlay read serving staged sectors (a=lba, b=sectors).
  // Markers (dur == 0).
  kReadForward,   // A queued read served sectors from a pending (unserviced) write's payload
                  // instead of the media (a=first lba forwarded, b=sectors forwarded).
  kFlush,         // A Flush command completed (a=extents destaged, b=sectors destaged).
  kMapAppend,     // One map write joined the virtual log (a=map sectors in it; b=lba).
  kGroupCommit,   // A packed group commit covering a whole queue (a=requests, b=staged blocks).
  kCheckpoint,    // A checkpoint committed (a=sequence number, b=piece sectors it wrote; its
                  // header is one more sector).
  kCompactStart,  // Compaction of a victim track began or resumed (a=victim track, b=its live
                  // blocks then, i.e. the block moves the victim still costs).
  kCompactEnd,    // Compaction of a victim track stopped (a=victim track, b=emptied).
  kNvmStage,      // A small sync write was absorbed by the NVM stage (a=lba, b=sectors).
  kNvmInvalidate,  // Staged sectors superseded by a direct write/trim (a=lba, b=sectors).
  kNvmDestageStart,  // A background destage batch began (a=log records pending).
  kNvmDestageEnd,    // A background destage batch finished (a=records, b=sectors destaged).
};

const char* LayerName(Layer layer);
const char* SpanKindName(SpanKind kind);
const char* EventTypeName(EventType type);

struct TraceEvent {
  common::Time at = 0;
  common::Duration dur = 0;
  uint64_t span_id = 0;  // 0 = not tied to a single request.
  EventType type = EventType::kSubmit;
  Layer layer = Layer::kHost;
  uint64_t a = 0;  // Type-specific (usually an LBA, piece, or count).
  uint64_t b = 0;
  // Member disk index; stamped by the recorder from set_disk_index() (0 = single-disk stack).
  uint32_t disk = 0;
};

// Where one request's simulated service time went. All fields are exact integral nanoseconds;
// Accounted() + queueing == the span's latency (asserted in tests).
struct TimeBreakdown {
  common::Duration host_cpu = 0;
  common::Duration controller = 0;
  common::Duration seek = 0;
  common::Duration head_switch = 0;
  common::Duration rotation = 0;
  common::Duration transfer = 0;
  common::Duration flush = 0;  // Write-cache destage time charged to this span.
  common::Duration nvm = 0;    // Byte-addressable NVM staging-tier time (appends + overlay reads).
  common::Duration queueing = 0;

  common::Duration Accounted() const {
    return host_cpu + controller + seek + head_switch + rotation + transfer + flush + nvm;
  }
  common::Duration Total() const { return Accounted() + queueing; }

  TimeBreakdown& operator+=(const TimeBreakdown& rhs);
  TimeBreakdown operator-(const TimeBreakdown& rhs) const;
};

class TraceRecorder {
 public:
  struct Span {
    common::Time submit = 0;
    common::Time complete = 0;
    Layer layer = Layer::kHost;
    SpanKind kind = SpanKind::kOther;
    uint32_t disk = 0;  // Member disk index at the time the span was opened.
    uint64_t a = 0;
    uint64_t b = 0;
    bool open = true;
    TimeBreakdown breakdown;  // queueing is filled in by EndSpan.
    common::Duration Latency() const { return complete - submit; }
  };

  explicit TraceRecorder(const common::Clock* clock, size_t event_capacity = 1 << 16);

  // --- Span lifecycle ---

  // Opens a span and makes it current (records kSubmit). Returns its id.
  uint64_t BeginSpan(Layer layer, uint64_t a = 0, uint64_t b = 0,
                     SpanKind kind = SpanKind::kOther);
  // Opens a span without touching the current span — for requests that are queued now and
  // serviced later (SpanScope re-enters them at service time).
  uint64_t BeginSpanDetached(Layer layer, uint64_t a = 0, uint64_t b = 0,
                             SpanKind kind = SpanKind::kOther);
  // Closes a span at the current sim-time: records kComplete, derives the queueing residual,
  // and feeds the per-component histograms and totals.
  void EndSpan(uint64_t id);

  uint64_t current_span() const { return current_; }
  void SetCurrentSpan(uint64_t id) { current_ = id; }

  // Member disk index stamped on every subsequently opened span and pushed event. An array
  // driving N member disks through one shared recorder sets this before touching member i;
  // single-disk stacks leave it 0. Purely a label: no effect on time, spans, or totals.
  void set_disk_index(uint32_t disk) { disk_index_ = disk; }
  uint32_t disk_index() const { return disk_index_; }

  // --- Event emission (all attributed to the current span) ---

  // A charged event: `dur` nanoseconds of the virtual clock spent on `type`.
  void Charge(EventType type, Layer layer, common::Duration dur, uint64_t a = 0, uint64_t b = 0);
  // A zero-duration marker.
  void Annotate(EventType type, Layer layer, uint64_t a = 0, uint64_t b = 0);

  // --- Introspection ---

  const Span* span(uint64_t id) const;
  // All spans ever opened, in id order; span id i lives at index i-1 (ids are dense from 1).
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t completed_spans() const { return completed_spans_; }
  // Sum of all completed spans' breakdowns (including queueing).
  const TimeBreakdown& totals() const { return totals_; }

  // Per-component histograms over completed spans (values in nanoseconds).
  const LatencyHistogram& latency_hist() const { return latency_hist_; }
  const LatencyHistogram& queueing_hist() const { return queueing_hist_; }
  const LatencyHistogram& seek_hist() const { return seek_hist_; }
  const LatencyHistogram& rotation_hist() const { return rotation_hist_; }
  const LatencyHistogram& transfer_hist() const { return transfer_hist_; }

  // Buffered events in chronological order (the ring keeps the newest `event_capacity`).
  std::vector<TraceEvent> Events() const;
  size_t event_count() const { return ring_.size(); }
  uint64_t dropped_events() const { return dropped_; }

  // --- Export ---

  // {"schema":"vlog-trace/1","dropped":N,"spans":[...],"events":[...]} — integers only, spans
  // in id order, events in chronological order; byte-identical across same-seed runs.
  std::string TraceJson() const;
  // Copies the recorder's histograms and span totals into `registry` under `prefix`
  // ("<prefix>.latency", "<prefix>.queueing", ...).
  void PublishTo(MetricsRegistry& registry, const std::string& prefix = "span") const;

 private:
  void Push(TraceEvent event);  // Stamps disk_index_ before buffering.

  const common::Clock* clock_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  // Next overwrite position once the ring is full.
  uint64_t dropped_ = 0;
  uint64_t current_ = 0;
  uint32_t disk_index_ = 0;
  // Dense span storage: ids are handed out sequentially from 1, so a vector indexed by id-1
  // replaces the former std::map (which allocated a tree node per request on the hot path).
  std::vector<Span> spans_;
  uint64_t completed_spans_ = 0;
  TimeBreakdown totals_;
  LatencyHistogram latency_hist_;
  LatencyHistogram queueing_hist_;
  LatencyHistogram seek_hist_;
  LatencyHistogram rotation_hist_;
  LatencyHistogram transfer_hist_;
};

// RAII guard that makes a span current for the duration of a call tree.
//
//   SpanScope span(tracer, Layer::kVld, lba, sectors);   // root-or-inherit
//     - tracer null: no-op.
//     - no current span: begins a new root span, ends it on destruction.
//     - a span is already current (an upper layer began it): records a kEnter marker and
//       inherits — the upper layer owns the lifecycle.
//
//   SpanScope span(tracer, id);                          // re-enter a detached span
//     - makes `id` current without owning it (the caller calls EndSpan explicitly).
class SpanScope {
 public:
  SpanScope(TraceRecorder* tracer, Layer layer, uint64_t a = 0, uint64_t b = 0,
            SpanKind kind = SpanKind::kOther)
      : tracer_(tracer) {
    if (tracer_ == nullptr) {
      return;
    }
    prev_ = tracer_->current_span();
    if (prev_ == 0) {
      id_ = tracer_->BeginSpan(layer, a, b, kind);
      owns_ = true;
    } else {
      id_ = prev_;
      tracer_->Annotate(EventType::kEnter, layer, a, b);
    }
  }
  SpanScope(TraceRecorder* tracer, uint64_t span_id) : tracer_(tracer) {
    if (tracer_ == nullptr) {
      return;
    }
    prev_ = tracer_->current_span();
    id_ = span_id;
    tracer_->SetCurrentSpan(span_id);
  }
  ~SpanScope() {
    if (tracer_ == nullptr) {
      return;
    }
    if (owns_) {
      tracer_->EndSpan(id_);
    }
    tracer_->SetCurrentSpan(prev_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return id_; }

 private:
  TraceRecorder* tracer_;
  uint64_t prev_ = 0;
  uint64_t id_ = 0;
  bool owns_ = false;
};

}  // namespace vlog::obs

#endif  // SRC_OBS_TRACE_H_
