#include "src/obs/trace.h"

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace vlog::obs {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHost:
      return "host";
    case Layer::kFs:
      return "fs";
    case Layer::kNvm:
      return "nvm";
    case Layer::kVld:
      return "vld";
    case Layer::kVlog:
      return "vlog";
    case Layer::kDisk:
      return "disk";
  }
  return "?";
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOther:
      return "other";
    case SpanKind::kWrite:
      return "write";
    case SpanKind::kRead:
      return "read";
  }
  return "?";
}

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kSubmit:
      return "submit";
    case EventType::kEnter:
      return "enter";
    case EventType::kComplete:
      return "complete";
    case EventType::kHostCpu:
      return "host_cpu";
    case EventType::kController:
      return "controller";
    case EventType::kSeek:
      return "seek";
    case EventType::kHeadSwitch:
      return "head_switch";
    case EventType::kRotation:
      return "rotation";
    case EventType::kMediaXfer:
      return "media_xfer";
    case EventType::kBusXfer:
      return "bus_xfer";
    case EventType::kDestage:
      return "destage";
    case EventType::kNvmWrite:
      return "nvm_write";
    case EventType::kNvmRead:
      return "nvm_read";
    case EventType::kReadForward:
      return "read_forward";
    case EventType::kFlush:
      return "flush";
    case EventType::kMapAppend:
      return "map_append";
    case EventType::kGroupCommit:
      return "group_commit";
    case EventType::kCheckpoint:
      return "checkpoint";
    case EventType::kCompactStart:
      return "compact_start";
    case EventType::kCompactEnd:
      return "compact_end";
    case EventType::kNvmStage:
      return "nvm_stage";
    case EventType::kNvmInvalidate:
      return "nvm_invalidate";
    case EventType::kNvmDestageStart:
      return "nvm_destage_start";
    case EventType::kNvmDestageEnd:
      return "nvm_destage_end";
  }
  return "?";
}

TimeBreakdown& TimeBreakdown::operator+=(const TimeBreakdown& rhs) {
  host_cpu += rhs.host_cpu;
  controller += rhs.controller;
  seek += rhs.seek;
  head_switch += rhs.head_switch;
  rotation += rhs.rotation;
  transfer += rhs.transfer;
  flush += rhs.flush;
  nvm += rhs.nvm;
  queueing += rhs.queueing;
  return *this;
}

TimeBreakdown TimeBreakdown::operator-(const TimeBreakdown& rhs) const {
  TimeBreakdown d;
  d.host_cpu = host_cpu - rhs.host_cpu;
  d.controller = controller - rhs.controller;
  d.seek = seek - rhs.seek;
  d.head_switch = head_switch - rhs.head_switch;
  d.rotation = rotation - rhs.rotation;
  d.transfer = transfer - rhs.transfer;
  d.flush = flush - rhs.flush;
  d.nvm = nvm - rhs.nvm;
  d.queueing = queueing - rhs.queueing;
  return d;
}

TraceRecorder::TraceRecorder(const common::Clock* clock, size_t event_capacity)
    : clock_(clock), capacity_(event_capacity == 0 ? 1 : event_capacity) {
  ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

uint64_t TraceRecorder::BeginSpan(Layer layer, uint64_t a, uint64_t b, SpanKind kind) {
  const uint64_t id = BeginSpanDetached(layer, a, b, kind);
  current_ = id;
  return id;
}

uint64_t TraceRecorder::BeginSpanDetached(Layer layer, uint64_t a, uint64_t b, SpanKind kind) {
  Span& s = spans_.emplace_back();
  const uint64_t id = spans_.size();
  s.submit = clock_->Now();
  s.layer = layer;
  s.kind = kind;
  s.disk = disk_index_;
  s.a = a;
  s.b = b;
  Push({s.submit, 0, id, EventType::kSubmit, layer, a, b});
  return id;
}

void TraceRecorder::EndSpan(uint64_t id) {
  if (id == 0 || id > spans_.size() || !spans_[id - 1].open) {
    return;
  }
  Span& s = spans_[id - 1];
  s.complete = clock_->Now();
  s.open = false;
  // Everything the span waited for beyond its own charged activities is queueing: other
  // requests' media time ahead of it, overlapped controller work, a shared group commit.
  s.breakdown.queueing = s.Latency() - s.breakdown.Accounted();
  Push({s.complete, s.Latency(), id, EventType::kComplete, s.layer, s.a, s.b});
  totals_ += s.breakdown;
  ++completed_spans_;
  latency_hist_.Record(s.Latency());
  queueing_hist_.Record(s.breakdown.queueing);
  seek_hist_.Record(s.breakdown.seek);
  rotation_hist_.Record(s.breakdown.rotation);
  transfer_hist_.Record(s.breakdown.transfer);
}

void TraceRecorder::Charge(EventType type, Layer layer, common::Duration dur, uint64_t a,
                           uint64_t b) {
  Push({clock_->Now(), dur, current_, type, layer, a, b});
  if (current_ == 0 || current_ > spans_.size() || !spans_[current_ - 1].open) {
    return;
  }
  TimeBreakdown& bd = spans_[current_ - 1].breakdown;
  switch (type) {
    case EventType::kHostCpu:
      bd.host_cpu += dur;
      break;
    case EventType::kController:
      bd.controller += dur;
      break;
    case EventType::kSeek:
      bd.seek += dur;
      break;
    case EventType::kHeadSwitch:
      bd.head_switch += dur;
      break;
    case EventType::kRotation:
      bd.rotation += dur;
      break;
    case EventType::kMediaXfer:
    case EventType::kBusXfer:
      bd.transfer += dur;
      break;
    case EventType::kDestage:
      bd.flush += dur;
      break;
    case EventType::kNvmWrite:
    case EventType::kNvmRead:
      bd.nvm += dur;
      break;
    default:
      break;
  }
}

void TraceRecorder::Annotate(EventType type, Layer layer, uint64_t a, uint64_t b) {
  Push({clock_->Now(), 0, current_, type, layer, a, b});
}

const TraceRecorder::Span* TraceRecorder::span(uint64_t id) const {
  return (id == 0 || id > spans_.size()) ? nullptr : &spans_[id - 1];
}

void TraceRecorder::Push(TraceEvent event) {
  event.disk = disk_index_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (size_t i = head_; i < ring_.size(); ++i) {
    out.push_back(ring_[i]);
  }
  for (size_t i = 0; i < head_; ++i) {
    out.push_back(ring_[i]);
  }
  return out;
}

std::string TraceRecorder::TraceJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("vlog-trace/1");
  w.Key("dropped");
  w.UInt(dropped_);
  w.Key("spans");
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("id");
    w.UInt(i + 1);
    w.Key("layer");
    w.String(LayerName(s.layer));
    w.Key("kind");
    w.String(SpanKindName(s.kind));
    w.Key("disk");
    w.UInt(s.disk);
    w.Key("submit");
    w.Int(s.submit);
    w.Key("complete");
    w.Int(s.open ? -1 : s.complete);
    w.Key("a");
    w.UInt(s.a);
    w.Key("b");
    w.UInt(s.b);
    if (!s.open) {
      w.Key("breakdown");
      w.BeginObject();
      w.Key("host_cpu");
      w.Int(s.breakdown.host_cpu);
      w.Key("controller");
      w.Int(s.breakdown.controller);
      w.Key("seek");
      w.Int(s.breakdown.seek);
      w.Key("head_switch");
      w.Int(s.breakdown.head_switch);
      w.Key("rotation");
      w.Int(s.breakdown.rotation);
      w.Key("transfer");
      w.Int(s.breakdown.transfer);
      w.Key("flush");
      w.Int(s.breakdown.flush);
      w.Key("nvm");
      w.Int(s.breakdown.nvm);
      w.Key("queueing");
      w.Int(s.breakdown.queueing);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("events");
  w.BeginArray();
  for (const TraceEvent& e : Events()) {
    w.BeginObject();
    w.Key("at");
    w.Int(e.at);
    w.Key("dur");
    w.Int(e.dur);
    w.Key("span");
    w.UInt(e.span_id);
    w.Key("type");
    w.String(EventTypeName(e.type));
    w.Key("layer");
    w.String(LayerName(e.layer));
    w.Key("disk");
    w.UInt(e.disk);
    w.Key("a");
    w.UInt(e.a);
    w.Key("b");
    w.UInt(e.b);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void TraceRecorder::PublishTo(MetricsRegistry& registry, const std::string& prefix) const {
  registry.Counter(prefix + ".completed") = completed_spans_;
  registry.Counter(prefix + ".dropped_events") = dropped_;
  registry.Histogram(prefix + ".latency_ns").Merge(latency_hist_);
  registry.Histogram(prefix + ".queueing_ns").Merge(queueing_hist_);
  registry.Histogram(prefix + ".seek_ns").Merge(seek_hist_);
  registry.Histogram(prefix + ".rotation_ns").Merge(rotation_hist_);
  registry.Histogram(prefix + ".transfer_ns").Merge(transfer_hist_);
}

}  // namespace vlog::obs
