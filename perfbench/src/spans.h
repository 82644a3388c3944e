// Benchmark-side wall-clock spans.
//
// The benchmark wraps every call it makes into a layer of the simulator (and its own
// bookkeeping between those calls) in a span: name, start, end, parent and request id, timed
// with std::chrono::steady_clock. Spans live in memory and are summarised (and optionally
// written out) when the run ends. A null SpanLog* disables everything at the cost of one
// pointer test per call, which is how the untraced passes run.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

inline int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What a span wraps. The prefix names the layer whose public call it times ("bench." is the
// benchmark's own work between calls).
enum class SpanName : uint8_t {
  kVldSubmit,      // Vld::SubmitRead / SubmitWrite.
  kVldFlush,       // Vld::FlushQueue.
  kVldSyncRead,    // BlockDevice::Read into the Vld (timing wrapper under UFS).
  kVldSyncWrite,   // BlockDevice::Write into the Vld (timing wrapper under UFS).
  kVldSyncFlush,   // BlockDevice::Flush into the Vld (timing wrapper under UFS).
  kGovernorBurst,  // CompactionGovernor::RunBurst.
  kObsPoll,        // obs::Timeline::Poll.
  kUfsCall,        // One Ufs call (Create, Write, Read, Remove, DropCaches).
  kCrashSweep,     // VldCrashSim::Sweep.
  kBenchPayload,   // Building a write payload from the model.
  kBenchCheck,     // Matching completions, checking read payloads, updating the model.
  kCount,
};

inline const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kVldSubmit:
      return "vld.submit";
    case SpanName::kVldFlush:
      return "vld.flush";
    case SpanName::kVldSyncRead:
      return "vld.sync_read";
    case SpanName::kVldSyncWrite:
      return "vld.sync_write";
    case SpanName::kVldSyncFlush:
      return "vld.sync_flush";
    case SpanName::kGovernorBurst:
      return "governor.burst";
    case SpanName::kObsPoll:
      return "obs.poll";
    case SpanName::kUfsCall:
      return "ufs.call";
    case SpanName::kCrashSweep:
      return "crashsim.sweep";
    case SpanName::kBenchPayload:
      return "bench.payload";
    case SpanName::kBenchCheck:
      return "bench.check";
    case SpanName::kCount:
      break;
  }
  return "?";
}

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  uint64_t request = 0;  // Request (or batch) id the span served; 0 = none.
  uint32_t parent = 0;   // 1-based index of the enclosing span; 0 = a root span.
  SpanName name = SpanName::kCount;
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  // Opens a span as a child of the current one and makes it current. Returns its 1-based id.
  uint32_t Begin(SpanName name, uint64_t request) {
    Span s;
    s.name = name;
    s.request = request;
    s.parent = current_;
    s.start = WallNowNs();
    spans_.push_back(s);
    current_ = static_cast<uint32_t>(spans_.size());
    return current_;
  }

  void End(uint32_t id) {
    Span& s = spans_[id - 1];
    s.end = WallNowNs();
    current_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // One line per span: name,start_ns,end_ns,parent,request (start times relative to the first).
  bool WriteCsv(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%lld,%lld,%u,%llu\n", SpanNameString(s.name),
                   static_cast<long long>(s.start - t0), static_cast<long long>(s.end - t0),
                   s.parent, static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  uint32_t current_ = 0;
};

// Scoped span; a no-op when `log` is null.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanName name, uint64_t request = 0) : log_(log) {
    if (log_ != nullptr) {
      id_ = log_->Begin(name, request);
    }
  }
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
