// Tracing subsystem tests: span mechanics, cross-layer propagation through the queued VLD
// engine, the exact latency-decomposition identity, byte-level trace determinism, and the
// zero-overhead-when-disabled guarantee (attaching a tracer never moves the virtual clock).
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog {
namespace {

using obs::EventType;
using obs::Layer;
using obs::SpanScope;
using obs::TraceRecorder;

simdisk::DiskParams TestDisk() { return simdisk::Truncated(simdisk::Hp97560(), 24); }

// --- TraceRecorder mechanics -------------------------------------------------------------

TEST(TraceRecorderTest, ChargedEventsBecomeBreakdownAndQueueingIsResidual) {
  common::Clock clock;
  TraceRecorder tracer(&clock);
  const uint64_t id = tracer.BeginSpan(Layer::kVld, 100, 8);
  clock.Advance(1000);
  tracer.Charge(EventType::kSeek, Layer::kDisk, 1000);
  clock.Advance(500);
  tracer.Charge(EventType::kRotation, Layer::kDisk, 500);
  clock.Advance(2500);  // Un-charged time: becomes the queueing residual.
  clock.Advance(300);
  tracer.Charge(EventType::kMediaXfer, Layer::kDisk, 300);
  tracer.EndSpan(id);

  const TraceRecorder::Span* span = tracer.span(id);
  ASSERT_NE(span, nullptr);
  EXPECT_FALSE(span->open);
  EXPECT_EQ(span->Latency(), 4300);
  EXPECT_EQ(span->breakdown.seek, 1000);
  EXPECT_EQ(span->breakdown.rotation, 500);
  EXPECT_EQ(span->breakdown.transfer, 300);
  EXPECT_EQ(span->breakdown.queueing, 2500);
  EXPECT_EQ(span->breakdown.Total(), span->Latency());
  EXPECT_EQ(tracer.completed_spans(), 1u);
  EXPECT_EQ(tracer.latency_hist().Sum(), 4300);
  EXPECT_EQ(tracer.queueing_hist().Sum(), 2500);
}

TEST(TraceRecorderTest, SpanScopeRootsThenInherits) {
  common::Clock clock;
  TraceRecorder tracer(&clock);
  {
    SpanScope outer(&tracer, Layer::kFs, 1);
    EXPECT_EQ(tracer.current_span(), outer.id());
    {
      // An inner layer must inherit the caller's span, not open a second one.
      SpanScope inner(&tracer, Layer::kVld, 2);
      EXPECT_EQ(inner.id(), outer.id());
      EXPECT_EQ(tracer.current_span(), outer.id());
    }
    EXPECT_EQ(tracer.current_span(), outer.id());  // Inner exit must not end the span.
    EXPECT_TRUE(tracer.span(outer.id())->open);
  }
  EXPECT_EQ(tracer.current_span(), 0u);
  EXPECT_EQ(tracer.spans().size(), 1u);
  EXPECT_FALSE(tracer.spans().front().open);
}

TEST(TraceRecorderTest, NullTracerSpanScopeIsNoOp) {
  SpanScope scope(nullptr, Layer::kVld, 1, 2);
  EXPECT_EQ(scope.id(), 0u);
}

TEST(TraceRecorderTest, RingOverflowKeepsNewestAndCountsDropped) {
  common::Clock clock;
  TraceRecorder tracer(&clock, /*event_capacity=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    clock.Advance(1);
    tracer.Annotate(EventType::kMapAppend, Layer::kVlog, i);
  }
  EXPECT_EQ(tracer.event_count(), 8u);
  EXPECT_EQ(tracer.dropped_events(), 12u);
  const std::vector<obs::TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at, events[i].at);  // Chronological after wraparound.
  }
  EXPECT_EQ(events.back().a, 19u);  // Newest retained.
  EXPECT_EQ(events.front().a, 12u);
}

TEST(TraceRecorderTest, PublishToRegistryExportsHistograms) {
  common::Clock clock;
  TraceRecorder tracer(&clock);
  const uint64_t id = tracer.BeginSpan(Layer::kVld);
  clock.Advance(777);
  tracer.Charge(EventType::kSeek, Layer::kDisk, 777);
  tracer.EndSpan(id);
  obs::MetricsRegistry registry;
  tracer.PublishTo(registry, "req");
  EXPECT_EQ(registry.counters().at("req.completed"), 1u);
  EXPECT_EQ(registry.histograms().at("req.latency_ns").Sum(), 777);
  EXPECT_EQ(registry.histograms().at("req.seek_ns").Sum(), 777);
  const std::string json = registry.Json();
  EXPECT_NE(json.find("\"req.completed\":1"), std::string::npos) << json;
}

// --- MetricsRegistry gauge sampling -------------------------------------------------------

TEST(MetricsRegistryTest, SamplePinsGaugeValuesUntilCleared) {
  obs::MetricsRegistry registry;
  uint64_t live = 10;
  registry.RegisterGauge("depth", [&] { return live; });
  registry.Sample();  // Pins 10.
  live = 99;
  EXPECT_NE(registry.Json().find("\"depth\":10"), std::string::npos) << registry.Json();
  registry.ClearSample();  // Back to reading the live closure.
  EXPECT_NE(registry.Json().find("\"depth\":99"), std::string::npos) << registry.Json();
  // Re-registering a gauge drops its stale pin: the new source must win immediately.
  registry.Sample();
  registry.RegisterGauge("depth", [] { return uint64_t{7}; });
  EXPECT_NE(registry.Json().find("\"depth\":7"), std::string::npos) << registry.Json();
}

// --- Cross-layer propagation through the queued VLD engine --------------------------------

struct QueuedRun {
  common::Time final_time = 0;
  std::string trace_json;
  std::vector<core::Vld::QueuedCompletion> completions;
  uint64_t completed_spans = 0;
  common::Duration latency_sum = 0;
  common::Duration breakdown_total = 0;
  common::Duration queueing_sum = 0;
  std::vector<obs::TraceEvent> events;
};

// `rounds` rounds of `depth` seeded random 4 KB updates through SubmitWrite/FlushQueue, with
// or without a tracer attached.
QueuedRun RunQueued(uint32_t depth, int rounds, bool traced) {
  common::Clock clock;
  simdisk::SimDisk disk(TestDisk(), &clock);
  TraceRecorder tracer(&clock);
  if (traced) {
    disk.set_tracer(&tracer);
  }
  core::Vld vld(&disk, core::VldConfig{.queue_depth = 32});
  EXPECT_TRUE(vld.Format().ok());
  common::Rng rng(42);
  const uint32_t blocks = vld.logical_blocks() / 2;
  std::vector<std::byte> payload(4096, std::byte{0x7});
  QueuedRun run;
  for (int round = 0; round < rounds; ++round) {
    for (uint32_t i = 0; i < depth; ++i) {
      EXPECT_TRUE(
          vld.SubmitWrite(static_cast<simdisk::Lba>(rng.Below(blocks)) * 8, payload).ok());
    }
    auto flushed = vld.FlushQueue();
    EXPECT_TRUE(flushed.ok());
    for (const core::Vld::QueuedCompletion& c : *flushed) {
      run.completions.push_back(c);
    }
  }
  run.final_time = clock.Now();
  if (traced) {
    run.trace_json = tracer.TraceJson();
    run.completed_spans = tracer.completed_spans();
    run.latency_sum = tracer.latency_hist().Sum();
    run.breakdown_total = tracer.totals().Total();
    run.queueing_sum = tracer.totals().queueing;
    run.events = tracer.Events();
  }
  return run;
}

common::Time RunSync(int writes, bool traced) {
  common::Clock clock;
  simdisk::SimDisk disk(TestDisk(), &clock);
  TraceRecorder tracer(&clock);
  if (traced) {
    disk.set_tracer(&tracer);
  }
  core::Vld vld(&disk, core::VldConfig{.queue_depth = 32});
  EXPECT_TRUE(vld.Format().ok());
  common::Rng rng(42);
  const uint32_t blocks = vld.logical_blocks() / 2;
  std::vector<std::byte> payload(4096, std::byte{0x7});
  for (int i = 0; i < writes; ++i) {
    EXPECT_TRUE(vld.Write(static_cast<simdisk::Lba>(rng.Below(blocks)) * 8, payload).ok());
  }
  return clock.Now();
}

TEST(SpanPropagationTest, OneSpanPerQueuedWriteSharingOneGroupCommit) {
  const QueuedRun run = RunQueued(/*depth=*/6, /*rounds=*/3, /*traced=*/true);
  // Every queued write got its own span, completed by FlushQueue.
  EXPECT_EQ(run.completed_spans, 18u);
  ASSERT_EQ(run.completions.size(), 18u);
  for (const core::Vld::QueuedCompletion& c : run.completions) {
    EXPECT_NE(c.span_id, 0u);
    EXPECT_GE(c.QueueDelay(), 0);
  }
  // All six spans of one round are distinct (no request inherited a sibling's span).
  for (size_t i = 1; i < 6; ++i) {
    EXPECT_NE(run.completions[i].span_id, run.completions[0].span_id);
  }
  // The batch's map entries committed as one shared group commit per round: a marker event on
  // span 0 (it belongs to the whole batch, not any single request) with a = batch size.
  int group_commits = 0;
  for (const obs::TraceEvent& e : run.events) {
    if (e.type == EventType::kGroupCommit) {
      ++group_commits;
      EXPECT_EQ(e.span_id, 0u);
      EXPECT_EQ(e.a, 6u);
      EXPECT_GT(e.b, 0u);
    }
  }
  EXPECT_EQ(group_commits, 3);
  // Each span carries disk-layer events (the request's own media work was attributed to it).
  int media_on_spans = 0;
  for (const obs::TraceEvent& e : run.events) {
    if (e.type == EventType::kMediaXfer && e.span_id != 0) {
      ++media_on_spans;
    }
  }
  EXPECT_GE(media_on_spans, 18);
}

TEST(SpanPropagationTest, BreakdownComponentsSumToLatencyExactly) {
  const QueuedRun run = RunQueued(/*depth=*/8, /*rounds=*/4, /*traced=*/true);
  // The central identity: summed per-component time (including the queueing residual) equals
  // the summed request latency, exactly, in integral nanoseconds.
  EXPECT_EQ(run.breakdown_total, run.latency_sum);
  EXPECT_GT(run.latency_sum, 0);
  // With nothing to wait behind, every nanosecond of a depth-1 request's latency is its own
  // work: its batch-of-one commit is attributed to its span, and the queueing residual is
  // exactly zero. (QueueDelay() is still nonzero — it measures submit-to-dispatch, which
  // includes the request's own controller time.)
  const QueuedRun depth1 = RunQueued(/*depth=*/1, /*rounds=*/16, /*traced=*/true);
  EXPECT_EQ(depth1.queueing_sum, 0);
  EXPECT_EQ(depth1.breakdown_total, depth1.latency_sum);
}

// --- Determinism --------------------------------------------------------------------------

TEST(TraceDeterminismTest, SameSeedRunsProduceByteIdenticalTraces) {
  const QueuedRun a = RunQueued(/*depth=*/4, /*rounds=*/5, /*traced=*/true);
  const QueuedRun b = RunQueued(/*depth=*/4, /*rounds=*/5, /*traced=*/true);
  EXPECT_EQ(a.final_time, b.final_time);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);  // Byte-identical, not just equivalent.
  EXPECT_NE(a.trace_json.find("\"schema\":\"vlog-trace/1\""), std::string::npos);
}

// --- Zero overhead when disabled ----------------------------------------------------------

TEST(TracingOverheadTest, AttachingTracerNeverMovesTheClock) {
  // Queued path: same workload with and without a tracer ends at the same sim-time.
  const QueuedRun traced = RunQueued(/*depth=*/4, /*rounds=*/4, /*traced=*/true);
  const QueuedRun bare = RunQueued(/*depth=*/4, /*rounds=*/4, /*traced=*/false);
  EXPECT_EQ(traced.final_time, bare.final_time);
  // Sync path too.
  EXPECT_EQ(RunSync(24, /*traced=*/true), RunSync(24, /*traced=*/false));
}

}  // namespace
}  // namespace vlog
