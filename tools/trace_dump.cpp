// trace_dump: run a canned, seeded queued-write workload against the VLD with tracing on and
// render the recorded spans — a human-readable window into what the TraceRecorder captures.
//
//   trace_dump                 span table: one line per request with its time breakdown
//   trace_dump --span=N        event-by-event tree for span N (its full journey down the stack)
//   trace_dump --events        the chronological event log (all spans interleaved); with
//                              --timeline, printed after the timeline, so --governor
//                              --timeline --events lists each compaction victim and its live
//                              blocks (compact_start a=track b=live)
//   trace_dump --json          the raw vlog-trace/1 JSON (byte-identical across runs)
//   trace_dump --timeline      windowed metrics over the run: per-window table plus one ASCII
//                              sparkline per series (counters, gauges, per-window p99); with
//                              --json, the machine-readable vlog-timeline/1 document instead
//   --window=MS                timeline window width in ms (default 25)
//   --depth=D --rounds=R       workload shape (defaults: depth 4, 8 rounds)
//   --cache=N                  volatile write-back cache of N sectors (default 0 = off); the
//                              VLD's barriers then destage it, so flush/destage events appear
//   --reads=P                  fraction of queued ops that are reads (default 0 = all writes);
//                              the region is prepopulated untraced first, so read spans and
//                              any same-batch RAW forwarding markers show up in the dump
//   --array=N                  drive the same workload through an N-member striped VldArray
//                              (each member disk gets its own recorder; events and spans carry
//                              the member index in their `disk` field). --json with no --disk
//                              emits a vlog-array-trace/1 wrapper with one vlog-trace/1 dump
//                              per member, in member order.
//   --disk=D                   restrict every output mode to member D's recorder (0 is the
//                              only valid value without --array)
//   --nvm                      front the VLD with the NVM staging tier: the queued rounds pass
//                              through the stage, and each round adds a small staged sync
//                              write (an NVM log append), an overlapping direct write on odd
//                              rounds (the invalidate protocol), and a bounded destage burst,
//                              with a full drain at the end — so the dump shows the whole NVM
//                              event vocabulary (nvm_write/nvm_stage/nvm_invalidate/destage
//                              markers and the nvm breakdown component). Incompatible with
//                              --array (the stage fronts a single VLD).
//   --governor                 duty-cycled background compaction between rounds: the workload
//                              region is prepopulated and half-trimmed (untraced) to create
//                              compaction debt, a CompactionGovernor watches the timeline's
//                              latency SLO, and every round ends with a governed burst (even
//                              rounds declare a small idle gap). Its decision series
//                              (gov.* counters/gauges) land on the timeline, so this requires
//                              --timeline and is incompatible with --array.
//
// The workload is deterministic (fixed seed on the virtual clock), so every mode's output is
// stable run to run — the same property the trace determinism test asserts.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/array/vld_array.h"
#include "src/common/rng.h"
#include "src/core/governor.h"
#include "src/core/vld.h"
#include "src/nvm/nvm_stage.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/nvm_device.h"
#include "src/simdisk/sim_disk.h"

namespace {

using namespace vlog;

double Ms(common::Duration d) { return common::ToMilliseconds(d); }

void Fatal(const common::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

void PrintEvent(const obs::TraceEvent& e) {
  std::printf("  %12.3f ms  d=%u %-12s %-6s span=%llu dur=%.3f ms a=%llu b=%llu\n", Ms(e.at),
              e.disk, obs::EventTypeName(e.type), obs::LayerName(e.layer),
              static_cast<unsigned long long>(e.span_id), Ms(e.dur),
              static_cast<unsigned long long>(e.a), static_cast<unsigned long long>(e.b));
}

// One member's full stack: its own clock, disk, recorder, and VLD. A bare (non-array) run is
// simply the one-member case without the array layer on top.
struct Stack {
  common::Clock clock;
  std::unique_ptr<simdisk::SimDisk> disk;
  std::unique_ptr<obs::TraceRecorder> tracer;
  std::unique_ptr<core::Vld> vld;
};

// Strict numeric flag parsing: the whole value must be a number. atoi/atof silently turned
// "--rounds=abc" into 0, which then ran a degenerate workload and exited 0 — a malformed flag
// must instead reach the usage path and exit nonzero.
bool ParseU64(const char* s, uint64_t* out) {
  if (*s == '\0' || *s == '-' || *s == '+') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseDouble(const char* s, double* out) {
  if (*s == '\0') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: trace_dump [--depth=D] [--rounds=R] [--cache=N] [--reads=P] "
               "[--array=N] [--disk=D] [--window=MS] [--governor] [--nvm] "
               "[--span=N|--events|--json|--timeline]\n");
  return 2;
}

// One sparkline glyph per window, normalized to the series max (blank when the max is 0).
std::string Spark(const std::vector<uint64_t>& values) {
  static constexpr char kLevels[] = " .:-=+*#%@";
  uint64_t max = 0;
  for (const uint64_t v : values) {
    max = std::max(max, v);
  }
  std::string out;
  out.reserve(values.size());
  for (const uint64_t v : values) {
    out.push_back(max == 0 ? ' ' : kLevels[v * 9 / max]);
  }
  return out;
}

void PrintTimeline(const obs::Timeline& timeline) {
  const std::vector<obs::TimelineWindow>& windows = timeline.windows();
  std::printf("timeline: %zu windows\n", windows.size());
  std::printf("%4s %10s %10s %6s %10s %10s %10s\n", "win", "start ms", "end ms", "ops",
              "p50 ms", "p99 ms", "max ms");
  for (const obs::TimelineWindow& w : windows) {
    const obs::LatencyHistogram& h = w.histograms[0];
    std::printf("%4llu %10.3f %10.3f %6llu %10.3f %10.3f %10.3f\n",
                static_cast<unsigned long long>(w.index), Ms(w.start), Ms(w.end),
                static_cast<unsigned long long>(h.Count()), h.Percentile(50) / 1e6,
                h.Percentile(99) / 1e6, static_cast<double>(h.Max()) / 1e6);
  }
  std::printf("\nseries sparklines (normalized per series; max on the right):\n");
  const auto series_line = [&](const std::string& name, const std::vector<uint64_t>& vals) {
    uint64_t max = 0;
    for (const uint64_t v : vals) {
      max = std::max(max, v);
    }
    std::printf("  %-28s |%s| max=%llu\n", name.c_str(), Spark(vals).c_str(),
                static_cast<unsigned long long>(max));
  };
  std::vector<uint64_t> vals(windows.size());
  for (size_t h = 0; h < timeline.histogram_names().size(); ++h) {
    for (size_t i = 0; i < windows.size(); ++i) {
      vals[i] = static_cast<uint64_t>(windows[i].histograms[h].Percentile(99));
    }
    series_line("p99:" + timeline.histogram_names()[h], vals);
  }
  for (size_t c = 0; c < timeline.counter_names().size(); ++c) {
    for (size_t i = 0; i < windows.size(); ++i) {
      vals[i] = windows[i].counters[c];
    }
    series_line(timeline.counter_names()[c], vals);
  }
  for (size_t g = 0; g < timeline.gauge_names().size(); ++g) {
    for (size_t i = 0; i < windows.size(); ++i) {
      vals[i] = windows[i].gauges[g];
    }
    series_line(timeline.gauge_names()[g], vals);
  }
  for (const obs::Timeline::SloResult& slo : timeline.slos()) {
    std::printf("\nslo: p99(%s) <= %.3f ms per window: %zu violation span(s)\n",
                slo.hist.c_str(), Ms(slo.budget), slo.violations.size());
    for (const obs::Timeline::SloViolation& v : slo.violations) {
      std::printf("  windows %llu..%llu (%.3f..%.3f ms): worst p99 %.3f ms, dominant %s\n",
                  static_cast<unsigned long long>(v.start_window),
                  static_cast<unsigned long long>(v.end_window), Ms(v.start), Ms(v.end),
                  v.worst_p99 / 1e6, v.dominant.c_str());
    }
  }
  std::printf("steady state: %s (%llu consecutive steady window(s))\n",
              timeline.IsSteady() ? "yes" : "no",
              static_cast<unsigned long long>(timeline.steady_windows()));
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t depth = 4;
  uint64_t rounds = 8;
  uint64_t cache_sectors = 0;
  double read_fraction = 0.0;
  uint64_t array_members = 0;  // 0 = bare VLD (no array layer).
  int show_disk = -1;          // -1 = every member.
  uint64_t window_ms = 25;
  uint64_t show_span = 0;
  bool show_events = false;
  bool show_json = false;
  bool show_timeline = false;
  bool governed = false;
  bool nvm = false;
  for (int i = 1; i < argc; ++i) {
    uint64_t disk_value = 0;
    if (std::strncmp(argv[i], "--depth=", 8) == 0) {
      if (!ParseU64(argv[i] + 8, &depth)) {
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      if (!ParseU64(argv[i] + 9, &rounds)) {
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--cache=", 8) == 0) {
      if (!ParseU64(argv[i] + 8, &cache_sectors)) {
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--reads=", 8) == 0) {
      if (!ParseDouble(argv[i] + 8, &read_fraction)) {
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--array=", 8) == 0) {
      if (!ParseU64(argv[i] + 8, &array_members)) {
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--disk=", 7) == 0) {
      if (!ParseU64(argv[i] + 7, &disk_value) || disk_value > 7) {
        return Usage();
      }
      show_disk = static_cast<int>(disk_value);
    } else if (std::strncmp(argv[i], "--window=", 9) == 0) {
      if (!ParseU64(argv[i] + 9, &window_ms) || window_ms == 0) {
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--span=", 7) == 0) {
      if (!ParseU64(argv[i] + 7, &show_span) || show_span == 0) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--governor") == 0) {
      governed = true;
    } else if (std::strcmp(argv[i], "--nvm") == 0) {
      nvm = true;
    } else if (std::strcmp(argv[i], "--events") == 0) {
      show_events = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      show_json = true;
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      show_timeline = true;
    } else {
      return Usage();
    }
  }
  const uint32_t members = static_cast<uint32_t>(array_members == 0 ? 1 : array_members);
  if (depth == 0 || depth > 32 || rounds == 0 || read_fraction < 0 || read_fraction > 1 ||
      members > 8) {
    std::fprintf(stderr,
                 "trace_dump: depth must be 1..32, rounds > 0, reads in [0, 1], array 1..8\n");
    return 2;
  }
  if (show_disk >= static_cast<int>(members)) {
    std::fprintf(stderr, "trace_dump: --disk=%d but only members 0..%u exist\n", show_disk,
                 members - 1);
    return 2;
  }
  if (governed && (!show_timeline || array_members > 0)) {
    std::fprintf(stderr,
                 "trace_dump: --governor requires --timeline (its decision series are "
                 "timeline series) and does not support --array\n");
    return 2;
  }
  if (nvm && array_members > 0) {
    std::fprintf(stderr, "trace_dump: --nvm fronts a single VLD and does not support --array\n");
    return 2;
  }

  // The canned workload: `rounds` closed-loop rounds of `depth` random 4 KB updates through
  // the queued engine (group commit) — the bare VLD, or an N-member striped array whose
  // FlushQueue fans each round out as one packed commit per touched member.
  std::vector<std::unique_ptr<Stack>> stacks;
  for (uint32_t m = 0; m < members; ++m) {
    auto s = std::make_unique<Stack>();
    simdisk::DiskParams params = simdisk::Truncated(simdisk::Hp97560(), 36);
    params.cache.capacity_sectors = cache_sectors;
    s->disk = std::make_unique<simdisk::SimDisk>(params, &s->clock);
    s->tracer = std::make_unique<obs::TraceRecorder>(&s->clock);
    s->disk->set_tracer(s->tracer.get());
    s->vld = std::make_unique<core::Vld>(s->disk.get(), core::VldConfig{.queue_depth = 32});
    stacks.push_back(std::move(s));
  }
  std::unique_ptr<simdisk::NvmDevice> nvm_dev;
  std::unique_ptr<core::NvmStage> nvm_stage;
  std::unique_ptr<array::VldArray> array;
  if (array_members > 0) {
    std::vector<core::Vld*> vlds;
    for (const auto& s : stacks) {
      vlds.push_back(s->vld.get());
    }
    array = std::make_unique<array::VldArray>(std::move(vlds),
                                              array::VldArrayConfig{.mode = array::ArrayMode::kStriped});
    Fatal(array->Format(), "format");
  } else {
    Fatal(stacks[0]->vld->Format(), "format");
  }
  if (nvm) {
    nvm_dev = std::make_unique<simdisk::NvmDevice>(simdisk::NvmDeviceParams{},
                                                   &stacks[0]->clock);
    nvm_stage = std::make_unique<core::NvmStage>(nvm_dev.get(), stacks[0]->vld.get());
    Fatal(nvm_stage->Format(), "stage format");
    nvm_stage->set_tracer(stacks[0]->tracer.get());
  }

  const uint64_t sectors =
      array != nullptr ? array->SectorCount() : stacks[0]->vld->SectorCount();
  const uint32_t blocks = static_cast<uint32_t>(sectors / 8) / 2;
  common::Rng rng(2);
  std::vector<std::byte> payload(4096, std::byte{0x42});
  const auto submit_write = [&](simdisk::Lba lba) {
    if (nvm_stage != nullptr) {
      return nvm_stage->SubmitWrite(lba, payload).status();
    }
    return array != nullptr ? array->SubmitWrite(lba, payload).status()
                            : stacks[0]->vld->SubmitWrite(lba, payload).status();
  };
  const auto submit_read = [&](simdisk::Lba lba) {
    if (nvm_stage != nullptr) {
      return nvm_stage->SubmitRead(lba, 8).status();
    }
    return array != nullptr ? array->SubmitRead(lba, 8).status()
                            : stacks[0]->vld->SubmitRead(lba, 8).status();
  };
  if (read_fraction > 0) {
    // Prepopulate the region with the tracers detached, so reads hit mapped blocks without
    // hundreds of setup spans bloating the dump.
    for (const auto& s : stacks) {
      s->disk->set_tracer(nullptr);
    }
    for (uint32_t b = 0; b < blocks; ++b) {
      Fatal(array != nullptr ? array->Write(static_cast<simdisk::Lba>(b) * 8, payload)
                             : stacks[0]->vld->Write(static_cast<simdisk::Lba>(b) * 8, payload),
            "prepopulate");
    }
    for (const auto& s : stacks) {
      s->disk->set_tracer(s->tracer.get());
    }
  }
  if (governed) {
    // Compaction debt, built untraced: fill the region, then trim every other block so most
    // tracks hold holes worth plugging. The governed bursts during the workload then have
    // real relocations to show in the dump.
    stacks[0]->disk->set_tracer(nullptr);
    for (uint32_t b = 0; b < blocks; ++b) {
      Fatal(stacks[0]->vld->Write(static_cast<simdisk::Lba>(b) * 8, payload), "prepopulate");
    }
    for (uint32_t b = 0; b < blocks; b += 2) {
      Fatal(stacks[0]->vld->Trim(static_cast<simdisk::Lba>(b) * 8, 8), "trim");
    }
    stacks[0]->disk->set_tracer(stacks[0]->tracer.get());
  }
  // The timeline attaches after setup so window 0 starts at the workload, not at Format:
  // the completion-latency histogram the driver records into, per-member breakdown counters
  // from each recorder, every layer's probes, a default per-window p99 SLO, and a short
  // steady-state watch on the latency series.
  std::unique_ptr<obs::Timeline> timeline;
  obs::WindowedHistogram* timeline_latency = nullptr;
  const auto device_now = [&] {
    return array != nullptr ? array->now() : stacks[0]->clock.Now();
  };
  if (show_timeline) {
    timeline = std::make_unique<obs::Timeline>(obs::TimelineConfig{
        .window = common::Milliseconds(static_cast<common::Duration>(window_ms)),
        .start = device_now()});
    timeline_latency = &timeline->AddHistogram("latency");
    if (array != nullptr) {
      for (uint32_t m = 0; m < members; ++m) {
        obs::RegisterBreakdownCounters(*timeline, *stacks[m]->tracer,
                                       "m" + std::to_string(m) + ".breakdown.");
      }
      array->RegisterTimelineProbes(*timeline);
      timeline->AddSlo("latency", common::Milliseconds(25), "m0.breakdown.");
    } else {
      obs::RegisterBreakdownCounters(*timeline, *stacks[0]->tracer, "breakdown.");
      stacks[0]->vld->RegisterTimelineProbes(*timeline, "");
      if (nvm_stage != nullptr) {
        nvm_stage->RegisterTimelineProbes(*timeline, "nvm.");
      }
      timeline->AddSlo("latency", common::Milliseconds(25), "breakdown.");
    }
    timeline->AddSteadySeries("p99:latency");
    timeline->ConfigureSteadyState(4, 0.2);
  }
  std::unique_ptr<core::CompactionGovernor> governor;
  if (governed) {
    core::GovernorConfig gcfg;
    gcfg.slo_budget = common::Milliseconds(25);  // Matches the timeline's SLO budget.
    // Chase a reserve deeper than what the trimmed setup already left empty, so NeedsWork
    // holds for the whole short workload and every round's grant paths stay live.
    gcfg.target_empty_tracks =
        static_cast<uint32_t>(stacks[0]->vld->space().EmptyTrackCount()) + 8;
    governor = std::make_unique<core::CompactionGovernor>(stacks[0]->vld.get(),
                                                          timeline.get(), gcfg);
    governor->RegisterTimelineProbes(*timeline, "");
  }
  for (uint64_t round = 0; round < rounds; ++round) {
    simdisk::Lba raw_lba = 0;
    bool have_write = false;
    for (uint32_t i = 0; i < depth; ++i) {
      if (read_fraction > 0 && i + 1 == depth && have_write) {
        // The round's last op re-reads its first write: a guaranteed same-batch RAW, so the
        // forwarding markers are part of the mixed fixture.
        Fatal(submit_read(raw_lba), "submit raw read");
        continue;
      }
      const simdisk::Lba lba = static_cast<simdisk::Lba>(rng.Below(blocks)) * 8;
      if (read_fraction > 0 && rng.Chance(read_fraction)) {
        Fatal(submit_read(lba), "submit read");
      } else {
        Fatal(submit_write(lba), "submit");
        if (!have_write) {
          have_write = true;
          raw_lba = lba;
        }
      }
    }
    const auto flush = [&](auto& dev) {
      auto done = dev.FlushQueue();
      Fatal(done.status(), "flush");
      for (const auto& c : done.value()) {
        Fatal(c.status, "queued read");
      }
      if (timeline != nullptr) {
        for (const auto& c : done.value()) {
          timeline_latency->Record(c.Latency());
        }
        timeline->Poll(device_now());
      }
    };
    if (array != nullptr) {
      flush(*array);
    } else if (nvm_stage != nullptr) {
      flush(*nvm_stage);
    } else {
      flush(*stacks[0]->vld);
    }
    if (nvm_stage != nullptr) {
      // One small staged sync write (an NVM log append), an overlapping above-threshold
      // direct write on odd rounds (conflict destage + invalidate record), and a bounded
      // destage burst: every NVM event type lands in the dump.
      const simdisk::Lba staged_lba = static_cast<simdisk::Lba>((round % 4) * 8);
      Fatal(nvm_stage->Write(staged_lba, payload), "staged write");
      if (round % 2 == 1) {
        const std::vector<std::byte> big(4 * 4096, std::byte{0x17});
        Fatal(nvm_stage->Write(staged_lba, big), "direct overlap write");
      }
      Fatal(nvm_stage->RunDestageBurst(common::Milliseconds(2)).status(), "destage");
      if (timeline != nullptr) {
        timeline->Poll(device_now());
      }
    }
    if (governor != nullptr) {
      // Even rounds declare a small idle gap (granted in full); odd rounds only get whatever
      // credit the duty cycle accrued — both grant paths appear in the gov.* series.
      governor->RunBurst(round % 2 == 0 ? common::Milliseconds(10) : common::Duration{0});
      timeline->Poll(device_now());
    }
  }

  if (nvm_stage != nullptr) {
    Fatal(nvm_stage->Drain(), "drain");
  }
  if (timeline != nullptr) {
    timeline->Finish(device_now());
    if (show_json) {
      std::printf("%s\n", timeline->Json().c_str());
      return 0;
    }
    PrintTimeline(*timeline);
    if (!show_events) {
      return 0;
    }
  }

  // The members whose recorders the chosen output mode renders (--disk narrows to one).
  std::vector<uint32_t> shown;
  for (uint32_t m = 0; m < members; ++m) {
    if (show_disk < 0 || show_disk == static_cast<int>(m)) {
      shown.push_back(m);
    }
  }

  if (show_json) {
    if (shown.size() == 1) {
      std::printf("%s\n", stacks[shown[0]]->tracer->TraceJson().c_str());
      return 0;
    }
    // Multi-member wrapper: one vlog-trace/1 dump per member, in member order.
    std::printf("{\"schema\":\"vlog-array-trace/1\",\"members\":%u,\"disks\":[", members);
    for (uint32_t m : shown) {
      std::printf("%s%s", m == 0 ? "" : ",", stacks[m]->tracer->TraceJson().c_str());
    }
    std::printf("]}\n");
    return 0;
  }
  if (show_events) {
    // Merge the shown members' (individually chronological) event logs by time; ties keep
    // member order, so the merged log is deterministic.
    std::vector<obs::TraceEvent> events;
    size_t buffered = 0;
    uint64_t dropped = 0;
    for (uint32_t m : shown) {
      buffered += stacks[m]->tracer->event_count();
      dropped += stacks[m]->tracer->dropped_events();
      for (const obs::TraceEvent& e : stacks[m]->tracer->Events()) {
        events.push_back(e);
      }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const obs::TraceEvent& x, const obs::TraceEvent& y) { return x.at < y.at; });
    std::printf("events (%zu buffered, %llu dropped):\n", buffered,
                static_cast<unsigned long long>(dropped));
    for (const obs::TraceEvent& e : events) {
      PrintEvent(e);
    }
    return 0;
  }
  if (show_span != 0) {
    // Span ids are per-member recorder; --disk picks whose (default member 0).
    const Stack& s = *stacks[shown[0]];
    const obs::TraceRecorder::Span* span = s.tracer->span(show_span);
    if (span == nullptr) {
      std::fprintf(stderr, "trace_dump: no span %llu on disk %u (have 1..%llu)\n",
                   static_cast<unsigned long long>(show_span), shown[0],
                   static_cast<unsigned long long>(s.tracer->spans().size()));
      return 1;
    }
    std::printf("span %llu (disk %u, %s, lba=%llu sectors=%llu): submit %.3f ms, "
                "complete %.3f ms, latency %.3f ms\n",
                static_cast<unsigned long long>(show_span), span->disk,
                obs::LayerName(span->layer), static_cast<unsigned long long>(span->a),
                static_cast<unsigned long long>(span->b), Ms(span->submit), Ms(span->complete),
                Ms(span->Latency()));
    for (const obs::TraceEvent& e : s.tracer->Events()) {
      if (e.span_id == show_span) {
        PrintEvent(e);
      }
    }
    const obs::TimeBreakdown& bd = span->breakdown;
    std::printf("  breakdown: queueing %.3f + controller %.3f + seek %.3f + head_switch %.3f "
                "+ rotation %.3f + transfer %.3f + flush %.3f + nvm %.3f + host %.3f "
                "= %.3f ms\n",
                Ms(bd.queueing), Ms(bd.controller), Ms(bd.seek), Ms(bd.head_switch),
                Ms(bd.rotation), Ms(bd.transfer), Ms(bd.flush), Ms(bd.nvm), Ms(bd.host_cpu),
                Ms(bd.Total()));
    return 0;
  }

  size_t total_spans = 0;
  size_t total_events = 0;
  for (uint32_t m : shown) {
    total_spans += stacks[m]->tracer->spans().size();
    total_events += stacks[m]->tracer->event_count();
  }
  std::printf("%llu-deep queued %s writes, %llu rounds: %zu spans, %zu events\n",
              static_cast<unsigned long long>(depth), array != nullptr ? "array" : "VLD",
              static_cast<unsigned long long>(rounds), total_spans, total_events);
  std::printf("%6s %4s %6s %10s %10s | %9s %9s %9s %9s %9s %9s %9s %9s\n", "span", "disk",
              "layer", "submit ms", "latency", "queue", "ctrl", "seek", "rot", "xfer", "flush",
              "nvm", "total");
  for (uint32_t m : shown) {
    const auto& spans = stacks[m]->tracer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint64_t id = i + 1;
      const auto& span = spans[i];
      if (span.open) {
        continue;
      }
      const obs::TimeBreakdown& bd = span.breakdown;
      std::printf(
          "%6llu %4u %6s %10.3f %10.3f | %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
          static_cast<unsigned long long>(id), span.disk, obs::LayerName(span.layer),
          Ms(span.submit), Ms(span.Latency()), Ms(bd.queueing), Ms(bd.controller), Ms(bd.seek),
          Ms(bd.rotation), Ms(bd.transfer), Ms(bd.flush), Ms(bd.nvm), Ms(bd.Total()));
    }
  }
  std::printf("(rerun with --span=N for one span's event tree, --events for the full log,\n"
              " --json for the machine-readable vlog-trace/1 dump)\n");
  return 0;
}
