// perfbench: the simulator's benchmark runner.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out DIR]
//
// Runs one workload in this (single-threaded) process. The workload generates its inputs from
// the seed, then the runner executes passes — each a fresh stack: setup, measured phase,
// verification — until S seconds have gone by (an untimed warm-up pass, then at least three
// timed ones). Wall-clock metrics are medians over the timed passes; simulated metrics and
// per-layer counts are deterministic for the seed and must come out identical in every pass,
// traced or not, which the runner checks.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced passes with passes
// that record benchmark spans around every call into a layer, adds one pass with the
// simulator's obs::TraceRecorder attached for the simulated-time split, and reports the
// per-layer metrics. Human-readable lines come first; the last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "perfbench/src/workload.h"

namespace perfbench {
namespace {

constexpr int kMinPasses = 3;  // Timed passes, after the untimed warm-up pass 0.
constexpr int kMaxPasses = 64;
// Cheap setups are noisy, so setup-only builds add samples until there are at least
// kSetupSamples of them and they add up to kSetupSampleSeconds (at most kMaxSetupSamples).
constexpr size_t kSetupSamples = 9;
constexpr size_t kMaxSetupSamples = 201;
constexpr double kSetupSampleSeconds = 0.5;
// The benchmark's spans must account for at least this share of the measured wall time.
constexpr double kMinSpanCoverage = 0.90;

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(uint64_t seed);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"governed-hot", MakeGovernedHot},
    {"mixed-fulldisk", MakeMixedFullDisk},
    {"smallfile-ufs", MakeSmallFileUfs},
    {"crash-sweep", MakeCrashSweep},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json "end_to_end"). The wall
// throughput, ops_per_wall_s, is printed beside them but is not one of them: on a shared host
// it drifts between runs by more than any bound the benchmark may set (see README.md).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"max_rss_mb", "MB"},       {"sim_iops", "ops/sim-s"},
    {"sim_write_p50_ms", "ms"}, {"sim_write_p99_ms", "ms"}, {"sim_read_p50_ms", "ms"},
    {"sim_read_p99_ms", "ms"},  {"write_amp", "ratio"},
};

// The per-layer metrics of a traced run (BENCHMARK.json "per_layer"). A layer a workload
// does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"simdisk.construct_s", "s"},
    {"simdisk.sectors_written_per_op", "count"},
    {"simdisk.sectors_read_per_op", "count"},
    {"simdisk.seeks_per_op", "count"},
    {"simdisk.buffer_hit_frac", "ratio"},
    {"simdisk.sim_seek_us", "us"},
    {"simdisk.sim_rotation_us", "us"},
    {"simdisk.sim_transfer_us", "us"},
    {"simdisk.sim_controller_us", "us"},
    {"simdisk.sim_queueing_us", "us"},
    {"simdisk.sim_host_cpu_us", "us"},
    {"simdisk.sim_flush_us", "us"},
    {"vld.format_s", "s"},
    {"vld.prepopulate_s", "s"},
    {"vld.submit_wall_us", "us"},
    {"vld.flush_wall_us_per_op", "us"},
    {"vld.flush_wall_p99_us", "us"},
    {"vld.sync_write_wall_us", "us"},
    {"vld.sync_read_wall_us", "us"},
    {"vld.group_commits", "count"},
    {"vld.forwarded_read_sectors", "count"},
    {"vld.read_modify_writes", "count"},
    {"alloc.same_track_frac", "ratio"},
    {"alloc.cylinder_seek_frac", "ratio"},
    {"alloc.greedy_fallbacks", "count"},
    {"alloc.est_locate_us_per_alloc", "us"},
    {"space.empty_tracks_min", "count"},
    {"space.utilization_end", "ratio"},
    {"vlog.appends_per_write", "ratio"},
    {"vlog.packed_sectors_per_commit", "ratio"},
    {"vlog.checkpoints", "count"},
    {"vlog.auto_checkpoints", "count"},
    {"vlog.recycled_blocks", "count"},
    {"compactor.tracks_compacted", "count"},
    {"compactor.blocks_moved_per_user_block", "ratio"},
    {"compactor.bursts_preempted", "count"},
    {"compactor.sim_busy_ms", "ms"},
    {"governor.burst_wall_us", "us"},
    {"governor.burst_wall_p99_us", "us"},
    {"governor.decisions", "count"},
    {"governor.bursts_per_decision", "ratio"},
    {"governor.backoffs", "count"},
    {"governor.pressure_overrides", "count"},
    {"obs.poll_wall_us", "us"},
    {"ufs.call_wall_us", "us"},
    {"ufs.self_wall_us", "us"},
    {"ufs.cache_hit_frac", "ratio"},
    {"ufs.sync_metadata_writes_per_file", "ratio"},
    {"crashsim.record_s", "s"},
    {"crashsim.sweep_s", "s"},
    {"crashsim.clean_points", "count"},
    {"crashsim.torn_points", "count"},
    {"crashsim.corrupt_points", "count"},
    {"crashsim.reorder_points", "count"},
    {"crashsim.scan_recovery_frac", "ratio"},
    {"crashsim.park_recovery_frac", "ratio"},
    {"crashsim.checkpoint_recovery_frac", "ratio"},
    {"crashsim.rolled_back_recovery_frac", "ratio"},
    {"crashsim.sim_recovery_p50_ms", "ms"},
    {"crashsim.sim_recovery_p99_ms", "ms"},
    {"bench.ops_per_wall_s", "ops/s"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.span_coverage_frac", "ratio"},
    {"bench.self_wall_frac", "ratio"},
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double Ms(double ns) { return ns / 1e6; }

// Everything a pass produced that must not depend on wall time, as text.
std::string DigestText(const PassResult& r) {
  std::string out;
  char line[256];
  const auto add = [&](const char* key, double v) {
    std::snprintf(line, sizeof(line), "%s=%.17g\n", key, v);
    out += line;
  };
  const auto hist = [&](const char* key, const obs::LatencyHistogram& h) {
    std::snprintf(line, sizeof(line), "%s=n%" PRIu64 ",sum%" PRId64 ",min%" PRId64 ",max%" PRId64
                  ",p50:%.17g,p99:%.17g\n",
                  key, h.Count(), h.Sum(), h.Min(), h.Max(), h.Percentile(50), h.Percentile(99));
    out += line;
  };
  add("ops", static_cast<double>(r.ops));
  add("attempted", static_cast<double>(r.attempted));
  add("failed", static_cast<double>(r.failed));
  add("sim_ops", static_cast<double>(r.sim_ops));
  add("sim_elapsed", static_cast<double>(r.sim_elapsed));
  add("user_sectors", static_cast<double>(r.user_sectors));
  add("device_sectors", static_cast<double>(r.device_sectors));
  hist("sim_write", r.sim_write);
  hist("sim_read", r.sim_read);
  for (const auto& [k, v] : r.layer) {
    add(k.c_str(), v);
  }
  return out;
}

// Per-layer wall metrics from one span pass.
std::map<std::string, double> SpanMetrics(const SpanLog& log, const PassResult& r) {
  const std::vector<Span>& spans = log.spans();
  constexpr size_t kNames = static_cast<size_t>(SpanName::kCount);
  std::array<uint64_t, kNames> count{};
  std::array<double, kNames> total{};
  std::array<double, kNames> self{};
  std::array<obs::LatencyHistogram, kNames> durations;
  std::vector<double> child(spans.size() + 1, 0.0);
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child[s.parent] += static_cast<double>(s.end - s.start);
    }
  }
  double roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const size_t k = static_cast<size_t>(s.name);
    const double d = static_cast<double>(s.end - s.start);
    ++count[k];
    total[k] += d;
    self[k] += d - child[i + 1];
    durations[k].Record(s.end - s.start);
    if (s.parent == 0) {
      roots += d;
    }
  }
  const auto idx = [](SpanName n) { return static_cast<size_t>(n); };
  const auto mean_us = [&](SpanName n) { return Ratio(total[idx(n)] / 1e3, count[idx(n)]); };
  const double measure_ns = r.measure_s * 1e9;
  std::map<std::string, double> m;
  m["vld.submit_wall_us"] = mean_us(SpanName::kVldSubmit);
  m["vld.flush_wall_us_per_op"] = Ratio(total[idx(SpanName::kVldFlush)] / 1e3, r.ops);
  m["vld.flush_wall_p99_us"] = durations[idx(SpanName::kVldFlush)].Percentile(99) / 1e3;
  m["vld.sync_write_wall_us"] = mean_us(SpanName::kVldSyncWrite);
  m["vld.sync_read_wall_us"] = mean_us(SpanName::kVldSyncRead);
  m["governor.burst_wall_us"] = mean_us(SpanName::kGovernorBurst);
  m["governor.burst_wall_p99_us"] = durations[idx(SpanName::kGovernorBurst)].Percentile(99) / 1e3;
  m["obs.poll_wall_us"] = mean_us(SpanName::kObsPoll);
  m["ufs.call_wall_us"] = mean_us(SpanName::kUfsCall);
  m["ufs.self_wall_us"] =
      Ratio(self[idx(SpanName::kUfsCall)] / 1e3, count[idx(SpanName::kUfsCall)]);
  m["bench.span_coverage_frac"] = Ratio(roots, measure_ns);
  m["bench.self_wall_frac"] =
      Ratio(total[idx(SpanName::kBenchPayload)] + total[idx(SpanName::kBenchCheck)], measure_ns);
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

int Run(const Args& args) {
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& e : kWorkloads) {
    if (args.workload == e.name) {
      entry = &e;
    }
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Keep freed memory in the process. With glibc's dynamic thresholds the first passes map and
  // fault in their disk images while later ones reuse warm heap pages, so passes would differ
  // by when the thresholds moved. Pinned, the untimed pass 0 warms the heap and every later
  // pass runs warm. Disk images above the 32 MiB cap (the full-size disk) are mapped afresh in
  // every pass, alike.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);

  const int64_t gen0 = WallNowNs();
  const std::unique_ptr<Workload> workload = entry->make(args.seed);
  const double generate_s = (WallNowNs() - gen0) * 1e-9;
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", entry->name,
              args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("input generation (not measured): %.3f s\n", generate_s);

  std::vector<PassResult> results;
  std::vector<PassMode> modes;
  std::vector<double> setups;
  std::vector<std::map<std::string, double>> span_metrics;
  std::string first_digest;
  bool deterministic = true;

  const auto run_pass = [&](PassMode mode) {
    PassResult r;
    std::unique_ptr<SpanLog> log = mode == PassMode::kSpans ? std::make_unique<SpanLog>() : nullptr;
    SpanLog* spans = log.get();
    {
      std::unique_ptr<Pass> pass = workload->NewPass(mode);
      const int64_t t0 = WallNowNs();
      pass->Setup(r);
      const int64_t t1 = WallNowNs();
      pass->Measure(r, spans);
      const int64_t t2 = WallNowNs();
      pass->Finish(r);
      r.setup_s = (t1 - t0) * 1e-9;
      r.measure_s = (t2 - t1) * 1e-9;
    }
    const std::string digest = DigestText(r);
    const char* mode_name = mode == PassMode::kPlain   ? "plain"
                            : mode == PassMode::kSpans ? "spans"
                                                       : "breakdown";
    std::printf("pass %zu %-9s setup %.4f s  measured %.4f s  %" PRIu64 " ops  %.1f ops/s  "
                "digest %016" PRIx64 "\n",
                results.size(), mode_name, r.setup_s, r.measure_s, r.ops,
                Ratio(r.ops, r.measure_s), Fnv1a(digest));
    if (first_digest.empty()) {
      first_digest = digest;
    } else if (digest != first_digest) {
      deterministic = false;
      std::printf("NONDETERMINISTIC: pass %zu differs from pass 0\n--- pass 0 ---\n%s--- pass %zu "
                  "---\n%s",
                  results.size(), first_digest.c_str(), results.size(), digest.c_str());
    }
    if (spans != nullptr) {
      span_metrics.push_back(SpanMetrics(*log, r));
      if (!args.spans_out.empty() && span_metrics.size() == 1) {
        const std::string path =
            args.spans_out + "/" + entry->name + "-seed" + std::to_string(args.seed) + ".csv";
        if (!log->WriteCsv(path.c_str())) {
          std::printf("could not write spans to %s\n", path.c_str());
        }
      }
    }
    if (!results.empty()) {
      setups.push_back(r.setup_s);
    }
    modes.push_back(mode);
    results.push_back(std::move(r));
  };

  const int64_t start = WallNowNs();
  const auto elapsed = [&] { return (WallNowNs() - start) * 1e-9; };
  const int min_passes = 1 + (args.trace ? 2 * kMinPasses - 2 : kMinPasses);
  for (int i = 0; i < kMaxPasses; ++i) {
    if (i >= min_passes && elapsed() >= args.seconds) {
      break;
    }
    run_pass(args.trace && i % 2 == 0 && i > 0 ? PassMode::kSpans : PassMode::kPlain);
  }
  if (args.trace) {
    run_pass(PassMode::kBreakdown);
  }
  const auto more_setups = [&] {
    double sum = 0;
    for (const double s : setups) {
      sum += s;
    }
    return setups.size() < kMaxSetupSamples &&
           (setups.size() < kSetupSamples || sum < kSetupSampleSeconds) &&
           elapsed() < 1.5 * args.seconds;
  };
  while (more_setups()) {
    PassResult scratch;
    std::unique_ptr<Pass> pass = workload->NewPass(PassMode::kPlain);
    const int64_t t0 = WallNowNs();
    pass->Setup(scratch);
    setups.push_back((WallNowNs() - t0) * 1e-9);
  }

  // --- Aggregate ---
  const PassResult& first = results.front();
  std::vector<double> plain_rates;
  std::vector<double> span_rates;
  std::map<std::string, std::vector<double>> walls;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const PassResult& r = results[i];
    attempted += r.attempted;
    failed += r.failed;
    if (i == 0) {
      continue;  // The warm-up pass: checked, not timed.
    }
    if (modes[i] == PassMode::kPlain) {
      plain_rates.push_back(Ratio(r.ops, r.measure_s));
    } else if (modes[i] == PassMode::kSpans) {
      span_rates.push_back(Ratio(r.ops, r.measure_s));
    }
    for (const auto& [k, v] : r.wall) {
      walls[k].push_back(v);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  const double ops_per_wall_s = Median(plain_rates);
  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(setups);
  e2e["max_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  e2e["sim_iops"] = Ratio(first.sim_ops, common::ToSeconds(first.sim_elapsed));
  e2e["sim_write_p50_ms"] = Ms(first.sim_write.Percentile(50));
  e2e["sim_write_p99_ms"] = Ms(first.sim_write.Percentile(99));
  e2e["sim_read_p50_ms"] = Ms(first.sim_read.Percentile(50));
  e2e["sim_read_p99_ms"] = Ms(first.sim_read.Percentile(99));
  e2e["write_amp"] = Ratio(first.device_sectors, first.user_sectors);

  const double failed_frac = Ratio(failed, attempted);
  const bool correct = failed == 0 && deterministic && attempted > 0;

  std::printf("\nend-to-end (wall: medians over timed passes; sim_* are deterministic)\n");
  const std::map<std::string, uint64_t> samples = {
      {"setup_s", setups.size()},
      {"max_rss_mb", 1},
      {"sim_iops", first.sim_ops},
      {"sim_write_p50_ms", first.sim_write.Count()},
      {"sim_write_p99_ms", first.sim_write.Count()},
      {"sim_read_p50_ms", first.sim_read.Count()},
      {"sim_read_p99_ms", first.sim_read.Count()},
      {"write_amp", first.user_sectors},
  };
  for (const MetricDef& m : kEndToEnd) {
    std::printf("  %-34s %14.6g %-10s n=%" PRIu64 "\n", m.name, e2e[m.name], m.unit,
                samples.at(m.name));
  }
  const bool points = args.workload == "crash-sweep";
  std::printf("  %-34s %14.6g %-10s n=%zu\n", points ? "points_per_wall_s" : "ops_per_wall_s",
              ops_per_wall_s, points ? "points/s" : "ops/s", plain_rates.size());
  std::printf("  %-34s %14.6g %-10s n=%zu\n", "fastest pass", Max(plain_rates),
              points ? "points/s" : "ops/s", plain_rates.size());
  std::printf("  %-34s %14.6g %-10s n=%" PRIu64 "\n", "failed_frac", failed_frac, "ratio",
              attempted);
  if (args.workload == "crash-sweep") {
    std::printf("  %-34s %14.6g %-10s n=%" PRIu64 "\n", "sim_recovery_p50_ms",
                first.layer.at("crashsim.sim_recovery_p50_ms"), "ms", first.ops);
    std::printf("  %-34s %14.6g %-10s n=%" PRIu64 "\n", "sim_recovery_p99_ms",
                first.layer.at("crashsim.sim_recovery_p99_ms"), "ms", first.ops);
  }
  for (const PassResult& r : results) {
    for (const std::string& e : r.errors) {
      std::printf("FAILED: %s\n", e.c_str());
    }
  }

  std::map<std::string, double> layer;
  if (args.trace) {
    layer = first.layer;
    for (const PassResult& r : results) {
      layer.insert(r.breakdown.begin(), r.breakdown.end());
    }
    for (const auto& [k, v] : walls) {
      layer[k] = Median(v);
    }
    std::map<std::string, std::vector<double>> span_values;
    for (const auto& m : span_metrics) {
      for (const auto& [k, v] : m) {
        span_values[k].push_back(v);
      }
    }
    for (const auto& [k, v] : span_values) {
      layer[k] = Median(v);
    }
    layer["bench.ops_per_wall_s"] = ops_per_wall_s;
    layer["bench.trace_overhead_frac"] = 1.0 - Ratio(Median(span_rates), ops_per_wall_s);
    std::printf("\nper-layer (traced: %zu span passes, overhead %.2f%%, span coverage %.1f%%)\n",
                span_rates.size(), 100 * layer["bench.trace_overhead_frac"],
                100 * layer["bench.span_coverage_frac"]);
    for (const MetricDef& m : kPerLayer) {
      std::printf("  %-38s %14.6g %s\n", m.name, layer[m.name], m.unit);
    }
    std::printf("span coverage of the measured phase: %s (%.1f%%, floor %.0f%%)\n",
                layer["bench.span_coverage_frac"] >= kMinSpanCoverage ? "ok" : "LOW",
                100 * layer["bench.span_coverage_frac"], 100 * kMinSpanCoverage);
  }
  std::printf("correct=%s deterministic=%s passes=%zu attempted=%" PRIu64 " failed=%" PRIu64
              " digest=%016" PRIx64 "\n",
              correct ? "true" : "false", deterministic ? "true" : "false", results.size(),
              attempted, failed, Fnv1a(first_digest));

  // The result line.
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool comma = false;
  const auto emit = [&](const MetricDef& m, double v) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  comma ? ", " : "", m.name, std::isfinite(v) ? v : 0.0, m.unit);
    json += buf;
    comma = true;
  };
  if (args.trace) {
    for (const MetricDef& m : kPerLayer) {
      emit(m, layer[m.name]);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      emit(m, e2e[m.name]);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans-out DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
