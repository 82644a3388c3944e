// Crash-sweep throughput and recovery-cost distribution. For each scenario: how many crash
// points the harness explores, how fast the sweep runs (wall-clock points/sec — the cost of
// using the harness in CI), and the distribution of *simulated* recovery time across crash
// points (what a real power cycle would cost at each point in the workload's history).
//
// Each scenario — every VLD scenario ctest sweeps, the VLFS script, and both 2-member array
// scenarios — runs twice: write-through (clean/torn/corrupt points only) and behind the
// volatile write-back cache (adding destage-reordering points). The --json=PATH summary
// ("vlog-crash-sweep/1": points, violations, seeds per row) is the CI artifact that documents
// exactly which crash states each run covered; --seed=N replays a failing randomized sweep.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/crashsim/harness.h"
#include "src/crashsim/scenarios.h"
#include "src/obs/json.h"

namespace {

using namespace vlog;

struct SweepRow {
  std::string scenario;
  bool cached = false;
  crashsim::CrashSweepReport report;
  double wall_seconds = 0;
};

void PrintRow(const SweepRow& row) {
  const crashsim::CrashSweepReport& r = row.report;
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL %s%s: %llu invariant violations\n%s\n", row.scenario.c_str(),
                 row.cached ? " (cached)" : "", static_cast<unsigned long long>(r.violations),
                 r.Summary().c_str());
    std::exit(1);
  }
  const double rate =
      row.wall_seconds > 0 ? static_cast<double>(r.points) / row.wall_seconds : 0;
  std::printf("%-24s %-7s | %6llu %6llu %6llu %6llu %7llu | %8.0f | %s\n", row.scenario.c_str(),
              row.cached ? "cached" : "direct", static_cast<unsigned long long>(r.points),
              static_cast<unsigned long long>(r.clean_points),
              static_cast<unsigned long long>(r.torn_points),
              static_cast<unsigned long long>(r.corrupt_points),
              static_cast<unsigned long long>(r.reorder_points), rate, r.Summary().c_str());
}

// The artifact CI uploads next to the other BENCH_*.json files: which crash states this run
// explored, whether any invariant broke, and the seeds needed to replay it exactly.
std::string SummaryJson(const std::vector<SweepRow>& rows) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("vlog-crash-sweep/1");
  w.Key("rows");
  w.BeginArray();
  for (const SweepRow& row : rows) {
    const crashsim::CrashSweepReport& r = row.report;
    w.BeginObject();
    w.Key("scenario");
    w.String(row.scenario);
    w.Key("cached");
    w.UInt(row.cached ? 1 : 0);
    w.Key("points");
    w.UInt(r.points);
    w.Key("clean");
    w.UInt(r.clean_points);
    w.Key("torn");
    w.UInt(r.torn_points);
    w.Key("corrupt");
    w.UInt(r.corrupt_points);
    w.Key("reorder");
    w.UInt(r.reorder_points);
    w.Key("violations");
    w.UInt(r.violations);
    w.Key("seed");
    w.UInt(r.seed);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s (known: --smoke --json=PATH --seed=N)\n", argv[i]);
      return 2;
    }
  }

  crashsim::CrashSweepOptions options;
  options.enumerate.seed = seed;
  options.reorder.seed = seed;
  if (smoke) {
    options.reorder.samples_per_epoch = 6;  // Halve the sampled reorder states for CI.
  }

  bench::Header("Crash sweep: points explored, wall-clock rate, recovery-time distribution");
  std::printf("%-24s %-7s | %6s %6s %6s %6s %7s | %8s | summary\n", "scenario", "device",
              "points", "clean", "torn", "corru", "reorder", "pts/sec");

  std::vector<SweepRow> rows;
  const auto run = [&](const char* name, bool cached, const auto& sweep) {
    const auto t0 = std::chrono::steady_clock::now();
    SweepRow row;
    row.scenario = name;
    row.cached = cached;
    row.report = sweep();
    row.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    PrintRow(row);
    rows.push_back(std::move(row));
  };

  for (const bool cached : {false, true}) {
    const simdisk::DiskParams params =
        cached ? crashsim::CrashSimCachedDiskParams() : crashsim::CrashSimDiskParams();
    for (const auto scenario :
         {crashsim::VldScenario::kUfsOnVld, crashsim::VldScenario::kCompactorActive,
          crashsim::VldScenario::kCompactionUnderLoad,
          crashsim::VldScenario::kCheckpointInterrupted,
          crashsim::VldScenario::kQueuedGroupCommit,
          crashsim::VldScenario::kQueuedMixedReadWrite,
          crashsim::VldScenario::kLfsOnVld}) {
      run(crashsim::VldScenarioName(scenario), cached, [&] {
        crashsim::VldCrashSim sim(params, crashsim::CrashSimVldConfig());
        bench::Check(crashsim::RecordVldScenario(scenario, sim), "record");
        return sim.Sweep(options);
      });
    }
    run("vlfs-script", cached, [&] {
      crashsim::VlfsCrashSim sim(params, crashsim::CrashSimVlfsConfig());
      bench::Check(sim.Record(crashsim::VlfsScenarioScript()), "record");
      return sim.Sweep(options);
    });
    for (const auto scenario : {crashsim::ArrayScenario::kStripedGroupCommit,
                                crashsim::ArrayScenario::kMirroredResync}) {
      run(crashsim::ArrayScenarioName(scenario), cached, [&] {
        crashsim::ArrayCrashSim sim(params, crashsim::CrashSimVldConfig(),
                                    scenario == crashsim::ArrayScenario::kStripedGroupCommit
                                        ? crashsim::CrashSimStripedArrayConfig()
                                        : crashsim::CrashSimMirroredArrayConfig(),
                                    /*member_count=*/2);
        bench::Check(crashsim::RecordArrayScenario(scenario, sim), "record");
        return sim.Sweep(options);
      });
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string json = SummaryJson(rows);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("crash-sweep summary written to %s\n", json_path.c_str());
  }
  return 0;
}
