// Table 2 + Figure 9: the effect of technology trends.
//
// The §5.3 benchmark (random synchronous 4 KB updates on UFS, 80% utilization) is repeated on
// three platforms — (HP97560, SPARCstation-10), (ST19101, SPARCstation-10), and (ST19101,
// UltraSPARC-170) — on the regular disk and on the VLD (the VLD measured right after a
// compactor run, as in the paper). Table 2 is the speed-up; Figure 9 is the latency breakdown
// into SCSI overhead / locate / transfer / other (host). Expected shape: update-in-place grows
// increasingly dominated by mechanical "locate" time while virtual logging stays balanced, so
// the gap widens as disk and host improve.
//
// A TraceRecorder is attached for the measured window, so alongside the paper's mean-based
// breakdown the unified JSON report carries per-update latency percentiles and the exact
// seek/rotation/transfer/queueing decomposition.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/workload/benchmarks.h"
#include "src/workload/platform.h"

namespace {

using namespace vlog;

struct Measured {
  common::Duration avg_latency = 0;
  simdisk::LatencyBreakdown per_op;      // The paper's 4-way split (Figure 9).
  obs::LatencyHistogram latency_ns;      // Per-update latency over the measured window.
  obs::TimeBreakdown breakdown;          // Exact component sums over the measured window.
  double iops = 0;
};

Measured RunConfig(workload::DiskModel disk, workload::HostKind host, workload::DiskKind kind,
                   int updates) {
  workload::PlatformConfig config;
  config.fs_kind = workload::FsKind::kUfs;
  config.disk_model = disk;
  config.disk_kind = kind;
  config.host_kind = host;
  // The paper measures the VLD "immediately after running a compactor": let compaction produce
  // as many empty tracks as the free space allows before the measured updates.
  config.vld.target_empty_tracks = 1000;
  workload::Platform platform(config);
  bench::Check(platform.Format(), "format");

  const auto& sb = platform.ufs()->superblock();
  const uint64_t capacity = static_cast<uint64_t>(sb.cg_count) * sb.DataBlocksPerCg() * 4096;
  const uint64_t file_bytes = capacity * 8 / 10 / 4096 * 4096;  // 80% utilization.
  bench::Check(workload::FillFile(platform, "/bench_data", file_bytes), "fill");

  // Warm up into steady state, then give the compactor an idle window (§5.4 measures the VLD
  // latency immediately after running a compactor).
  common::Rng rng(5);
  const uint64_t blocks = file_bytes / 4096;
  std::vector<std::byte> block(4096);
  for (int i = 0; i < 100; ++i) {
    bench::Check(platform.fs().Write("/bench_data", rng.Below(blocks) * 4096, block,
                                     fs::WritePolicy::kSync),
                 "warmup");
  }
  platform.RunIdle(common::Seconds(60));

  // Trace only the measured updates: one span per synchronous write.
  obs::TraceRecorder tracer(&platform.clock());
  platform.AttachTracer(&tracer);
  bench::StatWindow<simdisk::DiskStats> disk_window(platform.raw_disk().stats());
  const common::Time t0 = platform.clock().Now();
  for (int i = 0; i < updates; ++i) {
    bench::Check(platform.fs().Write("/bench_data", rng.Below(blocks) * 4096, block,
                                     fs::WritePolicy::kSync),
                 "update");
  }
  const common::Duration elapsed = platform.clock().Now() - t0;
  platform.AttachTracer(nullptr);

  Measured m;
  const simdisk::DiskStats delta = disk_window.Delta();
  m.avg_latency = elapsed / updates;
  m.per_op.scsi_overhead = delta.breakdown.scsi_overhead / updates;
  m.per_op.locate = delta.breakdown.locate / updates;
  m.per_op.transfer = delta.breakdown.transfer / updates;
  m.per_op.other = m.avg_latency - m.per_op.scsi_overhead - m.per_op.locate - m.per_op.transfer;
  m.latency_ns = tracer.latency_hist();
  m.breakdown = tracer.totals();
  m.iops = elapsed > 0 ? static_cast<double>(updates) / common::ToSeconds(elapsed) : 0;
  return m;
}

void PrintBreakdown(const char* label, const Measured& m) {
  const double total = static_cast<double>(m.avg_latency);
  std::printf("  %-22s %7.2f ms | scsi %4.1f%%  locate %4.1f%%  transfer %4.1f%%  other %4.1f%%\n",
              label, bench::Ms(m.avg_latency), 100.0 * m.per_op.scsi_overhead / total,
              100.0 * m.per_op.locate / total, 100.0 * m.per_op.transfer / total,
              100.0 * m.per_op.other / total);
}

}  // namespace

int main(int argc, char** argv) {
  using workload::DiskKind;
  using workload::DiskModel;
  using workload::HostKind;
  const bench::BenchFlags flags = bench::BenchFlags::Parse(argc, argv);
  const int updates = flags.smoke ? 40 : 150;
  bench::Header("Table 2 + Figure 9: technology trends (UFS random sync updates, 80% util)");

  struct PlatformCase {
    const char* label;
    DiskModel disk;
    HostKind host;
    double paper_speedup;
  };
  const PlatformCase cases[] = {
      {"HP97560 + SPARC-10", DiskModel::kHp97560, HostKind::kSparc10, 2.6},
      {"ST19101 + SPARC-10", DiskModel::kSt19101, HostKind::kSparc10, 5.1},
      {"ST19101 + Ultra-170", DiskModel::kSt19101, HostKind::kUltra170, 9.9},
  };

  bench::MetricsReport report("table2_fig9_trends");
  std::printf("\nTable 2 (speed-up of UFS/VLD over UFS/regular):\n");
  std::printf("%-24s %14s %14s %10s %12s\n", "platform", "regular ms", "VLD ms", "speedup",
              "paper");
  Measured breakdown_rows[3][2];
  int row = 0;
  for (const PlatformCase& c : cases) {
    const Measured regular = RunConfig(c.disk, c.host, DiskKind::kRegular, updates);
    const Measured vld = RunConfig(c.disk, c.host, DiskKind::kVld, updates);
    breakdown_rows[row][0] = regular;
    breakdown_rows[row][1] = vld;
    report.AddRow(std::string(c.label) + " regular", regular.iops, regular.latency_ns,
                  regular.breakdown);
    report.AddRow(std::string(c.label) + " VLD", vld.iops, vld.latency_ns, vld.breakdown,
                  {{"paper_speedup", c.paper_speedup}});
    std::printf("%-24s %14.2f %14.2f %9.1fx %11.1fx\n", c.label, bench::Ms(regular.avg_latency),
                bench::Ms(vld.avg_latency),
                static_cast<double>(regular.avg_latency) / vld.avg_latency, c.paper_speedup);
    ++row;
  }

  std::printf("\nFigure 9 (latency breakdown; left bar update-in-place, right bar VLD):\n");
  for (int i = 0; i < 3; ++i) {
    std::printf("%s\n", cases[i].label);
    PrintBreakdown("update-in-place", breakdown_rows[i][0]);
    PrintBreakdown("virtual log (VLD)", breakdown_rows[i][1]);
  }
  bench::Note("\nShape check: update-in-place becomes locate-dominated as disks improve; the");
  bench::Note("virtual log stays balanced between host and disk, so the gap keeps widening.");
  report.MaybeWrite(flags);
  return 0;
}
