// Ablation (Appendix A.1 / §4.2): the choice of the VLD physical block size.
//
// Formula (9) predicts that locating all the free sectors for a 4 KB logical block is cheapest
// when the physical block size matches the logical block size (b == B). This bench prints the
// model's prediction and then measures real VLD write latency for physical blocks of 1, 2, 4,
// and 8 sectors at two utilizations. The model's locate gap between sizes is a few to tens of
// microseconds (3-36 us).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/models/analytic.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace {

using namespace vlog;

// Average synchronous 4 KB write latency at roughly `target_util` logical utilization.
double MeasureMs(uint32_t block_sectors, double target_util) {
  common::Clock clock;
  simdisk::SimDisk raw(simdisk::Truncated(simdisk::SeagateSt19101(), 11), &clock);
  core::VldConfig config;
  config.block_sectors = block_sectors;
  config.compactor_enabled = false;  // Isolate the allocator's search cost (greedy mode).
  core::Vld vld(&raw, config);
  bench::Check(vld.Format(), "format");

  const uint64_t logical_4k = vld.SectorCount() / 8;
  const uint64_t used = static_cast<uint64_t>(target_util * logical_4k);
  std::vector<std::byte> block(4096, std::byte{1});
  for (uint64_t b = 0; b < used; ++b) {
    bench::Check(vld.Write(b * 8, block), "fill");
  }
  common::Rng rng(3);
  for (int i = 0; i < 100; ++i) {  // Reach a steady head position.
    bench::Check(vld.Write(rng.Below(used) * 8, block), "warmup");
  }
  const common::Time t0 = clock.Now();
  constexpr int kWrites = 400;
  for (int i = 0; i < kWrites; ++i) {
    bench::Check(vld.Write(rng.Below(used) * 8, block), "write");
  }
  return bench::Ms(clock.Now() - t0) / kWrites;
}

}  // namespace

int main() {
  bench::Header("Ablation: VLD physical block size (logical block B = 8 sectors = 4 KB)");
  const simdisk::DiskParams st = simdisk::SeagateSt19101();
  const uint32_t n = st.geometry.sectors_per_track;
  const double sector_ms = bench::Ms(st.SectorTime());

  std::printf("%-10s | %-23s | %-23s\n", "", "util 30%", "util 70%");
  std::printf("%10s | %10s %12s | %10s %12s\n", "b(sectors)", "model(ms)", "measured(ms)",
              "model(ms)", "measured(ms)");
  for (const uint32_t b : {1u, 2u, 4u, 8u}) {
    std::printf("%10u |", b);
    for (const double util : {0.30, 0.70}) {
      const double model_ms = models::BlockSkips(1.0 - util, n, 8, b) * sector_ms;
      const double measured = MeasureMs(b, util);
      std::printf(" %10.3f %12.3f |", model_ms, measured);
    }
    std::printf("\n");
  }
  bench::Note("\nThe model covers only the locate component; measurements include SCSI,");
  bench::Note("transfer, and the map-sector write. The model's locate gap between sizes is a few");
  bench::Note("to tens of microseconds (3-36 us), below the measured spread, so no size wins");
  bench::Note("clearly here.");
  return 0;
}
