// Per-layer counters read from a Vld stack (simdisk, Vld, allocator, free space, virtual log,
// compactor) over a measurement window, and the simulated-time split from obs::TraceRecorder.
// Everything here is deterministic for a given seed.
#ifndef PERFBENCH_SRC_VLD_LAYERS_H_
#define PERFBENCH_SRC_VLD_LAYERS_H_

#include "perfbench/src/workload.h"
#include "src/core/vld.h"
#include "src/obs/trace.h"

namespace perfbench {

// Stats of every layer under a Vld at the start of a measurement window.
struct VldSnapshot {
  vlog::simdisk::DiskStats disk;
  vlog::core::VldStats vld;
  vlog::core::AllocatorStats alloc;
  vlog::core::VirtualLogStats vlog;
  vlog::core::CompactorStats compactor;

  static VldSnapshot Take(vlog::core::Vld& v) {
    return VldSnapshot{v.disk().stats(), v.stats(), v.allocator().stats(), v.vlog().stats(),
                       v.compactor().stats()};
  }
};

// Adds the window's per-layer metrics to r.layer and sets r.device_sectors. `host_ops` is the
// number of host requests the window served and `user_blocks` the blocks they wrote.
inline void RecordVldLayers(vlog::core::Vld& v, const VldSnapshot& before, uint64_t host_ops,
                            uint64_t user_blocks, PassResult& r) {
  const VldSnapshot now = VldSnapshot::Take(v);
  const vlog::simdisk::DiskStats disk = now.disk - before.disk;
  const vlog::core::VldStats vs = now.vld - before.vld;
  const vlog::core::VirtualLogStats vl = now.vlog - before.vlog;
  const double ops = static_cast<double>(host_ops);
  r.device_sectors = disk.sectors_written;

  r.layer["simdisk.sectors_written_per_op"] = Ratio(disk.sectors_written, ops);
  r.layer["simdisk.sectors_read_per_op"] = Ratio(disk.sectors_read, ops);
  r.layer["simdisk.seeks_per_op"] = Ratio(disk.seeks, ops);
  r.layer["simdisk.buffer_hit_frac"] = Ratio(disk.buffer_hits, disk.read_requests);

  r.layer["vld.group_commits"] = vs.group_commits;
  r.layer["vld.forwarded_read_sectors"] = vs.forwarded_read_sectors;
  r.layer["vld.read_modify_writes"] = vs.read_modify_writes;

  const double allocs = static_cast<double>(now.alloc.allocations - before.alloc.allocations);
  r.layer["alloc.same_track_frac"] = Ratio(now.alloc.same_track - before.alloc.same_track, allocs);
  r.layer["alloc.cylinder_seek_frac"] =
      Ratio(now.alloc.cylinder_seeks - before.alloc.cylinder_seeks, allocs);
  r.layer["alloc.greedy_fallbacks"] = now.alloc.greedy_fallbacks - before.alloc.greedy_fallbacks;
  r.layer["alloc.est_locate_us_per_alloc"] = Ratio(
      vlog::common::ToMicroseconds(now.alloc.estimated_locate - before.alloc.estimated_locate),
      allocs);
  r.layer["space.utilization_end"] = v.PhysicalUtilization();

  r.layer["vlog.appends_per_write"] = Ratio(vl.appends, user_blocks);
  r.layer["vlog.packed_sectors_per_commit"] = Ratio(vl.packed_sectors, vl.packed_transactions);
  r.layer["vlog.checkpoints"] = vl.checkpoints;
  r.layer["vlog.auto_checkpoints"] = vl.auto_checkpoints;
  r.layer["vlog.recycled_blocks"] = vl.recycled_blocks;

  r.layer["compactor.tracks_compacted"] =
      now.compactor.tracks_compacted - before.compactor.tracks_compacted;
  r.layer["compactor.blocks_moved_per_user_block"] =
      Ratio(now.compactor.data_blocks_moved - before.compactor.data_blocks_moved, user_blocks);
  r.layer["compactor.bursts_preempted"] =
      now.compactor.bursts_preempted - before.compactor.bursts_preempted;
  r.layer["compactor.sim_busy_ms"] =
      vlog::common::ToMilliseconds(now.compactor.busy_time - before.compactor.busy_time);
}

// Simulated microseconds per completed request span, by component (head switches count as
// seek). Kept apart from r.layer: only breakdown passes have it.
inline void RecordBreakdown(const vlog::obs::TraceRecorder& tracer,
                            std::map<std::string, double>& out) {
  const vlog::obs::TimeBreakdown& t = tracer.totals();
  const double n = static_cast<double>(tracer.completed_spans());
  const auto per_op = [n](vlog::common::Duration d) {
    return Ratio(vlog::common::ToMicroseconds(d), n);
  };
  out["simdisk.sim_seek_us"] = per_op(t.seek + t.head_switch);
  out["simdisk.sim_rotation_us"] = per_op(t.rotation);
  out["simdisk.sim_transfer_us"] = per_op(t.transfer);
  out["simdisk.sim_controller_us"] = per_op(t.controller);
  out["simdisk.sim_queueing_us"] = per_op(t.queueing);
  out["simdisk.sim_host_cpu_us"] = per_op(t.host_cpu);
  out["simdisk.sim_flush_us"] = per_op(t.flush);
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_VLD_LAYERS_H_
