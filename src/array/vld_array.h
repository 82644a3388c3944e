// A multi-disk virtual-log array: one BlockDevice over N per-disk VLD instances.
//
// Each member keeps its own request queue, write-back cache, and virtual log; the array layer
// adds only address translation and fan-out. Two modes:
//
//   kStriped  — the logical space is cut into stripe units of `stripe_blocks` physical blocks
//               and dealt round-robin across the members (chunk c lives on member c % N).
//               Capacity is N times the smallest member, rounded down to whole chunks.
//   kMirrored — every write goes to every healthy member; reads round-robin over the healthy
//               members and keep working (degraded mode) when a replica is marked failed.
//               Capacity is the smallest member.
//
// Time: the whole repository is single-threaded over virtual clocks, so the array drives its
// members one at a time but models them as mechanically parallel. Each member disk owns its own
// clock; before the array touches member m it advances that clock to the array's own time, and
// after a fan-out the array time becomes the *maximum* of the touched members' finish times —
// the cross-disk completion barrier. An array write is acknowledged (and an array Flush is
// durable) only when every member it touched has finished its part, while members the request
// never touched contribute nothing. With N = 1 every AdvanceTo is a no-op and the array is
// bit-, clock-, and breakdown-identical to its bare member VLD (asserted in tests).
//
// Queued I/O gives cross-disk group commit: FlushQueue splits every queued array request into
// per-member runs, submits each member's runs in array submission order, and then flushes each
// member once — so a multi-stripe write burst costs one queue batch (one packed virtual-log
// commit) per member, not one commit per block. Per-member hazard and RAW-forwarding rules are
// inherited from the member VLDs because submission order is preserved within each member.
//
// Recovery enumerates every member's virtual log independently (Vld::Recover) and stitches the
// per-member maps into one consistent array map. Striped arrays have no redundancy: each
// member's recovered map is taken as-is, so a member that crashed mid-destage rolls back only
// its own torn tail — an array-level batch is atomic per member group, not across members
// (see DESIGN.md "Array"). Mirrored arrays elect the lowest-indexed healthy member as
// authoritative and resynchronize the other replicas block by block: a replica that lags
// (crashed mid-destage and rolled back) is rewritten from the authoritative copy, and blocks
// the authoritative member does not map are trimmed from replicas that do. Array-acknowledged
// writes are on every replica (the acknowledgement barrier is the max commit time), so resync
// never undoes an acknowledged write.
#ifndef SRC_ARRAY_VLD_ARRAY_H_
#define SRC_ARRAY_VLD_ARRAY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/obs/histogram.h"
#include "src/simdisk/block_device.h"

namespace vlog::array {

enum class ArrayMode : uint8_t { kStriped, kMirrored };

struct VldArrayConfig {
  ArrayMode mode = ArrayMode::kStriped;
  // Stripe unit in physical blocks (striped mode). One chunk = stripe_blocks * block_sectors
  // sectors; chunks are dealt round-robin across the members.
  uint32_t stripe_blocks = 8;
};

struct ArrayRecoveryInfo {
  std::vector<core::VldRecoveryInfo> members;  // Per-member virtual-log recovery, in index order.
  uint32_t authoritative = 0;     // Mirrored: the member whose map won the election.
  uint64_t resynced_blocks = 0;   // Mirrored: blocks rewritten onto lagging replicas.
  uint64_t trimmed_blocks = 0;    // Mirrored: stale replica blocks trimmed away.
};

class VldArray : public simdisk::BlockDevice {
 public:
  // Non-owning: the members (and their disks and clocks) outlive the array. All members must
  // share block_sectors; member queue depths should be at least the array's total queue depth,
  // since a whole array batch can land on one member (striped) or every member (mirrored).
  VldArray(std::vector<core::Vld*> members, VldArrayConfig config = {});

  common::Status Format();
  common::StatusOr<ArrayRecoveryInfo> Recover();

  // BlockDevice. Write acknowledges at the barrier: the max finish time over the members the
  // extent touched. Read completes when its last member run completes.
  common::Status Read(simdisk::Lba lba, std::span<std::byte> out) override;
  common::Status Write(simdisk::Lba lba, std::span<const std::byte> in) override;
  // Durable only when every member's own flush barrier has completed.
  common::Status Flush() override;
  uint64_t SectorCount() const override;
  uint32_t SectorBytes() const override;

  // --- Queued I/O (cross-disk group commit) ---

  struct QueuedCompletion {
    uint64_t id = 0;
    bool is_write = true;
    simdisk::Lba lba = 0;
    common::Time submit_time = 0;
    // Writes: the cross-disk barrier — when the *last* touched member's packed map commit
    // reached its media. Reads: when the last member run's data was assembled.
    common::Time complete_time = 0;
    common::Time dispatch_time = 0;  // When the first member run's controller work finished.
    // A read whose member run failed carries the first such error (and no data).
    common::Status status;
    std::vector<std::byte> data;     // Read payload (empty for writes).
    common::Duration Latency() const { return complete_time - submit_time; }
  };
  common::StatusOr<uint64_t> SubmitWrite(simdisk::Lba lba, std::span<const std::byte> in);
  common::StatusOr<uint64_t> SubmitRead(simdisk::Lba lba, uint64_t sectors);
  // Splits every queued request into member runs, submits them in array submission order, then
  // flushes each touched member once — one queue batch (one packed group commit) per member.
  // Completions are returned in array submission order. A batch with more runs for a member
  // than that member's queue has free slots fails with kFailedPrecondition before any member
  // sees a run, and is dropped.
  common::StatusOr<std::vector<QueuedCompletion>> FlushQueue();
  size_t QueuedRequests() const { return queue_.size(); }
  uint32_t queue_depth() const { return queue_depth_; }

  // --- Mirroring / degraded mode ---

  // Marks a member failed: mirrored writes skip it, mirrored reads avoid it. I/O on a striped
  // array with a failed member fails (striping has no redundancy).
  common::Status MarkFailed(uint32_t member);
  // Re-admits a member. Mirrored callers should Recover() afterwards so the replica is
  // resynchronized before it serves reads.
  common::Status MarkHealthy(uint32_t member);
  bool failed(uint32_t member) const { return failed_[member]; }
  uint32_t healthy_members() const;

  // --- Introspection ---

  ArrayMode mode() const { return config_.mode; }
  uint32_t member_count() const { return static_cast<uint32_t>(members_.size()); }
  core::Vld& member(uint32_t i) { return *members_[i]; }
  uint32_t block_sectors() const { return block_sectors_; }
  uint64_t chunk_sectors() const { return chunk_sectors_; }
  common::Time now() const { return now_; }
  // Latencies of completed queued array requests, and of the member runs they fanned out to.
  const obs::LatencyHistogram& latency_hist() const { return latency_hist_; }
  const obs::LatencyHistogram& member_hist(uint32_t i) const { return member_hist_[i]; }

  // Registers array-level gauges plus every member's VLD and disk probes, each member under
  // prefix "m<i>." — so a two-member array exposes m0.vld.free_blocks, m1.disk.sectors_written,
  // and so on. Drive the timeline with Poll(array.now()). Pure reads; never advances any clock.
  void RegisterTimelineProbes(obs::Timeline& timeline) const;

 private:
  // One contiguous piece of an array extent on a single member.
  struct Run {
    uint32_t member = 0;
    simdisk::Lba member_lba = 0;
    uint64_t offset = 0;  // Sector offset into the array extent's buffer.
    uint64_t sectors = 0;
  };
  // An outstanding queued array request with the member runs it was split into.
  struct Pending {
    uint64_t id = 0;
    bool is_write = true;
    simdisk::Lba lba = 0;
    uint64_t sectors = 0;
    common::Time submit_time = 0;
    std::vector<std::byte> data;  // Write payload.
    std::vector<Run> runs;
    std::vector<uint64_t> run_ids;  // Member completion id per run (filled by FlushQueue).
  };

  std::vector<Run> SplitStriped(simdisk::Lba lba, uint64_t sectors) const;
  // Syncs member m's clock to the array's time and labels its tracer with the member index.
  void EnterMember(uint32_t m);
  // Folds member m's finish time into the fan-out barrier being accumulated in `barrier`.
  void LeaveMember(uint32_t m, common::Time* barrier);
  // The round-robin pick for a mirrored read; fails when no member is healthy.
  common::StatusOr<uint32_t> PickReadMember();
  common::Status CheckStriped(const std::vector<Run>& runs) const;

  std::vector<core::Vld*> members_;
  VldArrayConfig config_;
  uint32_t block_sectors_ = 0;
  uint64_t chunk_sectors_ = 0;       // Striped: sectors per stripe unit.
  uint64_t chunks_per_member_ = 0;   // Striped: whole chunks usable on every member.
  uint64_t mirrored_sectors_ = 0;    // Mirrored: usable sectors (smallest member).
  std::vector<bool> failed_;
  uint32_t read_rr_ = 0;  // Mirrored read round-robin cursor (deterministic).
  common::Time now_ = 0;  // Array time: the max finish time of any fan-out so far.
  std::vector<Pending> queue_;
  uint64_t next_id_ = 1;
  uint32_t queue_depth_ = 0;
  obs::LatencyHistogram latency_hist_;
  std::vector<obs::LatencyHistogram> member_hist_;
};

}  // namespace vlog::array

#endif  // SRC_ARRAY_VLD_ARRAY_H_
