#include "src/array/vld_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::array {
namespace {

constexpr size_t kBlockBytes = 4096;

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 131 + i * 7));
  }
  return v;
}

// One member's full stack: its own clock, disk, and VLD. Heap-held so the disk's pointer to
// the clock stays valid however the collection grows.
struct Stack {
  common::Clock clock;
  std::unique_ptr<simdisk::SimDisk> disk;
  std::unique_ptr<core::Vld> vld;
};

std::vector<std::unique_ptr<Stack>> MakeStacks(uint32_t n, core::VldConfig config = {}) {
  std::vector<std::unique_ptr<Stack>> stacks;
  for (uint32_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Stack>();
    s->disk = std::make_unique<simdisk::SimDisk>(
        simdisk::Truncated(simdisk::SeagateSt19101(), 3), &s->clock);
    s->vld = std::make_unique<core::Vld>(s->disk.get(), config);
    stacks.push_back(std::move(s));
  }
  return stacks;
}

std::vector<core::Vld*> Members(const std::vector<std::unique_ptr<Stack>>& stacks) {
  std::vector<core::Vld*> members;
  for (const auto& s : stacks) {
    members.push_back(s->vld.get());
  }
  return members;
}

TEST(VldArrayTest, StripedCapacityIsWholeChunksTimesMembers) {
  auto stacks = MakeStacks(4);
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 8});
  ASSERT_TRUE(array.Format().ok());
  EXPECT_EQ(array.SectorCount() % array.chunk_sectors(), 0u);
  EXPECT_EQ((array.SectorCount() / array.chunk_sectors()) % 4, 0u);
  // Rounding down to whole chunks loses less than one chunk per member.
  EXPECT_GT(array.SectorCount(),
            4 * (stacks[0]->vld->SectorCount() - array.chunk_sectors()));
  EXPECT_LE(array.SectorCount(), 4 * stacks[0]->vld->SectorCount());
}

TEST(VldArrayTest, StripedTranslationDealsChunksRoundRobin) {
  auto stacks = MakeStacks(2);
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 1});
  ASSERT_TRUE(array.Format().ok());
  const uint64_t chunk = array.chunk_sectors();
  // Write four distinct chunks at array chunks 0..3; chunk c must land on member c % 2 at
  // member chunk c / 2.
  for (uint32_t c = 0; c < 4; ++c) {
    ASSERT_TRUE(array.Write(c * chunk, Pattern(chunk * 512, c + 1)).ok());
  }
  for (uint32_t c = 0; c < 4; ++c) {
    std::vector<std::byte> member_data(chunk * 512);
    ASSERT_TRUE(stacks[c % 2]->vld->Read((c / 2) * chunk, member_data).ok());
    EXPECT_EQ(member_data, Pattern(chunk * 512, c + 1)) << "chunk " << c;
  }
  // And a single read spanning all four chunks reassembles them in order.
  std::vector<std::byte> all(4 * chunk * 512);
  ASSERT_TRUE(array.Read(0, all).ok());
  for (uint32_t c = 0; c < 4; ++c) {
    const auto want = Pattern(chunk * 512, c + 1);
    EXPECT_EQ(0, std::memcmp(all.data() + c * chunk * 512, want.data(), chunk * 512));
  }
}

TEST(VldArrayTest, StripedFanOutCostsMaxNotSumOfMembers) {
  auto stacks = MakeStacks(2);
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 8});
  ASSERT_TRUE(array.Format().ok());
  const common::Time start = array.now();
  // One extent covering a full stripe row: both members do real work.
  ASSERT_TRUE(array.Write(0, Pattern(2 * array.chunk_sectors() * 512, 9)).ok());
  const common::Time m0 = stacks[0]->clock.Now();
  const common::Time m1 = stacks[1]->clock.Now();
  EXPECT_GT(m0, start);
  EXPECT_GT(m1, start);
  // The cross-disk barrier: array time is the slowest member, not the serialized sum.
  EXPECT_EQ(array.now(), std::max(m0, m1));
  EXPECT_LT(array.now(), (m0 - start) + (m1 - start) + start);
}

// The N = 1 identity: a single-member striped array must be bit-, clock-, and
// breakdown-identical to its bare member VLD — the array layer dissolves completely. Both
// stacks run the same mixed sync workload with a tracer attached; the traces (which embed
// every event time and the full per-span breakdowns) must match byte for byte.
TEST(VldArrayTest, SingleMemberIdentityOnSyncPath) {
  auto run = [](bool through_array) {
    auto stacks = MakeStacks(1);
    obs::TraceRecorder tracer(&stacks[0]->clock);
    stacks[0]->disk->set_tracer(&tracer);
    VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 8});
    simdisk::BlockDevice& dev =
        through_array ? static_cast<simdisk::BlockDevice&>(array) : *stacks[0]->vld;
    EXPECT_TRUE((through_array ? array.Format() : stacks[0]->vld->Format()).ok());
    common::Rng rng(7);
    const uint64_t sectors = array.SectorCount();
    for (int i = 0; i < 40; ++i) {
      const uint64_t lba = rng.Below(sectors - 64);
      if (rng.Chance(0.3)) {
        std::vector<std::byte> out((1 + rng.Below(8)) * 512);
        EXPECT_TRUE(dev.Read(lba, out).ok());
      } else {
        EXPECT_TRUE(dev.Write(lba, Pattern((1 + rng.Below(8)) * 512, i)).ok());
      }
    }
    return std::make_pair(stacks[0]->clock.Now(), tracer.TraceJson());
  };
  const auto [bare_time, bare_trace] = run(false);
  const auto [array_time, array_trace] = run(true);
  EXPECT_EQ(array_time, bare_time);
  EXPECT_EQ(array_trace, bare_trace);
}

TEST(VldArrayTest, SingleMemberIdentityOnQueuedPath) {
  auto run = [](bool through_array) {
    auto stacks = MakeStacks(1, {.queue_depth = 8});
    EXPECT_TRUE(stacks[0]->vld->Format().ok());
    VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 8});
    common::Rng rng(11);
    std::vector<std::pair<common::Time, std::vector<std::byte>>> acks;
    for (int round = 0; round < 6; ++round) {
      for (int k = 0; k < 6; ++k) {
        const uint64_t lba = rng.Below(array.SectorCount() - 64);
        if (rng.Chance(0.4)) {
          EXPECT_TRUE((through_array ? array.SubmitRead(lba, 8).ok()
                                     : stacks[0]->vld->SubmitRead(lba, 8).ok()));
        } else {
          const auto data = Pattern(kBlockBytes, static_cast<uint32_t>(round * 8 + k));
          EXPECT_TRUE((through_array ? array.SubmitWrite(lba, data).ok()
                                     : stacks[0]->vld->SubmitWrite(lba, data).ok()));
        }
      }
      if (through_array) {
        auto done = array.FlushQueue();
        EXPECT_TRUE(done.ok());
        for (auto& c : *done) {
          acks.emplace_back(c.complete_time, std::move(c.data));
        }
      } else {
        auto done = stacks[0]->vld->FlushQueue();
        EXPECT_TRUE(done.ok());
        for (auto& c : *done) {
          acks.emplace_back(c.complete_time, std::move(c.data));
        }
      }
    }
    return std::make_pair(stacks[0]->clock.Now(), acks);
  };
  const auto [bare_time, bare_acks] = run(false);
  const auto [array_time, array_acks] = run(true);
  EXPECT_EQ(array_time, bare_time);
  ASSERT_EQ(array_acks.size(), bare_acks.size());
  for (size_t i = 0; i < bare_acks.size(); ++i) {
    EXPECT_EQ(array_acks[i].first, bare_acks[i].first) << "completion " << i;
    EXPECT_EQ(array_acks[i].second, bare_acks[i].second) << "completion " << i;
  }
}

// Cross-disk group commit: a queue's worth of multi-stripe writes costs one packed commit per
// member, not one commit per block.
TEST(VldArrayTest, QueuedBatchCommitsOncePerMember) {
  auto stacks = MakeStacks(2, {.queue_depth = 16});
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 1});
  ASSERT_TRUE(array.Format().ok());
  const uint64_t chunk = array.chunk_sectors();
  // Eight writes, each spanning two chunks (both members).
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(array.SubmitWrite(i * 2 * chunk, Pattern(2 * chunk * 512, i)).ok());
  }
  auto done = array.FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 8u);
  for (uint32_t m = 0; m < 2; ++m) {
    const core::VldStats& st = stacks[m]->vld->stats();
    EXPECT_EQ(st.group_commits, 1u) << "member " << m;
    EXPECT_EQ(st.host_writes, 8u) << "member " << m;  // Eight runs, none through its queue.
    EXPECT_EQ(st.queued_writes, 0u) << "member " << m;
  }
  // Every write acknowledges at the barrier: no earlier than either member's finish time for
  // its runs, and the data reads back.
  for (uint32_t i = 0; i < 8; ++i) {
    std::vector<std::byte> out(2 * chunk * 512);
    ASSERT_TRUE(array.Read(i * 2 * chunk, out).ok());
    EXPECT_EQ(out, Pattern(2 * chunk * 512, i)) << "write " << i;
  }
}

// A read whose member run fails completes with that member's status and no data; the other
// requests of the batch, on either member, complete as usual.
TEST(VldArrayTest, QueuedReadCarriesAFailedMemberRunsStatus) {
  auto stacks = MakeStacks(2, {.queue_depth = 16});
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 1});
  ASSERT_TRUE(array.Format().ok());
  const uint64_t chunk = array.chunk_sectors();
  ASSERT_TRUE(array.Write(0, Pattern(4 * chunk * 512, 1)).ok());
  // Array chunk 1 is member 1's chunk 0.
  const core::Vld& member = *stacks[1]->vld;
  stacks[1]->disk->MarkLatentSectorError(member.space().BlockToLba(member.logical_map()[0]));
  ASSERT_TRUE(array.SubmitRead(0, 2 * chunk).ok());  // Both members: chunks 0 and 1.
  ASSERT_TRUE(array.SubmitRead(2 * chunk, chunk).ok());
  ASSERT_TRUE(array.SubmitWrite(3 * chunk, Pattern(chunk * 512, 2)).ok());
  auto done = array.FlushQueue();
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->size(), 3u);
  EXPECT_EQ((*done)[0].status.code(), common::StatusCode::kIoError);
  EXPECT_TRUE((*done)[0].data.empty());
  EXPECT_TRUE((*done)[1].status.ok());
  const auto all = Pattern(4 * chunk * 512, 1);
  EXPECT_EQ((*done)[1].data, std::vector<std::byte>(all.begin() + 2 * chunk * 512,
                                                    all.begin() + 3 * chunk * 512));
  EXPECT_TRUE((*done)[2].status.ok());
  std::vector<std::byte> out(chunk * 512);
  ASSERT_TRUE(array.Read(3 * chunk, out).ok());
  EXPECT_EQ(out, Pattern(chunk * 512, 2));
}

// Members never queue array runs, so their queue depth does not bound an array batch: four
// 16 KB writes deal eight 4 KB runs to each of two depth-4 members, and the batch completes
// with one group commit per member and reads back.
TEST(VldArrayTest, BatchWithMoreRunsThanAMemberQueueCompletes) {
  auto stacks = MakeStacks(2, core::VldConfig{.queue_depth = 4});
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 1});
  ASSERT_TRUE(array.Format().ok());
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(array.SubmitWrite(i * 32, Pattern(4 * kBlockBytes, 100 + i)).ok());
  }
  auto done = array.FlushQueue();
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->size(), 4u);
  for (const auto& s : stacks) {
    EXPECT_EQ(s->vld->QueuedRequests(), 0u);
    EXPECT_EQ(s->vld->stats().group_commits, 1u);
  }
  for (uint32_t i = 0; i < 4; ++i) {
    std::vector<std::byte> out(4 * kBlockBytes);
    ASSERT_TRUE(array.Read(i * 32, out).ok());
    EXPECT_EQ(out, Pattern(4 * kBlockBytes, 100 + i)) << "write " << i;
  }
}

// A synchronous extent is a batch of one: twelve 4 KB chunks put six runs on each depth-4
// member, which commit as one transaction per member and read back.
TEST(VldArrayTest, SyncExtentWithMoreRunsThanAMemberQueueCommitsOncePerMember) {
  auto stacks = MakeStacks(2, core::VldConfig{.queue_depth = 4});
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 1});
  ASSERT_TRUE(array.Format().ok());
  const auto data = Pattern(12 * kBlockBytes, 5);
  ASSERT_TRUE(array.Write(0, data).ok());
  for (const auto& s : stacks) {
    EXPECT_EQ(s->vld->stats().host_writes, 6u);
    EXPECT_EQ(s->vld->stats().group_commits, 1u);
  }
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(array.Read(0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(VldArrayTest, MirroredWritesReachEveryReplica) {
  auto stacks = MakeStacks(2);
  VldArray array(Members(stacks), {.mode = ArrayMode::kMirrored});
  ASSERT_TRUE(array.Format().ok());
  const auto data = Pattern(kBlockBytes, 3);
  ASSERT_TRUE(array.Write(16, data).ok());
  // The acknowledgement is the cross-disk barrier: both replicas had finished by array time.
  EXPECT_EQ(array.now(), std::max(stacks[0]->clock.Now(), stacks[1]->clock.Now()));
  for (uint32_t m = 0; m < 2; ++m) {
    std::vector<std::byte> out(kBlockBytes);
    ASSERT_TRUE(stacks[m]->vld->Read(16, out).ok());
    EXPECT_EQ(out, data) << "replica " << m;
  }
}

TEST(VldArrayTest, MirroredReadsRoundRobinAcrossHealthyReplicas) {
  auto stacks = MakeStacks(2);
  VldArray array(Members(stacks), {.mode = ArrayMode::kMirrored});
  ASSERT_TRUE(array.Format().ok());
  ASSERT_TRUE(array.Write(0, Pattern(kBlockBytes, 1)).ok());
  std::vector<std::byte> out(kBlockBytes);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(array.Read(0, out).ok());
  }
  // Reads split evenly: 5 each on top of whatever Format/Write issued.
  EXPECT_EQ(stacks[0]->vld->stats().host_reads, stacks[1]->vld->stats().host_reads);
}

TEST(VldArrayTest, MirroredDegradedReadsServeFromSurvivor) {
  auto stacks = MakeStacks(2);
  VldArray array(Members(stacks), {.mode = ArrayMode::kMirrored});
  ASSERT_TRUE(array.Format().ok());
  const auto v1 = Pattern(kBlockBytes, 4);
  ASSERT_TRUE(array.Write(8, v1).ok());
  ASSERT_TRUE(array.MarkFailed(0).ok());
  EXPECT_EQ(array.healthy_members(), 1u);
  // Degraded reads keep returning the data; degraded writes keep working on the survivor.
  std::vector<std::byte> out(kBlockBytes);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(array.Read(8, out).ok());
    EXPECT_EQ(out, v1);
  }
  const auto v2 = Pattern(kBlockBytes, 5);
  ASSERT_TRUE(array.Write(8, v2).ok());
  ASSERT_TRUE(array.Read(8, out).ok());
  EXPECT_EQ(out, v2);
  const uint64_t survivor_reads = stacks[1]->vld->stats().host_reads;
  EXPECT_GE(survivor_reads, 5u) << "all degraded reads must come from the survivor";
  // A fully failed mirror refuses I/O.
  auto st = array.MarkFailed(1);
  EXPECT_FALSE(st.ok());
}

TEST(VldArrayTest, MirroredRecoverResyncsLaggingReplica) {
  auto stacks = MakeStacks(2);
  VldArray array(Members(stacks), {.mode = ArrayMode::kMirrored});
  ASSERT_TRUE(array.Format().ok());
  const auto v1 = Pattern(kBlockBytes, 6);
  ASSERT_TRUE(array.Write(0, v1).ok());
  // Member 1 "crashes": it misses the next write, which lands only on member 0.
  ASSERT_TRUE(array.MarkFailed(1).ok());
  const auto v2 = Pattern(kBlockBytes, 7);
  ASSERT_TRUE(array.Write(0, v2).ok());
  ASSERT_TRUE(array.Write(8, v2).ok());  // A block replica 1 never saw at all.
  // The member comes back stale; Recover stitches: member 0 (lowest healthy) is authoritative
  // and the replica is rewritten block by block.
  ASSERT_TRUE(array.MarkHealthy(1).ok());
  auto info = array.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->authoritative, 0u);
  EXPECT_EQ(info->resynced_blocks, 2u);
  EXPECT_EQ(info->trimmed_blocks, 0u);
  // Every subsequent read — from either replica — sees the new data.
  ASSERT_TRUE(array.MarkFailed(0).ok());  // Force reads onto the resynced replica.
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(array.Read(0, out).ok());
  EXPECT_EQ(out, v2);
  ASSERT_TRUE(array.Read(8, out).ok());
  EXPECT_EQ(out, v2);
}

TEST(VldArrayTest, MirroredRecoverTrimsBlocksTheAuthoritativeCopyLacks) {
  auto stacks = MakeStacks(2);
  VldArray array(Members(stacks), {.mode = ArrayMode::kMirrored});
  ASSERT_TRUE(array.Format().ok());
  // Replica 1 holds a block the authoritative member never committed (an in-flight write that
  // reached only one replica before a crash).
  ASSERT_TRUE(stacks[1]->vld->Write(24, Pattern(kBlockBytes, 8)).ok());
  auto info = array.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->trimmed_blocks, 1u);
  EXPECT_EQ(stacks[1]->vld->logical_map()[3], core::kUnmappedBlock);
}

TEST(VldArrayTest, StripedRecoveryStitchesEveryMemberMap) {
  auto stacks = MakeStacks(2);
  core::VldConfig member_config;
  {
    VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 2});
    ASSERT_TRUE(array.Format().ok());
    for (uint32_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(array.Write(i * array.chunk_sectors(),
                              Pattern(array.chunk_sectors() * 512, i + 1)).ok());
    }
  }
  // Restart: fresh VLD instances over the same member media, stitched by a fresh array.
  for (auto& s : stacks) {
    s->vld = std::make_unique<core::Vld>(s->disk.get(), member_config);
  }
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 2});
  auto info = array.Recover();
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->members.size(), 2u);
  for (const core::VldRecoveryInfo& r : info->members) {
    EXPECT_GT(r.mapped_blocks, 0u);
  }
  for (uint32_t i = 0; i < 12; ++i) {
    std::vector<std::byte> out(array.chunk_sectors() * 512);
    ASSERT_TRUE(array.Read(i * array.chunk_sectors(), out).ok());
    EXPECT_EQ(out, Pattern(array.chunk_sectors() * 512, i + 1)) << "chunk " << i;
  }
}

TEST(VldArrayTest, QueuedSpansCarryMemberDiskIndex) {
  auto stacks = MakeStacks(2, {.queue_depth = 8});
  // One shared recorder over both member disks; its clock is member 0's (display only).
  obs::TraceRecorder tracer(&stacks[0]->clock);
  stacks[0]->disk->set_tracer(&tracer);
  stacks[1]->disk->set_tracer(&tracer);
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 1});
  ASSERT_TRUE(array.Format().ok());
  const uint64_t chunk = array.chunk_sectors();
  ASSERT_TRUE(array.SubmitWrite(0, Pattern(chunk * 512, 1)).ok());          // Member 0.
  ASSERT_TRUE(array.SubmitWrite(chunk, Pattern(chunk * 512, 2)).ok());      // Member 1.
  ASSERT_TRUE(array.FlushQueue().ok());
  bool saw[2] = {false, false};
  for (const auto& span : tracer.spans()) {
    if (span.layer == obs::Layer::kVld && span.kind == obs::SpanKind::kWrite) {
      ASSERT_LT(span.disk, 2u);
      saw[span.disk] = true;
    }
  }
  EXPECT_TRUE(saw[0] && saw[1]) << "per-member spans must be labeled with their disk index";
}

// The array checks ranges the way a bare member Vld does: a transfer must be a positive whole
// number of sectors, and an extent whose end wraps past 2^64 is out of range. Queued requests
// are checked at submission.
TEST(VldArrayTest, StripedRejectsWhatAMemberRejects) {
  auto stacks = MakeStacks(2, {.queue_depth = 8});
  VldArray array(Members(stacks), {.mode = ArrayMode::kStriped, .stripe_blocks = 1});
  ASSERT_TRUE(array.Format().ok());
  const auto invalid = common::StatusCode::kInvalidArgument;
  const auto ragged = Pattern(kBlockBytes + 100, 1);  // Not a whole number of sectors.
  std::vector<std::byte> ragged_out(kBlockBytes + 100);
  EXPECT_EQ(array.Write(0, ragged).code(), invalid);
  EXPECT_EQ(array.Write(0, std::span<const std::byte>()).code(), invalid);
  EXPECT_EQ(array.Read(0, ragged_out).code(), invalid);
  EXPECT_EQ(array.SubmitRead(0, 0).status().code(), invalid);
  EXPECT_EQ(array.SubmitWrite(0, ragged).status().code(), invalid);
  const simdisk::Lba wrap = std::numeric_limits<simdisk::Lba>::max() - 3;
  const auto block = Pattern(kBlockBytes, 2);
  std::vector<std::byte> out(kBlockBytes);
  EXPECT_EQ(array.Write(wrap, block).code(), invalid);
  EXPECT_EQ(array.Read(wrap, out).code(), invalid);
  EXPECT_EQ(array.SubmitWrite(wrap, block).status().code(), invalid);
  EXPECT_EQ(array.SubmitRead(wrap, 8).status().code(), invalid);
  EXPECT_EQ(array.QueuedRequests(), 0u);
  for (uint32_t m = 0; m < 2; ++m) {
    EXPECT_EQ(stacks[m]->vld->stats().host_writes, 0u) << "member " << m;
  }
}

// A request the members would reject never reaches the array queue, so it cannot fail a batch
// after the batch's earlier write was handed to both replicas. That write completes with its
// batch and no member keeps it queued.
TEST(VldArrayTest, MirroredRejectsAnEmptyQueuedReadAtSubmission) {
  auto stacks = MakeStacks(2, {.queue_depth = 8});
  VldArray array(Members(stacks), {.mode = ArrayMode::kMirrored});
  ASSERT_TRUE(array.Format().ok());
  const auto data = Pattern(kBlockBytes, 3);
  ASSERT_TRUE(array.SubmitWrite(0, data).ok());
  EXPECT_EQ(array.SubmitRead(0, 0).status().code(), common::StatusCode::kInvalidArgument);
  auto done = array.FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 1u);
  EXPECT_TRUE((*done)[0].is_write);
  for (uint32_t m = 0; m < 2; ++m) {
    EXPECT_EQ(stacks[m]->vld->QueuedRequests(), 0u) << "member " << m;
    std::vector<std::byte> out(kBlockBytes);
    ASSERT_TRUE(stacks[m]->vld->Read(0, out).ok());
    EXPECT_EQ(out, data) << "replica " << m;
  }
}

}  // namespace
}  // namespace vlog::array
