// The queued read path: SubmitRead/FlushQueue through the VLD's request queue, which reads and
// writes share and whose read scheduler (VldConfig::read_policy) is the only one in the stack.
//
// Covers the acceptance gates for the queued-read engine: same-batch RAW forwarding (full and
// partial overlap), submission-order visibility (a read never sees a later-submitted write), a
// same-batch overwrite keeping the newer write's sectors, read-only batches committing nothing
// (each traced read span summing to its latency), the scheduler (FCFS dispatches
// in submission order; SPTF is deterministic, finishes sooner, serves cost-free reads first,
// breaks equal-cost ties toward the older read and costs a write at the allocator's estimate),
// writes acknowledged at their own group commit ahead of the reads served after it, such reads
// seeing pre-batch bytes, a read error failing only that read, the shared queue-depth budget,
// and a differential check of seeded randomized SubmitRead/SubmitWrite/FlushQueue/Flush
// interleavings, same-batch overwrites included, against a synchronous-replay oracle device
// (bit-identical read payloads and final contents, free-space accounting that matches the
// map), with and without a volatile write-back drive cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/crashsim/sweep_driver.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::core {
namespace {

constexpr size_t kBlockBytes = 4096;
constexpr uint32_t kBlockSectors = 8;
constexpr uint32_t kSectorBytes = 512;

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 131 + i * 7));
  }
  return v;
}

// A self-contained device rig, so tests can run identical histories on independent instances.
struct Rig {
  explicit Rig(VldConfig config = VldConfig{.queue_depth = 16}, uint64_t cache_sectors = 0,
               bool trace = false,
               simdisk::DiskParams params = simdisk::Truncated(simdisk::SeagateSt19101(), 3)) {
    params.cache.capacity_sectors = cache_sectors;
    disk = std::make_unique<simdisk::SimDisk>(params, &clock);
    if (trace) {
      tracer = std::make_unique<obs::TraceRecorder>(&clock);
      disk->set_tracer(tracer.get());
    }
    vld = std::make_unique<Vld>(disk.get(), config);
    EXPECT_TRUE(vld->Format().ok());
  }

  common::Clock clock;
  std::unique_ptr<simdisk::SimDisk> disk;
  std::unique_ptr<obs::TraceRecorder> tracer;
  std::unique_ptr<Vld> vld;
};

// Same-batch RAW, full overlap: a read submitted after a write to the same block must return
// the pending (not yet committed) payload, served through the forwarding path.
TEST(QueuedReadTest, SameBatchRawServesPendingWriteData) {
  Rig rig;
  const simdisk::Lba lba = 5 * kBlockSectors;
  const auto v1 = Pattern(kBlockBytes, 1);
  const auto v2 = Pattern(kBlockBytes, 2);
  ASSERT_TRUE(rig.vld->Write(lba, v1).ok());
  const uint64_t forwarded_before = rig.vld->stats().forwarded_read_sectors;

  ASSERT_TRUE(rig.vld->SubmitWrite(lba, v2).ok());
  ASSERT_TRUE(rig.vld->SubmitRead(lba, kBlockSectors).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 2u);
  EXPECT_TRUE((*done)[0].is_write);
  ASSERT_FALSE((*done)[1].is_write);
  EXPECT_EQ((*done)[1].data, v2) << "same-batch RAW must see the pending write";
  EXPECT_EQ(rig.vld->stats().forwarded_read_sectors - forwarded_before, kBlockSectors);

  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(rig.vld->Read(lba, out).ok());
  EXPECT_EQ(out, v2);
}

// Partial overlap: only the sectors the pending write covers are forwarded; the rest of the
// extent comes off the media through the (still pre-batch) map.
TEST(QueuedReadTest, SameBatchRawPartialOverlapForwardsOnlyCoveredSectors) {
  Rig rig;
  const auto v1a = Pattern(kBlockBytes, 10);
  const auto v1b = Pattern(kBlockBytes, 11);
  const auto v2 = Pattern(kBlockBytes, 12);
  ASSERT_TRUE(rig.vld->Write(10 * kBlockSectors, v1a).ok());
  ASSERT_TRUE(rig.vld->Write(11 * kBlockSectors, v1b).ok());
  const uint64_t forwarded_before = rig.vld->stats().forwarded_read_sectors;

  // Write block 10; read sectors straddling the blocks: last 4 of block 10 (forwarded from the
  // pending payload) + first 4 of block 11 (served from the media).
  ASSERT_TRUE(rig.vld->SubmitWrite(10 * kBlockSectors, v2).ok());
  ASSERT_TRUE(rig.vld->SubmitRead(10 * kBlockSectors + 4, 8).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 2u);
  ASSERT_FALSE((*done)[1].is_write);
  const std::vector<std::byte>& got = (*done)[1].data;
  ASSERT_EQ(got.size(), 8u * kSectorBytes);
  EXPECT_EQ(std::memcmp(got.data(), v2.data() + 4 * kSectorBytes, 4 * kSectorBytes), 0)
      << "overlapping sectors must come from the pending write";
  EXPECT_EQ(std::memcmp(got.data() + 4 * kSectorBytes, v1b.data(), 4 * kSectorBytes), 0)
      << "non-overlapping sectors must come from the committed block";
  EXPECT_EQ(rig.vld->stats().forwarded_read_sectors - forwarded_before, 4u);
}

// Submission order defines visibility: a read never sees a later-submitted write, whatever
// order SPTF actually services the batch in (the map commits only after the batch).
TEST(QueuedReadTest, ReadSubmittedBeforeWriteSeesPreBatchData) {
  Rig rig;
  const simdisk::Lba lba = 3 * kBlockSectors;
  const auto v1 = Pattern(kBlockBytes, 1);
  const auto v2 = Pattern(kBlockBytes, 2);
  ASSERT_TRUE(rig.vld->Write(lba, v1).ok());
  const uint64_t forwarded_before = rig.vld->stats().forwarded_read_sectors;

  ASSERT_TRUE(rig.vld->SubmitRead(lba, kBlockSectors).ok());
  ASSERT_TRUE(rig.vld->SubmitWrite(lba, v2).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 2u);
  ASSERT_FALSE((*done)[0].is_write);
  EXPECT_EQ((*done)[0].data, v1) << "a read must never observe a later-submitted write";
  EXPECT_EQ(rig.vld->stats().forwarded_read_sectors - forwarded_before, 0u);

  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(rig.vld->Read(lba, out).ok());
  EXPECT_EQ(out, v2) << "the write itself must still commit with the batch";
}

// Same-batch WAW: a newer write overlapping an older one of the same batch wins on the sectors
// they share, for a read later in the batch, for a read after the commit and after recovery,
// and the block the older write staged is freed rather than left live.
TEST(QueuedReadTest, SameBatchOverwriteKeepsTheNewerWritesSectors) {
  Rig rig;
  const auto v1a = Pattern(kBlockBytes, 20);
  const auto v1b = Pattern(kBlockBytes, 21);
  const auto older = Pattern(kBlockBytes, 22);
  const auto newer = Pattern(kBlockBytes, 23);
  ASSERT_TRUE(rig.vld->Write(10 * kBlockSectors, v1a).ok());
  ASSERT_TRUE(rig.vld->Write(11 * kBlockSectors, v1b).ok());

  // Older: all of block 10. Newer: the last 4 sectors of block 10 and the first 4 of block 11.
  std::vector<std::byte> want(older.begin(), older.begin() + 4 * kSectorBytes);
  want.insert(want.end(), newer.begin(), newer.end());
  want.insert(want.end(), v1b.begin() + 4 * kSectorBytes, v1b.end());
  ASSERT_TRUE(rig.vld->SubmitWrite(10 * kBlockSectors, older).ok());
  ASSERT_TRUE(rig.vld->SubmitWrite(10 * kBlockSectors + 4, newer).ok());
  ASSERT_TRUE(rig.vld->SubmitRead(10 * kBlockSectors, 2 * kBlockSectors).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 3u);
  ASSERT_FALSE((*done)[2].is_write);
  EXPECT_EQ((*done)[2].data, want) << "a read after both writes must see the newer sectors";

  std::vector<std::byte> out(2 * kBlockBytes);
  ASSERT_TRUE(rig.vld->Read(10 * kBlockSectors, out).ok());
  EXPECT_EQ(out, want) << "the commit must keep the newer write's sectors";
  crashsim::CheckMapInvariants(*rig.vld, [](const std::string& what) { ADD_FAILURE() << what; });

  common::Clock fork_clock;
  simdisk::SimDisk fork = rig.disk->Fork(&fork_clock);
  Vld recovered(&fork, VldConfig{.queue_depth = 16});
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_TRUE(recovered.Read(10 * kBlockSectors, out).ok());
  EXPECT_EQ(out, want) << "recovery must keep the newer write's sectors";
}

// A read whose media access fails completes with that status, and the batch carries on: the
// batch returns OK, and its write is acknowledged, durable and recoverable. The read changes
// no state, so this holds wherever the scheduler places it.
TEST(QueuedReadTest, ReadErrorFailsOnlyThatRead) {
  Rig rig;
  const simdisk::Lba bad = 3 * kBlockSectors;
  const simdisk::Lba good = 9 * kBlockSectors;
  ASSERT_TRUE(rig.vld->Write(bad, Pattern(kBlockBytes, 1)).ok());
  rig.disk->MarkLatentSectorError(
      rig.vld->space().BlockToLba(rig.vld->logical_map()[bad / kBlockSectors]) + 2);
  const auto v = Pattern(kBlockBytes, 2);
  ASSERT_TRUE(rig.vld->SubmitRead(bad, kBlockSectors).ok());
  ASSERT_TRUE(rig.vld->SubmitWrite(good, v).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->size(), 2u);
  ASSERT_FALSE((*done)[0].is_write);
  EXPECT_EQ((*done)[0].status.code(), common::StatusCode::kIoError);
  EXPECT_TRUE((*done)[0].data.empty());
  ASSERT_TRUE((*done)[1].is_write);
  EXPECT_TRUE((*done)[1].status.ok());

  std::vector<std::byte> out(kBlockBytes);
  EXPECT_EQ(rig.vld->Read(bad, out).code(), common::StatusCode::kIoError);
  ASSERT_TRUE(rig.vld->Read(good, out).ok());
  EXPECT_EQ(out, v);

  ASSERT_TRUE(rig.vld->Park().ok());
  common::Clock fork_clock;
  simdisk::SimDisk fork = rig.disk->Fork(&fork_clock);
  Vld recovered(&fork, VldConfig{.queue_depth = 16});
  ASSERT_TRUE(recovered.Recover().ok());
  ASSERT_TRUE(recovered.Read(good, out).ok());
  EXPECT_EQ(out, v) << "the acknowledged write must survive recovery";
  crashsim::CheckMapInvariants(recovered, [](const std::string& what) { ADD_FAILURE() << what; });
}

// The 36-cylinder HP97560, where a seek across the disk costs more than the rotation to a
// free block on the arm's own track.
simdisk::DiskParams Hp36() { return simdisk::Truncated(simdisk::Hp97560(), 36); }

// Writes Pattern(b + 1) to each block b in [first, end) through the synchronous path.
void WriteBlocks(Rig& rig, uint32_t first, uint32_t end) {
  for (uint32_t b = first; b < end; ++b) {
    ASSERT_TRUE(rig.vld->Write(static_cast<simdisk::Lba>(b) * kBlockSectors,
                               Pattern(kBlockBytes, b + 1))
                    .ok());
  }
}

// Parks the arm on the last cylinder, far from the blocks written so far, with a raw media
// read: no VLD state moves. A greedy allocator then places writes there at a fraction of a
// rotation, while every read of an earlier block pays a long seek.
void ParkArmOnLastCylinder(Rig& rig) {
  const simdisk::DiskGeometry& g = rig.disk->geometry();
  std::vector<std::byte> sector(kSectorBytes);
  ASSERT_TRUE(rig.disk
                  ->InternalRead(static_cast<simdisk::Lba>(g.cylinders - 1) *
                                     g.tracks_per_cylinder * g.sectors_per_track,
                                 sector)
                  .ok());
}

const Vld::QueuedCompletion& CompletionOf(const std::vector<Vld::QueuedCompletion>& done,
                                          uint64_t id) {
  const auto it = std::find_if(done.begin(), done.end(),
                               [id](const Vld::QueuedCompletion& c) { return c.id == id; });
  EXPECT_NE(it, done.end());
  return *it;
}

// A write's SPTF cost is the allocator's estimate for its next block. With the head on a read's
// track, its sector just arriving, and the fill track cylinders away, the read goes first: it
// costs nothing, and the write would seek.
TEST(QueuedReadTest, SptfServesANearReadBeforeAWriteFarFromTheFillTrack) {
  Rig rig(VldConfig{.queue_depth = 16}, /*cache_sectors=*/0, /*trace=*/false, Hp36());
  // Move the fill track a few cylinders on from block 0, then put the arm back on its track.
  WriteBlocks(rig, 0, 200);
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(rig.vld->Read(0, out).ok());
  const simdisk::Lba phys = rig.vld->space().BlockToLba(rig.vld->logical_map()[0]);
  rig.clock.Advance(rig.disk->RotationalWait(rig.disk->geometry().ToPhys(phys).sector,
                                             rig.clock.Now()));
  ASSERT_EQ(rig.disk->EstimatePosition(phys, rig.clock.Now()), 0);
  ASSERT_GT(rig.vld->allocator().EstimateLocate(), rig.disk->params().head_switch);

  auto write = rig.vld->SubmitWrite(300 * kBlockSectors, Pattern(kBlockBytes, 300));
  auto read = rig.vld->SubmitRead(0, kBlockSectors);
  ASSERT_TRUE(write.ok() && read.ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  EXPECT_LT(CompletionOf(*done, *read).dispatch_time, CompletionOf(*done, *write).dispatch_time)
      << "the free read must go before the write's seek to the fill track";
  EXPECT_EQ(CompletionOf(*done, *read).data, Pattern(kBlockBytes, 1));
}

// When a mixed batch's writes go first, they are acknowledged at their own group commit: no
// write waits for a read served after it.
TEST(QueuedReadTest, WritesServedFirstCompleteBeforeTheReadsAfterThem) {
  Rig rig(VldConfig{.compactor_enabled = false, .queue_depth = 16}, /*cache_sectors=*/0,
          /*trace=*/false, Hp36());
  WriteBlocks(rig, 0, 8);
  ParkArmOnLastCylinder(rig);
  std::vector<uint64_t> reads, writes;
  for (uint32_t b = 0; b < 4; ++b) {
    auto read = rig.vld->SubmitRead(static_cast<simdisk::Lba>(b) * kBlockSectors, kBlockSectors);
    auto write = rig.vld->SubmitWrite(static_cast<simdisk::Lba>(100 + b) * kBlockSectors,
                                      Pattern(kBlockBytes, 100 + b));
    ASSERT_TRUE(read.ok() && write.ok());
    reads.push_back(*read);
    writes.push_back(*write);
  }
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  for (const uint64_t w : writes) {
    const Vld::QueuedCompletion& wc = CompletionOf(*done, w);
    for (const uint64_t r : reads) {
      const Vld::QueuedCompletion& rc = CompletionOf(*done, r);
      ASSERT_LT(wc.dispatch_time, rc.dispatch_time) << "the writes must go first here";
      EXPECT_LE(wc.complete_time, rc.dispatch_time)
          << "a write must not wait for a read served after its commit";
    }
  }
  for (uint32_t b = 0; b < 4; ++b) {
    EXPECT_EQ(CompletionOf(*done, reads[b]).data, Pattern(kBlockBytes, b + 1));
  }
}

// A read submitted before same-batch writes to its block sees the pre-batch bytes even when it
// is served after the writes (and so, under the early commit, after the map has moved on): it
// translates through the block the batch's first write to that block replaced.
void ExpectReadAfterWritesSeesPreBatchBytes(uint64_t cache_sectors) {
  SCOPED_TRACE("cache " + std::to_string(cache_sectors));
  Rig rig(VldConfig{.compactor_enabled = false, .queue_depth = 16}, cache_sectors,
          /*trace=*/false, Hp36());
  WriteBlocks(rig, 0, 8);
  ParkArmOnLastCylinder(rig);
  const simdisk::Lba lba = 3 * kBlockSectors;
  auto read = rig.vld->SubmitRead(lba, kBlockSectors);
  auto first = rig.vld->SubmitWrite(lba, Pattern(kBlockBytes, 50));
  auto second = rig.vld->SubmitWrite(lba, Pattern(kBlockBytes, 51));
  ASSERT_TRUE(read.ok() && first.ok() && second.ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  const Vld::QueuedCompletion& rc = CompletionOf(*done, *read);
  ASSERT_GT(rc.dispatch_time, CompletionOf(*done, *second).dispatch_time)
      << "the read must be served after the writes";
  EXPECT_EQ(rc.data, Pattern(kBlockBytes, 4)) << "the read must see the pre-batch bytes";
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(rig.vld->Read(lba, out).ok());
  EXPECT_EQ(out, Pattern(kBlockBytes, 51));
  crashsim::CheckMapInvariants(*rig.vld, [](const std::string& what) { ADD_FAILURE() << what; });
}

TEST(QueuedReadTest, ReadServedAfterTheWritesSeesPreBatchBytes) {
  ExpectReadAfterWritesSeesPreBatchBytes(/*cache_sectors=*/0);
  ExpectReadAfterWritesSeesPreBatchBytes(/*cache_sectors=*/1024);
}

TEST(QueuedReadTest, QueuedReadOfUnmappedBlockReturnsZeros) {
  Rig rig;
  const uint64_t unmapped_before = rig.vld->stats().unmapped_reads;
  ASSERT_TRUE(rig.vld->SubmitRead(100 * kBlockSectors, kBlockSectors).ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 1u);
  EXPECT_EQ((*done)[0].data, std::vector<std::byte>(kBlockBytes));
  EXPECT_GT(rig.vld->stats().unmapped_reads, unmapped_before);
}

// A read-only batch must leave no trace behind: no map change, no commit, no media write.
TEST(QueuedReadTest, ReadOnlyFlushQueueCommitsNothing) {
  Rig rig(VldConfig{.queue_depth = 16}, /*cache_sectors=*/0, /*trace=*/true);
  for (uint32_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(
        rig.vld->Write(static_cast<simdisk::Lba>(b) * kBlockSectors, Pattern(kBlockBytes, b))
            .ok());
  }
  const std::vector<uint32_t> map_before = rig.vld->logical_map();
  const VldStats before = rig.vld->stats();

  for (uint32_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(rig.vld->SubmitRead(static_cast<simdisk::Lba>(b) * kBlockSectors,
                                    kBlockSectors).ok());
  }
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 4u);
  EXPECT_EQ(rig.vld->QueuedRequests(), 0u);
  for (uint32_t b = 0; b < 4; ++b) {
    const Vld::QueuedCompletion& c = (*done)[b];
    EXPECT_EQ(c.data, Pattern(kBlockBytes, b));
    // Each read's traced span satisfies the breakdown identity (accounted + queueing ==
    // latency).
    const obs::TraceRecorder::Span* span = rig.tracer->span(c.span_id);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->kind, obs::SpanKind::kRead);
    EXPECT_EQ(span->Latency(), c.Latency());
    EXPECT_EQ(span->breakdown.Total(), span->Latency());
  }

  const VldStats delta = rig.vld->stats() - before;
  EXPECT_EQ(rig.vld->logical_map(), map_before) << "reads must not change the map";
  EXPECT_EQ(delta.blocks_written, 0u);
  EXPECT_EQ(delta.host_writes, 0u);
  EXPECT_EQ(delta.atomic_commits, 0u);
  EXPECT_EQ(delta.group_commits, 0u);
  EXPECT_EQ(delta.queued_reads, 4u);
  EXPECT_EQ(delta.host_reads, 4u);
}

// Reads and writes draw from one queue-depth budget.
TEST(QueuedReadTest, SharedQueueDepthAcrossReadsAndWrites) {
  Rig rig(VldConfig{.queue_depth = 4});
  const auto payload = Pattern(kBlockBytes, 1);
  ASSERT_TRUE(rig.vld->SubmitWrite(0, payload).ok());
  ASSERT_TRUE(rig.vld->SubmitWrite(kBlockSectors, payload).ok());
  ASSERT_TRUE(rig.vld->SubmitRead(0, kBlockSectors).ok());
  ASSERT_TRUE(rig.vld->SubmitRead(kBlockSectors, kBlockSectors).ok());
  EXPECT_EQ(rig.vld->QueuedRequests(), 4u);
  EXPECT_EQ(rig.vld->QueuedWrites(), 2u);
  EXPECT_EQ(rig.vld->QueuedReads(), 2u);

  auto read_overflow = rig.vld->SubmitRead(0, kBlockSectors);
  ASSERT_FALSE(read_overflow.ok());
  EXPECT_EQ(read_overflow.status().code(), common::StatusCode::kFailedPrecondition);
  auto write_overflow = rig.vld->SubmitWrite(0, payload);
  ASSERT_FALSE(write_overflow.ok());
  EXPECT_EQ(write_overflow.status().code(), common::StatusCode::kFailedPrecondition);

  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->size(), 4u);
  for (size_t i = 1; i < done->size(); ++i) {
    EXPECT_LT((*done)[i - 1].id, (*done)[i].id) << "completions arrive in submission order";
  }
  EXPECT_EQ(rig.vld->QueuedRequests(), 0u);
  EXPECT_TRUE(rig.vld->SubmitRead(0, kBlockSectors).ok());
  ASSERT_TRUE(rig.vld->FlushQueue().ok());
}

// One scheduled run: three batches of six scattered reads plus one write, on a fresh device
// with blocks 0-31 written.
struct ScheduledRun {
  std::vector<uint64_t> ids;                  // Completions, in the order FlushQueue returns.
  std::vector<std::vector<std::byte>> bytes;  // dispatch/complete times, then the data.
  std::vector<common::Time> dispatch;         // Per request, in submission order.
  common::Duration elapsed = 0;               // The three batches, end to end.
};

ScheduledRun ServeThreeBatches(SchedulerPolicy policy) {
  Rig rig(VldConfig{.queue_depth = 16, .read_policy = policy});
  for (uint32_t b = 0; b < 32; ++b) {
    EXPECT_TRUE(
        rig.vld->Write(static_cast<simdisk::Lba>(b) * kBlockSectors, Pattern(kBlockBytes, b))
            .ok());
  }
  ScheduledRun r;
  std::vector<uint64_t> submitted;
  const common::Time start = rig.clock.Now();
  for (int round = 0; round < 3; ++round) {
    const auto payload = Pattern(kBlockBytes, 90 + static_cast<uint32_t>(round));
    for (const uint32_t b : {0u, 17u, 3u, 29u, 8u, 23u}) {
      auto id = rig.vld->SubmitRead(static_cast<simdisk::Lba>(b) * kBlockSectors, kBlockSectors);
      EXPECT_TRUE(id.ok());
      submitted.push_back(id.ok() ? *id : 0);
    }
    auto id = rig.vld->SubmitWrite(5 * kBlockSectors, payload);
    EXPECT_TRUE(id.ok());
    submitted.push_back(id.ok() ? *id : 0);
    auto done = rig.vld->FlushQueue();
    EXPECT_TRUE(done.ok());
    for (const Vld::QueuedCompletion& c : *done) {
      // dispatch/complete times pin the service schedule; data pins correctness.
      std::vector<std::byte> record(16);
      std::memcpy(record.data(), &c.dispatch_time, sizeof(c.dispatch_time));
      std::memcpy(record.data() + 8, &c.complete_time, sizeof(c.complete_time));
      record.insert(record.end(), c.data.begin(), c.data.end());
      r.ids.push_back(c.id);
      r.bytes.push_back(std::move(record));
      r.dispatch.push_back(c.dispatch_time);
    }
  }
  r.elapsed = rig.clock.Now() - start;
  EXPECT_EQ(r.ids, submitted) << "completions come back in submission order";
  return r;
}

// The SPTF schedule is a pure function of the request set — two identical runs must produce
// identical service times — and differs from FCFS only in service order, never in returned
// bytes.
TEST(QueuedReadTest, SptfServiceOrderIsDeterministic) {
  const ScheduledRun sptf1 = ServeThreeBatches(SchedulerPolicy::kSptf);
  const ScheduledRun sptf2 = ServeThreeBatches(SchedulerPolicy::kSptf);
  EXPECT_EQ(sptf1.ids, sptf2.ids);
  EXPECT_EQ(sptf1.bytes, sptf2.bytes) << "SPTF must be deterministic across identical runs";

  const ScheduledRun fcfs = ServeThreeBatches(SchedulerPolicy::kFcfs);
  ASSERT_EQ(fcfs.ids, sptf1.ids);
  ASSERT_EQ(fcfs.bytes.size(), sptf1.bytes.size());
  for (size_t i = 0; i < fcfs.bytes.size(); ++i) {
    const std::vector<std::byte> fcfs_data(fcfs.bytes[i].begin() + 16, fcfs.bytes[i].end());
    const std::vector<std::byte> sptf_data(sptf1.bytes[i].begin() + 16, sptf1.bytes[i].end());
    EXPECT_EQ(fcfs_data, sptf_data) << "scheduling policy must never change returned bytes";
  }
}

// FCFS dispatches every request of a batch in submission order, on the same batches that SPTF
// reorders.
TEST(QueuedReadTest, FcfsDispatchesEveryBatchInSubmissionOrder) {
  const ScheduledRun fcfs = ServeThreeBatches(SchedulerPolicy::kFcfs);
  ASSERT_EQ(fcfs.dispatch.size(), 21u);
  for (size_t i = 1; i < fcfs.dispatch.size(); ++i) {
    EXPECT_LT(fcfs.dispatch[i - 1], fcfs.dispatch[i]) << "request " << i << " dispatched early";
  }
  const ScheduledRun sptf = ServeThreeBatches(SchedulerPolicy::kSptf);
  EXPECT_FALSE(std::is_sorted(sptf.dispatch.begin(), sptf.dispatch.end()))
      << "the batches must be ones a positional scheduler reorders";
}

// SPTF's reordering pays: the same three batches finish well ahead of FCFS, which seeks back
// and forth between the scattered blocks in submission order.
TEST(QueuedReadTest, SptfFinishesTheSameBatchesWellAheadOfFcfs) {
  const ScheduledRun fcfs = ServeThreeBatches(SchedulerPolicy::kFcfs);
  const ScheduledRun sptf = ServeThreeBatches(SchedulerPolicy::kSptf);
  EXPECT_LT(sptf.elapsed, fcfs.elapsed - common::Milliseconds(5))
      << "SPTF " << sptf.elapsed << " ns vs FCFS " << fcfs.elapsed << " ns";
}

// SPTF ranks reads by positioning cost alone: an expensive mapped read submitted first loses
// to every later read of an unmapped block, which costs nothing mechanical.
TEST(QueuedReadTest, SptfServesCostFreeReadsBeforeOlderMediaRead) {
  Rig rig;
  ASSERT_TRUE(rig.vld->Write(0, Pattern(kBlockBytes, 1)).ok());
  auto first = rig.vld->SubmitRead(0, kBlockSectors);  // Mapped: positive media cost.
  ASSERT_TRUE(first.ok());
  for (uint32_t b = 100; b < 103; ++b) {
    ASSERT_TRUE(
        rig.vld->SubmitRead(static_cast<simdisk::Lba>(b) * kBlockSectors, kBlockSectors).ok());
  }
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->front().id, *first);
  for (size_t i = 1; i < done->size(); ++i) {
    EXPECT_LT((*done)[i].dispatch_time, done->front().dispatch_time)
        << "the cost-0 read " << i << " must jump the expensive oldest read";
  }
}

// A read the track buffer will serve costs SPTF nothing: it goes before an older read whose
// positioning estimate is lower than the buffered read's would be from the media.
TEST(QueuedReadTest, SptfServesABufferedReadBeforeAnOlderReadThatNeedsPositioning) {
  Rig rig(VldConfig{.compactor_enabled = false, .queue_depth = 16}, /*cache_sectors=*/0,
          /*trace=*/false, Hp36());
  WriteBlocks(rig, 0, 200);
  // Reading block 0 buffers its whole track, and leaves its first sector just behind the head.
  std::vector<std::byte> out(kBlockBytes);
  ASSERT_TRUE(rig.vld->Read(0, out).ok());
  const simdisk::DiskGeometry& g = rig.disk->geometry();
  const auto phys = [&](uint32_t b) {
    return rig.vld->space().BlockToLba(rig.vld->logical_map()[b]);
  };
  const common::Time now = rig.clock.Now();
  ASSERT_TRUE(rig.disk->ReadHitsBuffer(phys(0), kBlockSectors));
  // An older read on another track that the media reaches sooner than block 0's sector.
  uint32_t far = 0;
  for (uint32_t b = 1; b < 200 && far == 0; ++b) {
    if (g.TrackOf(phys(b)) != g.TrackOf(phys(0)) &&
        rig.disk->EstimatePosition(phys(b), now) < rig.disk->EstimatePosition(phys(0), now)) {
      far = b;
    }
  }
  ASSERT_NE(far, 0u);
  auto older = rig.vld->SubmitRead(static_cast<simdisk::Lba>(far) * kBlockSectors, kBlockSectors);
  auto buffered = rig.vld->SubmitRead(0, kBlockSectors);
  ASSERT_TRUE(older.ok() && buffered.ok());
  auto done = rig.vld->FlushQueue();
  ASSERT_TRUE(done.ok());
  EXPECT_LT(CompletionOf(*done, *buffered).dispatch_time,
            CompletionOf(*done, *older).dispatch_time)
      << "the buffered read costs no positioning";
  EXPECT_EQ(CompletionOf(*done, *buffered).data, Pattern(kBlockBytes, 1));
  EXPECT_EQ(CompletionOf(*done, *older).data, Pattern(kBlockBytes, far + 1));
}

// Equal positioning cost breaks toward the older read, so SPTF is FIFO among ties. Three reads
// of block 0 around one of block 1999 dispatch as the 1st, 3rd, 4th, then the 2nd request.
TEST(QueuedReadTest, SptfBreaksEqualCostTiesTowardTheOlderRead) {
  common::Clock clock;
  simdisk::SimDisk disk(simdisk::Hp97560(), &clock);
  Vld vld(&disk, VldConfig{.compactor_enabled = false, .queue_depth = 16});
  ASSERT_TRUE(vld.Format().ok());
  for (uint32_t b = 0; b < 2000; ++b) {
    ASSERT_TRUE(
        vld.Write(static_cast<simdisk::Lba>(b) * kBlockSectors, Pattern(kBlockBytes, b)).ok());
  }
  std::vector<uint64_t> ids;
  for (const uint32_t b : {0u, 1999u, 0u, 0u}) {
    auto id = vld.SubmitRead(static_cast<simdisk::Lba>(b) * kBlockSectors, kBlockSectors);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  auto done = vld.FlushQueue();
  ASSERT_TRUE(done.ok());
  std::vector<Vld::QueuedCompletion> by_dispatch = std::move(*done);
  std::sort(by_dispatch.begin(), by_dispatch.end(),
            [](const Vld::QueuedCompletion& a, const Vld::QueuedCompletion& b) {
              return a.dispatch_time < b.dispatch_time;
            });
  std::vector<uint64_t> order;
  for (const Vld::QueuedCompletion& c : by_dispatch) {
    order.push_back(c.id);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{ids[0], ids[2], ids[3], ids[1]}));
}

// The differential suite: seeded randomized interleavings of SubmitRead / SubmitWrite /
// FlushQueue / Flush on the queued device, replayed synchronously on an identical oracle
// device. A batch may write one block several times (a same-batch overwrite, whose last write
// must win). Every queued read must return bit-identical bytes to the oracle's synchronous read
// at its submission point, the final logical contents must match block for block, and the
// queued device's free-space accounting must match its map. Adds the batch writes that
// overwrote an earlier write of the same batch to `overwrites`.
void RunDifferential(uint64_t seed, uint64_t cache_sectors, uint64_t* overwrites) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " cache " + std::to_string(cache_sectors));
  Rig queued(VldConfig{.queue_depth = 16}, cache_sectors);
  Rig oracle(VldConfig{.queue_depth = 16}, cache_sectors);
  const uint32_t region = std::min<uint32_t>(queued.vld->logical_blocks(), 96);
  common::Rng rng(seed);
  uint64_t reads_checked = 0;

  for (int round = 0; round < 25; ++round) {
    const size_t batch = 1 + rng.Below(12);
    std::map<uint64_t, std::vector<std::byte>> expected;  // Read id -> oracle bytes.
    std::set<uint32_t> written;  // Blocks this batch has written.
    for (size_t i = 0; i < batch; ++i) {
      if (rng.Chance(0.45)) {
        // Reads may be unaligned and sub-block: any extent inside the region.
        const uint64_t sectors = 1 + rng.Below(16);
        const simdisk::Lba lba =
            rng.Below(static_cast<uint64_t>(region) * kBlockSectors - sectors);
        auto id = queued.vld->SubmitRead(lba, sectors);
        ASSERT_TRUE(id.ok());
        std::vector<std::byte> want(sectors * kSectorBytes);
        ASSERT_TRUE(oracle.vld->Read(lba, want).ok());
        expected.emplace(*id, std::move(want));
      } else {
        const uint32_t b = static_cast<uint32_t>(rng.Below(region));
        *overwrites += written.insert(b).second ? 0 : 1;
        const auto payload =
            Pattern(kBlockBytes, static_cast<uint32_t>(seed * 1000 + round * 37 + i));
        ASSERT_TRUE(
            queued.vld->SubmitWrite(static_cast<simdisk::Lba>(b) * kBlockSectors, payload)
                .ok());
        ASSERT_TRUE(
            oracle.vld->Write(static_cast<simdisk::Lba>(b) * kBlockSectors, payload).ok());
      }
    }
    auto done = queued.vld->FlushQueue();
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done->size(), batch);
    for (const Vld::QueuedCompletion& c : *done) {
      if (c.is_write) {
        continue;
      }
      const auto it = expected.find(c.id);
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(c.data, it->second)
          << "queued read diverged from the synchronous oracle at lba " << c.lba;
      ++reads_checked;
    }
    if (rng.Chance(0.2)) {
      ASSERT_TRUE(queued.vld->Flush().ok());
      ASSERT_TRUE(oracle.vld->Flush().ok());
    }
  }
  EXPECT_GT(reads_checked, 20u) << "the schedule must actually exercise reads";

  std::vector<std::byte> got(kBlockBytes), want(kBlockBytes);
  for (uint32_t b = 0; b < region; ++b) {
    ASSERT_TRUE(queued.vld->Read(static_cast<simdisk::Lba>(b) * kBlockSectors, got).ok());
    ASSERT_TRUE(oracle.vld->Read(static_cast<simdisk::Lba>(b) * kBlockSectors, want).ok());
    ASSERT_EQ(got, want) << "final contents diverged at block " << b;
  }
  crashsim::CheckMapInvariants(*queued.vld,
                               [](const std::string& what) { ADD_FAILURE() << what; });
}

TEST(QueuedReadDifferentialTest, MatchesSyncOracleAcrossSeeds) {
  uint64_t overwrites = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunDifferential(seed, /*cache_sectors=*/0, &overwrites);
  }
  EXPECT_GT(overwrites, 0u) << "the schedule must exercise same-batch overwrites";
}

TEST(QueuedReadDifferentialTest, MatchesSyncOracleWithWriteBackCache) {
  uint64_t overwrites = 0;
  for (uint64_t seed = 5; seed <= 6; ++seed) {
    RunDifferential(seed, /*cache_sectors=*/1024, &overwrites);
  }
  EXPECT_GT(overwrites, 0u) << "the schedule must exercise same-batch overwrites";
}

}  // namespace
}  // namespace vlog::core
