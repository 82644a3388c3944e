#include "src/simdisk/write_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/time.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::simdisk {
namespace {

std::vector<std::byte> Pattern(uint32_t tag, size_t bytes) {
  std::vector<std::byte> data(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::byte>((tag * 131u + i * 7u) & 0xFF);
  }
  return data;
}

TEST(WriteCacheTest, DisabledByDefault) {
  WriteCache cache;
  EXPECT_FALSE(cache.enabled());
  EXPECT_TRUE(cache.clean());
  EXPECT_EQ(cache.dirty_sectors(), 0u);
}

TEST(WriteCacheTest, InsertCoalescesAdjacentAndOverlappingExtents) {
  WriteCache cache(WriteCacheParams{.capacity_sectors = 64});
  EXPECT_FALSE(cache.Insert(8, 4));
  EXPECT_FALSE(cache.Insert(12, 4));  // Adjacent: one extent [8, 16).
  EXPECT_FALSE(cache.Insert(10, 4));  // Fully contained in [8, 16).
  EXPECT_EQ(cache.dirty_sectors(), 8u);
  EXPECT_TRUE(cache.Contains(8, 8));
  EXPECT_FALSE(cache.Contains(7, 2));
  EXPECT_FALSE(cache.Contains(15, 2));
  const auto extents = cache.Drain();
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].lba, 8u);
  EXPECT_EQ(extents[0].sectors, 8u);
  EXPECT_TRUE(cache.clean());
}

TEST(WriteCacheTest, InsertReportsCapacityOverflow) {
  WriteCache cache(WriteCacheParams{.capacity_sectors = 8});
  EXPECT_FALSE(cache.Insert(0, 8));
  EXPECT_TRUE(cache.Insert(100, 1)) << "ninth dirty sector must exceed capacity 8";
}

TEST(WriteCacheTest, DiscardPunchesHolesWithoutDestaging) {
  WriteCache cache(WriteCacheParams{.capacity_sectors = 64});
  cache.Insert(0, 10);
  cache.Discard(4, 2);
  EXPECT_EQ(cache.dirty_sectors(), 8u);
  EXPECT_TRUE(cache.Contains(0, 4));
  EXPECT_FALSE(cache.Contains(4, 2));
  EXPECT_TRUE(cache.Contains(6, 4));
  const auto extents = cache.Drain();
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0].lba, 0u);
  EXPECT_EQ(extents[0].sectors, 4u);
  EXPECT_EQ(extents[1].lba, 6u);
  EXPECT_EQ(extents[1].sectors, 4u);
}

TEST(WriteCacheTest, DrainOrdersLbaAscendingOrFifo) {
  WriteCache lba_cache(WriteCacheParams{.capacity_sectors = 64});
  lba_cache.Insert(40, 2);
  lba_cache.Insert(8, 2);
  lba_cache.Insert(24, 2);
  auto by_lba = lba_cache.Drain();
  ASSERT_EQ(by_lba.size(), 3u);
  EXPECT_EQ(by_lba[0].lba, 8u);
  EXPECT_EQ(by_lba[1].lba, 24u);
  EXPECT_EQ(by_lba[2].lba, 40u);

  WriteCache fifo_cache(
      WriteCacheParams{.capacity_sectors = 64, .order = DestageOrder::kFifo});
  fifo_cache.Insert(40, 2);
  fifo_cache.Insert(8, 2);
  fifo_cache.Insert(24, 2);
  auto fifo = fifo_cache.Drain();
  ASSERT_EQ(fifo.size(), 3u);
  EXPECT_EQ(fifo[0].lba, 40u);
  EXPECT_EQ(fifo[1].lba, 8u);
  EXPECT_EQ(fifo[2].lba, 24u);
}

// ---------------------------------------------------------------------------
// SimDisk integration: ack timing, flush accounting, FUA, and read hits.
// ---------------------------------------------------------------------------

class CachedDiskTest : public ::testing::Test {
 protected:
  static DiskParams Cached(uint64_t capacity) {
    DiskParams params = Truncated(Hp97560(), 2);
    params.cache.capacity_sectors = capacity;
    return params;
  }

  common::Clock clock_;
};

TEST_F(CachedDiskTest, CachedWriteAcksWithoutMechanicalWorkAndFlushPaysIt) {
  SimDisk cached(Cached(256), &clock_);
  const auto data = Pattern(1, 4 * 512);
  ASSERT_TRUE(cached.Write(100, data).ok());
  EXPECT_EQ(cached.cache_dirty_sectors(), 4u);
  // Ack covers controller + bus only: no positioning or media-rate transfer.
  EXPECT_EQ(cached.last_request().locate, 0);
  EXPECT_EQ(cached.last_request().flush, 0);
  EXPECT_EQ(cached.stats().cached_writes, 1u);

  // The data is already readable (the media model is poked at ack time).
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(cached.Read(100, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(cached.stats().cache_read_hits, 1u);

  const common::Time before = clock_.Now();
  ASSERT_TRUE(cached.Flush().ok());
  EXPECT_GT(clock_.Now(), before) << "destage must pay the deferred mechanical cost";
  EXPECT_GT(cached.last_request().flush, 0);
  EXPECT_EQ(cached.cache_dirty_sectors(), 0u);
  EXPECT_EQ(cached.stats().flushes, 1u);
  EXPECT_EQ(cached.stats().destaged_sectors, 4u);
}

// A queued read of an extent whose write is still dirty in the volatile cache must return the
// acknowledged bytes (the media model is poked at ack time), without forcing a destage. The
// VLD's queue services it with the firmware calls used here: InternalWrite, then InternalRead.
TEST_F(CachedDiskTest, QueuedReadOfCacheDirtyExtentReturnsAcknowledgedBytes) {
  SimDisk disk(Cached(256), &clock_);
  const auto data = Pattern(3, 8 * 512);
  ASSERT_TRUE(disk.InternalWrite(120, data).ok());
  ASSERT_EQ(disk.cache_dirty_sectors(), 8u) << "the write must land dirty in the cache";

  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(disk.InternalRead(120, out).ok());
  EXPECT_EQ(out, data) << "the read must see the volatile acknowledged bytes";
  EXPECT_EQ(disk.cache_dirty_sectors(), 8u) << "the read must not destage the cache";
  EXPECT_GE(disk.stats().cache_read_hits, 1u);
}

TEST_F(CachedDiskTest, EmptyFlushIsFree) {
  SimDisk disk(Cached(256), &clock_);
  const common::Time before = clock_.Now();
  ASSERT_TRUE(disk.Flush().ok());
  EXPECT_EQ(clock_.Now(), before);
  EXPECT_EQ(disk.stats().flushes, 1u);
  EXPECT_EQ(disk.stats().destaged_sectors, 0u);
}

TEST_F(CachedDiskTest, DisabledCacheFlushIsTotalNoOp) {
  SimDisk disk(Truncated(Hp97560(), 2), &clock_);
  ASSERT_TRUE(disk.Write(64, Pattern(2, 2 * 512)).ok());
  const common::Time before = clock_.Now();
  ASSERT_TRUE(disk.Flush().ok());
  EXPECT_EQ(clock_.Now(), before);
  EXPECT_EQ(disk.stats().flushes, 0u) << "write-through Flush must not even count";
  EXPECT_EQ(disk.stats().cached_writes, 0u);
}

TEST_F(CachedDiskTest, FuaWriteBypassesCacheAndSupersedesDirtyCopy) {
  SimDisk disk(Cached(256), &clock_);
  ASSERT_TRUE(disk.Write(100, Pattern(3, 4 * 512)).ok());
  EXPECT_EQ(disk.cache_dirty_sectors(), 4u);
  const auto fresh = Pattern(4, 4 * 512);
  ASSERT_TRUE(disk.WriteFua(100, fresh).ok());
  EXPECT_EQ(disk.cache_dirty_sectors(), 0u) << "FUA supersedes the overlapping dirty extent";
  EXPECT_EQ(disk.stats().fua_writes, 1u);
  std::vector<std::byte> out(fresh.size());
  ASSERT_TRUE(disk.Read(100, out).ok());
  EXPECT_EQ(out, fresh);
}

TEST_F(CachedDiskTest, CapacityPressureDrainsWithoutCountingAsFlush) {
  SimDisk disk(Cached(8), &clock_);
  bool flushed = false;
  disk.set_flush_observer([&] { flushed = true; });
  ASSERT_TRUE(disk.Write(0, Pattern(5, 8 * 512)).ok());
  EXPECT_FALSE(flushed);
  ASSERT_TRUE(disk.Write(64, Pattern(6, 512)).ok());  // Ninth dirty sector: over capacity.
  EXPECT_TRUE(flushed) << "a pressure drain is a durability event";
  EXPECT_EQ(disk.cache_dirty_sectors(), 0u);
  EXPECT_EQ(disk.stats().flushes, 0u) << "pressure drains are not host flushes";
  EXPECT_EQ(disk.stats().destaged_sectors, 9u);
}

TEST_F(CachedDiskTest, ObserverReportsDurability) {
  SimDisk disk(Cached(256), &clock_);
  std::vector<bool> durables;
  disk.set_write_observer(
      [&](Lba, std::span<const std::byte>, bool durable) { durables.push_back(durable); });
  ASSERT_TRUE(disk.Write(0, Pattern(7, 512)).ok());
  ASSERT_TRUE(disk.WriteFua(8, Pattern(8, 512)).ok());
  ASSERT_TRUE(disk.InternalWrite(16, Pattern(9, 512)).ok());
  ASSERT_EQ(durables.size(), 3u);
  EXPECT_FALSE(durables[0]);
  EXPECT_TRUE(durables[1]);
  EXPECT_FALSE(durables[2]);
}

// The acceptance-critical identity: with capacity 0 the cached code paths must be bit-identical
// to the write-through model — same clock, same stats, same media.
TEST_F(CachedDiskTest, ZeroCapacityIsBitIdenticalToWriteThrough) {
  common::Clock clock_a;
  common::Clock clock_b;
  SimDisk plain(Truncated(Hp97560(), 2), &clock_a);
  DiskParams zero = Truncated(Hp97560(), 2);
  zero.cache.capacity_sectors = 0;
  SimDisk cached(zero, &clock_b);

  for (uint32_t i = 0; i < 16; ++i) {
    const Lba lba = (i * 37) % 512;
    const auto data = Pattern(i, 2 * 512);
    ASSERT_TRUE(plain.Write(lba, data).ok());
    ASSERT_TRUE(cached.Write(lba, data).ok());
    ASSERT_TRUE(cached.Flush().ok());  // Must be a free no-op.
    ASSERT_EQ(clock_a.Now(), clock_b.Now()) << "clock diverged at write " << i;
  }
  std::vector<std::byte> a(2 * 512);
  std::vector<std::byte> b(2 * 512);
  ASSERT_TRUE(plain.Read(37, a).ok());
  ASSERT_TRUE(cached.Read(37, b).ok());
  EXPECT_EQ(a, b);
  EXPECT_EQ(clock_a.Now(), clock_b.Now());
  EXPECT_EQ(plain.stats().sectors_written, cached.stats().sectors_written);
  EXPECT_EQ(cached.stats().cached_writes, 0u);
  EXPECT_EQ(cached.stats().flushes, 0u);
}

}  // namespace
}  // namespace vlog::simdisk
