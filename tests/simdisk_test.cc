#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "src/common/time.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/geometry.h"
#include "src/simdisk/host_model.h"
#include "src/simdisk/sim_disk.h"

namespace vlog::simdisk {
namespace {

using common::Clock;
using common::Duration;
using common::Milliseconds;

std::vector<std::byte> Pattern(size_t n, uint8_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed + i));
  }
  return v;
}

TEST(Geometry, LbaPhysRoundTrip) {
  const DiskGeometry g{.cylinders = 36, .tracks_per_cylinder = 19, .sectors_per_track = 72,
                       .sector_bytes = 512};
  EXPECT_EQ(g.TotalSectors(), 36ull * 19 * 72);
  for (Lba lba : {Lba{0}, Lba{71}, Lba{72}, Lba{1367}, Lba{1368}, g.TotalSectors() - 1}) {
    EXPECT_EQ(g.ToLba(g.ToPhys(lba)), lba);
  }
  const PhysAddr p = g.ToPhys(72 * 19);  // First sector of cylinder 1.
  EXPECT_EQ(p.cylinder, 1u);
  EXPECT_EQ(p.head, 0u);
  EXPECT_EQ(p.sector, 0u);
}

TEST(Geometry, TrackIndexing) {
  const DiskGeometry g{.cylinders = 4, .tracks_per_cylinder = 2, .sectors_per_track = 8,
                       .sector_bytes = 512};
  EXPECT_EQ(g.TrackOf(0), 0u);
  EXPECT_EQ(g.TrackOf(7), 0u);
  EXPECT_EQ(g.TrackOf(8), 1u);
  EXPECT_EQ(g.TrackStart(3), 24u);
  EXPECT_EQ(g.TotalTracks(), 8u);
}

TEST(DiskParams, Table1Values) {
  const DiskParams hp = Hp97560();
  EXPECT_EQ(hp.geometry.sectors_per_track, 72u);
  EXPECT_EQ(hp.geometry.tracks_per_cylinder, 19u);
  EXPECT_EQ(hp.head_switch, Milliseconds(2.5));
  EXPECT_EQ(hp.scsi_overhead, Milliseconds(2.3));
  EXPECT_NEAR(common::ToMilliseconds(hp.RotationPeriod()), 14.99, 0.01);
  // Table 1: minimum seek 3.6 ms.
  EXPECT_NEAR(common::ToMilliseconds(hp.seek.SeekTime(1)), 3.64, 0.01);

  const DiskParams st = SeagateSt19101();
  EXPECT_EQ(st.geometry.sectors_per_track, 256u);
  EXPECT_EQ(st.geometry.tracks_per_cylinder, 16u);
  EXPECT_NEAR(common::ToMilliseconds(st.RotationPeriod()), 6.0, 0.001);
  EXPECT_NEAR(common::ToMilliseconds(st.seek.SeekTime(1)), 0.5, 0.001);
  EXPECT_EQ(st.scsi_overhead, Milliseconds(0.1));
}

TEST(DiskParams, SeekCurveMonotone) {
  for (const DiskParams& p : {Hp97560(), SeagateSt19101()}) {
    Duration prev = 0;
    for (uint32_t d = 0; d < p.geometry.cylinders; d += 37) {
      const Duration t = p.seek.SeekTime(d);
      EXPECT_GE(t, prev) << p.name << " distance " << d;
      prev = t;
    }
  }
}

TEST(DiskParams, TruncatedKeepsTiming) {
  const DiskParams t = Truncated(Hp97560(), 36);
  EXPECT_EQ(t.geometry.cylinders, 36u);
  EXPECT_EQ(t.RotationPeriod(), Hp97560().RotationPeriod());
  // ~24 MB, matching the paper's kernel-memory ramdisk.
  EXPECT_NEAR(static_cast<double>(t.geometry.CapacityBytes()) / (1 << 20), 24.0, 1.5);
}

// Every sector of `view`, concatenated.
std::vector<std::byte> ViewBytes(const SimDisk::MediaView& view) {
  std::vector<std::byte> bytes;
  for (uint64_t i = 0; i < view.sectors(); ++i) {
    const std::span<const std::byte> sector = view.Sector(i);
    bytes.insert(bytes.end(), sector.begin(), sector.end());
  }
  return bytes;
}

class SimDiskTest : public ::testing::Test {
 protected:
  SimDiskTest() : disk_(Truncated(Hp97560(), 36), &clock_) {}
  Clock clock_;
  SimDisk disk_;
};

TEST_F(SimDiskTest, WriteThenReadBack) {
  const auto data = Pattern(4096, 3);
  ASSERT_TRUE(disk_.Write(100, data).ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(disk_.Read(100, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(SimDiskTest, RejectsBadRanges) {
  std::vector<std::byte> ragged(100);  // Not a whole sector.
  EXPECT_FALSE(disk_.Read(0, ragged).ok());
  std::vector<std::byte> sector(512);
  EXPECT_FALSE(disk_.Write(disk_.SectorCount(), sector).ok());
  std::vector<std::byte> two_sectors(1024);
  EXPECT_FALSE(disk_.Read(disk_.SectorCount() - 1, two_sectors).ok());
  // An extent whose end wraps past 2^64 is out of range on every entry point.
  const Lba wrap = std::numeric_limits<Lba>::max() - 3;  // 8 sectors wrap to LBA 4.
  std::vector<std::byte> buf(8 * 512);
  const auto invalid = common::StatusCode::kInvalidArgument;
  EXPECT_EQ(disk_.Read(wrap, buf).code(), invalid);
  EXPECT_EQ(disk_.Write(wrap, buf).code(), invalid);
  EXPECT_EQ(disk_.WriteFua(wrap, buf).code(), invalid);
  EXPECT_EQ(disk_.InternalRead(wrap, buf).code(), invalid);
  EXPECT_EQ(disk_.InternalWrite(wrap, buf).code(), invalid);
  EXPECT_EQ(disk_.InternalWriteFua(wrap, buf).code(), invalid);
  EXPECT_TRUE(disk_.InternalReadView(wrap, 8).empty());
  // No rejected call touched the media or the clock.
  EXPECT_EQ(clock_.Now(), 0);
  EXPECT_EQ(disk_.stats().write_requests + disk_.stats().read_requests, 0u);
}

TEST_F(SimDiskTest, HostCommandChargesScsiOverhead) {
  const common::Time before = clock_.Now();
  std::vector<std::byte> sector(512);
  ASSERT_TRUE(disk_.Write(0, sector).ok());
  EXPECT_GE(clock_.Now() - before, disk_.params().scsi_overhead);
  EXPECT_EQ(disk_.stats().breakdown.scsi_overhead, disk_.params().scsi_overhead);
}

TEST_F(SimDiskTest, InternalOpSkipsScsiOverhead) {
  std::vector<std::byte> sector(512);
  ASSERT_TRUE(disk_.InternalWrite(0, sector).ok());
  EXPECT_EQ(disk_.stats().breakdown.scsi_overhead, 0);
}

TEST_F(SimDiskTest, SeekChargedWhenCylinderChanges) {
  std::vector<std::byte> sector(512);
  ASSERT_TRUE(disk_.InternalWrite(0, sector).ok());
  const Duration same_cyl = disk_.last_request().locate;
  // Same cylinder: no seek beyond rotation; far cylinder pays the seek curve.
  const Lba far = disk_.geometry().ToLba(PhysAddr{35, 0, 0});
  ASSERT_TRUE(disk_.InternalWrite(far, sector).ok());
  const Duration far_locate = disk_.last_request().locate;
  EXPECT_GE(far_locate, disk_.params().seek.SeekTime(35));
  EXPECT_LE(same_cyl, disk_.params().RotationPeriod());
}

TEST_F(SimDiskTest, RotationalWaitMatchesClockPhase) {
  const Duration period = disk_.params().RotationPeriod();
  const uint32_t n = disk_.geometry().sectors_per_track;
  // At time 0 the head is at sector 0; waiting for sector k takes k/n of a rotation.
  for (uint32_t k : {1u, 7u, n - 1}) {
    const Duration wait = disk_.RotationalWait(k, 0);
    EXPECT_NEAR(static_cast<double>(wait), static_cast<double>(period) * k / n, 2.0);
  }
  // Sector 0 at time 0: zero wait.
  EXPECT_EQ(disk_.RotationalWait(0, 0), 0);
}

TEST_F(SimDiskTest, SequentialTransferRunsAtMediaRate) {
  // Writing a whole track takes about one rotation of transfer time.
  const uint32_t n = disk_.geometry().sectors_per_track;
  const auto data = Pattern(static_cast<size_t>(n) * 512, 1);
  disk_.stats().Reset();
  ASSERT_TRUE(disk_.InternalWrite(0, data).ok());
  EXPECT_EQ(disk_.last_request().transfer, disk_.params().SectorTime() * n);
}

TEST_F(SimDiskTest, TrackBufferServesSequentialReread) {
  const auto data = Pattern(8 * 512, 9);
  ASSERT_TRUE(disk_.Write(16, data).ok());
  std::vector<std::byte> out(8 * 512);
  ASSERT_TRUE(disk_.Read(16, out).ok());  // Mechanical, populates the buffer.
  const uint64_t hits_before = disk_.stats().buffer_hits;
  ASSERT_TRUE(disk_.Read(16, out).ok());  // Same range: buffered.
  EXPECT_EQ(disk_.stats().buffer_hits, hits_before + 1);
}

TEST_F(SimDiskTest, StandardPolicyDiscardsLowerAddresses) {
  disk_.set_read_ahead_policy(ReadAheadPolicy::kStandard);
  std::vector<std::byte> out(512);
  ASSERT_TRUE(disk_.Read(40, out).ok());
  ASSERT_TRUE(disk_.Read(45, out).ok());
  // After reading ahead to 45, address 40 was discarded (lower than current request start).
  const uint64_t hits = disk_.stats().buffer_hits;
  ASSERT_TRUE(disk_.Read(40, out).ok());
  EXPECT_EQ(disk_.stats().buffer_hits, hits);
}

TEST_F(SimDiskTest, AggressivePolicyKeepsWholeTrack) {
  disk_.set_read_ahead_policy(ReadAheadPolicy::kAggressiveTrack);
  std::vector<std::byte> out(512);
  ASSERT_TRUE(disk_.Read(40, out).ok());  // Prefetches the entire track 0.
  uint64_t hits = disk_.stats().buffer_hits;
  ASSERT_TRUE(disk_.Read(10, out).ok());  // Lower address, same track: still buffered.
  EXPECT_EQ(disk_.stats().buffer_hits, hits + 1);
  ASSERT_TRUE(disk_.Read(70, out).ok());
  EXPECT_EQ(disk_.stats().buffer_hits, hits + 2);
}

TEST_F(SimDiskTest, WriteInvalidatesOverlappingBuffer) {
  std::vector<std::byte> out(512);
  ASSERT_TRUE(disk_.Read(40, out).ok());
  ASSERT_TRUE(disk_.Write(40, Pattern(512, 2)).ok());
  const uint64_t hits = disk_.stats().buffer_hits;
  ASSERT_TRUE(disk_.Read(40, out).ok());
  EXPECT_EQ(disk_.stats().buffer_hits, hits);  // Miss: buffer was invalidated.
}

TEST_F(SimDiskTest, EstimatePositionMatchesCharge) {
  // The allocator's cost estimate must agree with what servicing actually charges.
  std::vector<std::byte> sector(512);
  ASSERT_TRUE(disk_.InternalWrite(0, sector).ok());
  const Lba target = disk_.geometry().ToLba(PhysAddr{7, 3, 41});
  const Duration estimate = disk_.EstimatePosition(target, clock_.Now());
  ASSERT_TRUE(disk_.InternalWrite(target, sector).ok());
  EXPECT_EQ(disk_.last_request().locate, estimate);
}

TEST_F(SimDiskTest, InjectedWriteFailureLeavesMediaIntact) {
  ASSERT_TRUE(disk_.Write(8, Pattern(512, 1)).ok());
  disk_.SetWriteFault(SimDisk::WriteFault{.after_writes = 1});
  EXPECT_TRUE(disk_.Write(16, Pattern(512, 2)).ok());   // One more succeeds.
  EXPECT_FALSE(disk_.Write(24, Pattern(512, 3)).ok());  // Then the power is gone.
  std::vector<std::byte> out(512);
  disk_.PeekMedia(24, out);
  EXPECT_EQ(out, std::vector<std::byte>(512));  // Untouched.
  disk_.SetWriteFault(std::nullopt);
  EXPECT_TRUE(disk_.Write(24, Pattern(512, 3)).ok());
}

TEST_F(SimDiskTest, TornPrefixFaultPersistsLeadingSectorsOnly) {
  const auto data = Pattern(4 * 512, 7);
  disk_.SetWriteFault(SimDisk::WriteFault{.mode = SimDisk::WriteFaultMode::kTornPrefix,
                                          .keep_sectors = 2});
  EXPECT_FALSE(disk_.Write(8, data).ok());
  std::vector<std::byte> out(4 * 512);
  disk_.PeekMedia(8, out);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 2 * 512, data.begin()));
  EXPECT_EQ(std::vector<std::byte>(out.begin() + 2 * 512, out.end()),
            std::vector<std::byte>(2 * 512));  // Tail never reached the media.
}

TEST_F(SimDiskTest, TornSuffixFaultPersistsTrailingSectorsOnly) {
  const auto data = Pattern(4 * 512, 8);
  disk_.SetWriteFault(SimDisk::WriteFault{.mode = SimDisk::WriteFaultMode::kTornSuffix,
                                          .keep_sectors = 1});
  EXPECT_FALSE(disk_.Write(8, data).ok());
  std::vector<std::byte> out(4 * 512);
  disk_.PeekMedia(8, out);
  EXPECT_EQ(std::vector<std::byte>(out.begin(), out.begin() + 3 * 512),
            std::vector<std::byte>(3 * 512));
  EXPECT_TRUE(std::equal(out.begin() + 3 * 512, out.end(), data.begin() + 3 * 512));
}

TEST_F(SimDiskTest, TornRandomFaultIsDeterministicPerSeed) {
  const auto data = Pattern(8 * 512, 9);
  auto run = [&](uint64_t seed) {
    Clock clock;
    SimDisk disk(Truncated(Hp97560(), 36), &clock);
    disk.SetWriteFault(SimDisk::WriteFault{.mode = SimDisk::WriteFaultMode::kTornRandom,
                                           .seed = seed});
    EXPECT_FALSE(disk.Write(8, data).ok());
    std::vector<std::byte> out(8 * 512);
    disk.PeekMedia(8, out);
    return out;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // Overwhelmingly likely over eight sectors.
}

TEST_F(SimDiskTest, CorruptTailFaultDamagesOnlyTheLastSector) {
  const auto data = Pattern(4 * 512, 10);
  disk_.SetWriteFault(SimDisk::WriteFault{.mode = SimDisk::WriteFaultMode::kCorruptTail,
                                          .seed = 3});
  EXPECT_FALSE(disk_.Write(8, data).ok());
  std::vector<std::byte> out(4 * 512);
  disk_.PeekMedia(8, out);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 3 * 512, data.begin()));
  EXPECT_NE(std::vector<std::byte>(out.begin() + 3 * 512, out.end()),
            std::vector<std::byte>(data.begin() + 3 * 512, data.end()));
}

TEST_F(SimDiskTest, FaultKeepsFiringUntilCleared) {
  disk_.SetWriteFault(SimDisk::WriteFault{.mode = SimDisk::WriteFaultMode::kFailStop,
                                          .after_writes = 1});
  EXPECT_TRUE(disk_.Write(8, Pattern(512, 1)).ok());
  EXPECT_FALSE(disk_.Write(16, Pattern(512, 2)).ok());
  EXPECT_FALSE(disk_.InternalWrite(24, Pattern(512, 3)).ok());  // Power stays off.
  std::vector<std::byte> out(512);
  EXPECT_TRUE(disk_.Read(8, out).ok());  // Reads are unaffected by the write fault.
  disk_.SetWriteFault(std::nullopt);
  EXPECT_TRUE(disk_.Write(16, Pattern(512, 2)).ok());
}

TEST_F(SimDiskTest, WriteObserverSeesOnlyAcknowledgedWrites) {
  std::vector<std::pair<Lba, size_t>> seen;
  disk_.set_write_observer([&](Lba lba, std::span<const std::byte> in, bool durable) {
    EXPECT_TRUE(durable);  // No write cache configured: every write is durable on ack.
    seen.emplace_back(lba, in.size());
  });
  ASSERT_TRUE(disk_.Write(8, Pattern(2 * 512, 1)).ok());
  ASSERT_TRUE(disk_.InternalWrite(32, Pattern(512, 2)).ok());
  disk_.SetWriteFault(SimDisk::WriteFault{.mode = SimDisk::WriteFaultMode::kTornPrefix,
                                          .keep_sectors = 1});
  EXPECT_FALSE(disk_.Write(64, Pattern(2 * 512, 3)).ok());  // Torn: not acknowledged.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<Lba, size_t>{8, 2 * 512}));
  EXPECT_EQ(seen[1], (std::pair<Lba, size_t>{32, 512}));
}

TEST_F(SimDiskTest, UnwrittenSectorsReadAsZeros) {
  const std::vector<std::byte> zeros(4 * 512);
  std::vector<std::byte> out(4 * 512, std::byte{0xFF});
  ASSERT_TRUE(disk_.Read(300, out).ok());
  EXPECT_EQ(out, zeros);
  std::fill(out.begin(), out.end(), std::byte{0xFF});
  disk_.PeekMedia(300, out);
  EXPECT_EQ(out, zeros);
  EXPECT_EQ(ViewBytes(disk_.InternalReadView(300, 4)), zeros);
}

TEST_F(SimDiskTest, WriteStraddlingTrackBoundaryReadsBackWhole) {
  const uint32_t n = disk_.geometry().sectors_per_track;
  const auto data = Pattern(6 * 512, 4);
  ASSERT_TRUE(disk_.Write(2 * n - 3, data).ok());  // Three sectors on each side.
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(disk_.Read(2 * n - 3, out).ok());
  EXPECT_EQ(out, data);
  disk_.PeekMedia(2 * n - 3, out);
  EXPECT_EQ(out, data);
}

TEST_F(SimDiskTest, InternalReadViewAcrossTrackBoundaryIsARangeError) {
  const uint32_t n = disk_.geometry().sectors_per_track;
  EXPECT_FALSE(disk_.InternalReadView(0, n).empty());
  EXPECT_TRUE(disk_.InternalReadView(n - 1, 2).empty());
}

// A latent sector error fails every read that touches the marked sector, host or internal,
// with kIoError and changes nothing else: no clock, no stats, no media. Reads beside it and
// writes over it work as before, and a fork reads the same damaged platter.
TEST_F(SimDiskTest, LatentSectorErrorFailsOnlyTheReadsThatTouchIt) {
  const auto data = Pattern(8 * 512, 4);
  ASSERT_TRUE(disk_.Write(96, data).ok());
  disk_.MarkLatentSectorError(100);
  const common::Time now = clock_.Now();
  const uint64_t reads = disk_.stats().read_requests;
  std::vector<std::byte> out(8 * 512);
  EXPECT_EQ(disk_.Read(96, out).code(), common::StatusCode::kIoError);
  EXPECT_EQ(disk_.InternalRead(100, std::span(out).first(512)).code(),
            common::StatusCode::kIoError);
  EXPECT_TRUE(disk_.InternalReadView(98, 4).empty());
  EXPECT_EQ(clock_.Now(), now);
  EXPECT_EQ(disk_.stats().read_requests, reads);
  std::vector<std::byte> media(8 * 512);
  disk_.PeekMedia(96, media);
  EXPECT_EQ(media, data);

  ASSERT_TRUE(disk_.Read(96, std::span(out).first(4 * 512)).ok());
  ASSERT_TRUE(disk_.Read(101, std::span(out).first(3 * 512)).ok());
  ASSERT_TRUE(disk_.Write(100, Pattern(512, 9)).ok());
  EXPECT_EQ(disk_.Read(100, std::span(out).first(512)).code(), common::StatusCode::kIoError);

  Clock fork_clock;
  SimDisk fork = disk_.Fork(&fork_clock);
  EXPECT_EQ(fork.Read(96, out).code(), common::StatusCode::kIoError);
}

TEST_F(SimDiskTest, ForkAndParentWritesStayInvisibleToEachOther) {
  const uint32_t n = disk_.geometry().sectors_per_track;
  ASSERT_TRUE(disk_.Write(0, Pattern(512, 1)).ok());
  ASSERT_TRUE(disk_.Write(5 * n, Pattern(512, 2)).ok());
  Clock fork_clock;
  SimDisk fork = disk_.Fork(&fork_clock);
  ASSERT_TRUE(disk_.Write(0, Pattern(512, 3)).ok());
  ASSERT_TRUE(fork.Write(1, Pattern(512, 4)).ok());

  std::vector<std::byte> sector(512);
  disk_.PeekMedia(0, sector);
  EXPECT_EQ(sector, Pattern(512, 3));
  disk_.PeekMedia(1, sector);
  EXPECT_EQ(sector, std::vector<std::byte>(512));  // The fork's write stayed on the fork.
  fork.PeekMedia(0, sector);
  EXPECT_EQ(sector, Pattern(512, 1));  // The parent's later write stayed on the parent.
  fork.PeekMedia(1, sector);
  EXPECT_EQ(sector, Pattern(512, 4));
  // Track 5 was written only before the fork: both disks still view the one shared copy.
  EXPECT_EQ(disk_.InternalReadView(5 * n, 1).Sector(0).data(),
            fork.InternalReadView(5 * n, 1).Sector(0).data());
  EXPECT_NE(disk_.InternalReadView(0, 1).Sector(0).data(),
            fork.InternalReadView(0, 1).Sector(0).data());
}

// Media is held per 4 KiB page (8 sectors): a page exists only once written, and every
// unwritten sector views the disk's one shared zero sector.
TEST_F(SimDiskTest, WholePageFirstWriteLeavesNeighbourPagesUnallocated) {
  const uint32_t n = disk_.geometry().sectors_per_track;
  const auto data = Pattern(4096, 1);
  ASSERT_TRUE(disk_.Write(8, data).ok());  // Page 1 of track 0, whole.
  const SimDisk::MediaView track = disk_.InternalReadView(0, n);
  const std::byte* zero = track.Sector(0).data();
  for (uint32_t s = 0; s < n; ++s) {
    if (s >= 8 && s < 16) {
      EXPECT_NE(track.Sector(s).data(), zero) << "sector " << s;
      EXPECT_EQ(track.Sector(s).data(), track.Sector(8).data() + (s - 8) * 512);
    } else {
      EXPECT_EQ(track.Sector(s).data(), zero) << "sector " << s;
    }
  }
  std::vector<std::byte> out(4096);
  disk_.PeekMedia(8, out);
  EXPECT_EQ(out, data);
}

TEST_F(SimDiskTest, PartialFirstWriteZerosTheRestOfItsPage) {
  const auto sector = Pattern(512, 2);
  ASSERT_TRUE(disk_.Write(8 * 3 + 5, sector).ok());  // Sector 5 of page 3.
  auto expected = std::vector<std::byte>(4096);
  std::copy(sector.begin(), sector.end(), expected.begin() + 5 * 512);
  std::vector<std::byte> out(4096, std::byte{0xFF});
  ASSERT_TRUE(disk_.Read(8 * 3, out).ok());
  EXPECT_EQ(out, expected);
  std::fill(out.begin(), out.end(), std::byte{0xFF});
  disk_.PeekMedia(8 * 3, out);
  EXPECT_EQ(out, expected);
}

TEST_F(SimDiskTest, OverwritesOfForkSharedPagesStayOnTheirDisk) {
  const auto before = Pattern(3 * 4096, 1);
  ASSERT_TRUE(disk_.Write(0, before).ok());  // Pages 0-2, shared once forked.
  Clock fork_clock;
  SimDisk fork = disk_.Fork(&fork_clock);
  const auto whole = Pattern(4096, 2);
  const auto partial = Pattern(512, 3);
  ASSERT_TRUE(fork.Write(0, whole).ok());        // Whole-page overwrite: no copy needed.
  ASSERT_TRUE(fork.Write(8 + 2, partial).ok());  // Partial overwrite: the page is copied.
  ASSERT_TRUE(disk_.Write(16, whole).ok());      // And the parent overwrites page 2 whole.

  std::vector<std::byte> out(before.size());
  disk_.PeekMedia(0, out);
  auto expected = before;
  std::copy(whole.begin(), whole.end(), expected.begin() + 2 * 4096);
  EXPECT_EQ(out, expected);  // The fork's overwrites stayed on the fork.
  fork.PeekMedia(0, out);
  expected = before;
  std::copy(whole.begin(), whole.end(), expected.begin());
  std::copy(partial.begin(), partial.end(), expected.begin() + 4096 + 2 * 512);
  EXPECT_EQ(out, expected);  // The copied page kept its other 7 shared sectors.
}

TEST_F(SimDiskTest, TrackViewOverPartlyWrittenPagesShowsWrittenBytesAndZeros) {
  const uint32_t n = disk_.geometry().sectors_per_track;
  const Lba base = 2 * n;
  const auto a = Pattern(512, 4);
  const auto b = Pattern(2 * 512, 5);
  ASSERT_TRUE(disk_.Write(base + 3, a).ok());   // Inside page 0 of the track.
  ASSERT_TRUE(disk_.Write(base + 14, b).ok());  // Across pages 1 and 2.
  std::vector<std::byte> expected(static_cast<size_t>(n) * 512);
  std::copy(a.begin(), a.end(), expected.begin() + 3 * 512);
  std::copy(b.begin(), b.end(), expected.begin() + 14 * 512);
  const SimDisk::MediaView track = disk_.InternalReadView(base, n);
  ASSERT_EQ(track.sectors(), n);
  EXPECT_EQ(ViewBytes(track), expected);
}

TEST(SimDiskForkTest, ForkIsAFreshDiskHoldingTheSameBytes) {
  DiskParams params = Truncated(Hp97560(), 36);
  params.cache.capacity_sectors = 256;
  Clock clock;
  SimDisk disk(params, &clock);
  uint64_t observed = 0;
  disk.set_write_observer([&](Lba, std::span<const std::byte>, bool) { ++observed; });
  // Mid-workload: dirty cache, a filled track buffer, a moved arm, and an armed fault.
  ASSERT_TRUE(disk.Write(1000, Pattern(8 * 512, 1)).ok());
  ASSERT_TRUE(disk.Write(20000, Pattern(4 * 512, 2)).ok());
  std::vector<std::byte> out(8 * 512);
  ASSERT_TRUE(disk.Read(1000, out).ok());
  ASSERT_GT(disk.cache_dirty_sectors(), 0u);
  disk.SetWriteFault(SimDisk::WriteFault{.after_writes = 0});

  Clock fork_clock;
  SimDisk fork = disk.Fork(&fork_clock);
  Clock fresh_clock;
  SimDisk fresh(params, &fresh_clock);
  std::vector<std::byte> media(disk.geometry().CapacityBytes());
  disk.PeekMedia(0, media);
  fresh.PokeMedia(0, media);

  EXPECT_EQ(fork.cache_dirty_sectors(), 0u);
  EXPECT_EQ(fork.stats().read_requests + fork.stats().write_requests, 0u);
  EXPECT_EQ(fork.ArmPosition(), PhysAddr{});
  std::vector<std::byte> fork_out(out.size());
  ASSERT_TRUE(fresh.Read(1000, out).ok());
  ASSERT_TRUE(fork.Read(1000, fork_out).ok());
  EXPECT_EQ(fork_out, out);
  EXPECT_EQ(fork_clock.Now(), fresh_clock.Now());
  EXPECT_EQ(fork.stats().buffer_hits, fresh.stats().buffer_hits);
  // No armed fault and no observer carried over.
  EXPECT_TRUE(fork.Write(3000, Pattern(512, 3)).ok());
  EXPECT_EQ(observed, 2u);
}

TEST(HostModel, ChargesAndAccounts) {
  Clock clock;
  HostModel host(SparcStation10(), &clock);
  host.ChargeSyscall();
  host.ChargeBlocks(2);
  host.ChargeCopy(4096);
  const Duration expected = common::Microseconds(100) + 2 * common::Microseconds(350) +
                            4 * common::Microseconds(12);
  EXPECT_EQ(clock.Now(), expected);
  EXPECT_EQ(host.total_charged(), expected);
}

TEST(HostModel, UltraSparcIsFasterByClockRatio) {
  const HostParams slow = SparcStation10();
  const HostParams fast = UltraSparc170();
  EXPECT_NEAR(static_cast<double>(fast.per_block_fs_cpu) / slow.per_block_fs_cpu, 50.0 / 167.0,
              0.01);
}

TEST(MediaBandwidth, SeagateIsAnOrderFasterThanHp) {
  // §2.1: locating a free sector scales with platter bandwidth; the ST19101 moves ~7x more
  // bytes per second under the head than the HP97560.
  const double hp = Hp97560().MediaBandwidthMbPerS();
  const double st = SeagateSt19101().MediaBandwidthMbPerS();
  EXPECT_GT(st / hp, 5.0);
}

}  // namespace
}  // namespace vlog::simdisk
