// Parameterized conformance suite: one behavioural contract, five storage stacks.
//
// Every fs::FileSystem implementation — UFS and LFS on both the regular disk and the VLD
// (Figure 5's four configurations) plus VLFS — must satisfy the same functional contract.
// This is the guarantee behind the paper's headline deployment story: the VLD changes the
// performance of an unmodified file system, never its semantics.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/crashsim/crash_point.h"
#include "src/crashsim/write_trace.h"
#include "src/lfs/log_disk.h"
#include "src/lfs/simple_fs.h"
#include "src/nvm/nvm_stage.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/host_model.h"
#include "src/simdisk/nvm_device.h"
#include "src/simdisk/sim_disk.h"
#include "src/ufs/ufs.h"
#include "src/vlfs/vlfs.h"
#include "src/workload/platform.h"

namespace vlog {
namespace {

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 131 + i * 17));
  }
  return v;
}

// The staged rows mount the same file systems over an NVM staging tier fronting the VLD: the
// stage absorbs small sync writes at NVM latency and destages them later, so an acknowledged
// (and even a Sync'd) write may exist ONLY in the NVM log — a persistence domain, not a
// volatile cache. The conformance contract must be oblivious to that difference. The VLFS has
// no separate staged row: it mounts directly on the disk geometry and is itself the
// file-level virtual log, so its own commit path already provides what the stage adds to
// UFS/LFS — its rows below are the VLFS entry of the staged matrix.
enum class Stack { kUfsRegular, kUfsVld, kLfsRegular, kLfsVld, kVlfs, kUfsVldStaged,
                   kLfsVldStaged };

const char* StackName(Stack stack) {
  switch (stack) {
    case Stack::kUfsRegular:
      return "UfsRegular";
    case Stack::kUfsVld:
      return "UfsVld";
    case Stack::kLfsRegular:
      return "LfsRegular";
    case Stack::kLfsVld:
      return "LfsVld";
    case Stack::kVlfs:
      return "Vlfs";
    case Stack::kUfsVldStaged:
      return "UfsVldStaged";
    case Stack::kLfsVldStaged:
      return "LfsVldStaged";
  }
  return "?";
}

// Owns whichever stack the parameter selects and exposes it as fs::FileSystem.
// `cache_sectors` > 0 puts a volatile write-back cache under the whole stack.
class StackHarness {
 public:
  explicit StackHarness(Stack stack, uint64_t cache_sectors = 0) {
    if (stack == Stack::kVlfs) {
      simdisk::DiskParams params = simdisk::Truncated(simdisk::SeagateSt19101(), 6);
      params.cache.capacity_sectors = cache_sectors;
      disk_ = std::make_unique<simdisk::SimDisk>(params, &clock_);
      host_ = std::make_unique<simdisk::HostModel>(simdisk::ZeroCostHost(), &clock_);
      vlfs_ = std::make_unique<vlfs::Vlfs>(disk_.get(), host_.get());
      EXPECT_TRUE(vlfs_->Format().ok());
      fs_ = vlfs_.get();
      raw_ = disk_.get();
      return;
    }
    if (stack == Stack::kUfsVldStaged || stack == Stack::kLfsVldStaged) {
      simdisk::DiskParams params = simdisk::Truncated(simdisk::SeagateSt19101(), 6);
      params.cache.capacity_sectors = cache_sectors;
      disk_ = std::make_unique<simdisk::SimDisk>(params, &clock_);
      host_ = std::make_unique<simdisk::HostModel>(simdisk::ZeroCostHost(), &clock_);
      vld_ = std::make_unique<core::Vld>(disk_.get(), core::VldConfig{});
      EXPECT_TRUE(vld_->Format().ok());
      nvm_ = std::make_unique<simdisk::NvmDevice>(simdisk::NvmDeviceParams{}, &clock_);
      stage_ = std::make_unique<core::NvmStage>(nvm_.get(), vld_.get());
      EXPECT_TRUE(stage_->Format().ok());
      if (stack == Stack::kUfsVldStaged) {
        ufs_ = std::make_unique<ufs::Ufs>(stage_.get(), host_.get());
        EXPECT_TRUE(ufs_->Format().ok());
        fs_ = ufs_.get();
      } else {
        lld_ = std::make_unique<lfs::LogStructuredDisk>(stage_.get());
        EXPECT_TRUE(lld_->Format().ok());
        simple_fs_ = std::make_unique<lfs::SimpleFs>(lld_.get(), host_.get());
        EXPECT_TRUE(simple_fs_->Format().ok());
        fs_ = simple_fs_.get();
      }
      raw_ = disk_.get();
      return;
    }
    workload::PlatformConfig config;
    config.host_kind = workload::HostKind::kZeroCost;
    config.cylinders = 6;
    config.cache.capacity_sectors = cache_sectors;
    config.fs_kind = (stack == Stack::kUfsRegular || stack == Stack::kUfsVld)
                         ? workload::FsKind::kUfs
                         : workload::FsKind::kLfs;
    config.disk_kind = (stack == Stack::kUfsVld || stack == Stack::kLfsVld)
                           ? workload::DiskKind::kVld
                           : workload::DiskKind::kRegular;
    platform_ = std::make_unique<workload::Platform>(config);
    EXPECT_TRUE(platform_->Format().ok());
    fs_ = &platform_->fs();
    raw_ = &platform_->raw_disk();
  }

  fs::FileSystem& fs() { return *fs_; }
  simdisk::SimDisk& raw_disk() { return *raw_; }
  // Non-null only for the staged rows.
  core::NvmStage* stage() { return stage_.get(); }

 private:
  common::Clock clock_;
  std::unique_ptr<simdisk::SimDisk> disk_;
  std::unique_ptr<simdisk::HostModel> host_;
  std::unique_ptr<vlfs::Vlfs> vlfs_;
  std::unique_ptr<core::Vld> vld_;
  std::unique_ptr<simdisk::NvmDevice> nvm_;
  std::unique_ptr<core::NvmStage> stage_;
  std::unique_ptr<ufs::Ufs> ufs_;
  std::unique_ptr<lfs::LogStructuredDisk> lld_;
  std::unique_ptr<lfs::SimpleFs> simple_fs_;
  std::unique_ptr<workload::Platform> platform_;
  fs::FileSystem* fs_ = nullptr;
  simdisk::SimDisk* raw_ = nullptr;
};

class FsConformanceTest : public ::testing::TestWithParam<Stack> {
 protected:
  FsConformanceTest() : harness_(GetParam()) {}
  fs::FileSystem& fs() { return harness_.fs(); }
  StackHarness harness_;
};

TEST_P(FsConformanceTest, CreateStatRemoveLifecycle) {
  ASSERT_TRUE(fs().Create("/f").ok());
  auto info = fs().Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 0u);
  EXPECT_FALSE(info->is_directory);
  ASSERT_TRUE(fs().Remove("/f").ok());
  EXPECT_EQ(fs().Stat("/f").status().code(), common::StatusCode::kNotFound);
  EXPECT_EQ(fs().Remove("/f").code(), common::StatusCode::kNotFound);
}

TEST_P(FsConformanceTest, DuplicateCreateRejected) {
  ASSERT_TRUE(fs().Create("/dup").ok());
  EXPECT_EQ(fs().Create("/dup").code(), common::StatusCode::kAlreadyExists);
}

TEST_P(FsConformanceTest, RelativePathsRejected) {
  EXPECT_EQ(fs().Create("nope").code(), common::StatusCode::kInvalidArgument);
}

// A name holding a NUL byte is rejected on every path. Directory entries store every byte of a
// name but read it back only up to the first NUL, so such a file could be created and never
// found again, and a second Create would add a duplicate entry.
TEST_P(FsConformanceTest, NameWithNulByteRejected) {
  const std::string nul_name("/a\0b", 4);
  EXPECT_EQ(fs().Create(nul_name).code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(fs().Mkdir(nul_name).code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(fs().Stat(nul_name).status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(fs().Remove(nul_name).code(), common::StatusCode::kInvalidArgument);
  // Nothing was created under the name's NUL-free prefix.
  EXPECT_EQ(fs().Stat("/a").status().code(), common::StatusCode::kNotFound);
  ASSERT_TRUE(fs().Mkdir("/a").ok());
  EXPECT_EQ(fs().Create(std::string("/a/\0", 4)).code(), common::StatusCode::kInvalidArgument);
  auto names = fs().List("/a");
  ASSERT_TRUE(names.ok());
  EXPECT_TRUE(names->empty());
}

TEST_P(FsConformanceTest, WriteReadByteExact) {
  ASSERT_TRUE(fs().Create("/f").ok());
  for (const size_t size : {1ul, 511ul, 512ul, 4095ul, 4096ul, 4097ul, 70000ul}) {
    const auto data = Pattern(size, static_cast<uint32_t>(size));
    ASSERT_TRUE(fs().Write("/f", 0, data, fs::WritePolicy::kSync).ok()) << size;
    std::vector<std::byte> out(size);
    auto n = fs().Read("/f", 0, out);
    ASSERT_TRUE(n.ok()) << size;
    ASSERT_EQ(*n, size);
    ASSERT_EQ(out, data) << size;
  }
}

TEST_P(FsConformanceTest, UnalignedOverwriteInMiddle) {
  ASSERT_TRUE(fs().Create("/f").ok());
  auto base = Pattern(20000, 1);
  ASSERT_TRUE(fs().Write("/f", 0, base, fs::WritePolicy::kAsync).ok());
  const auto patch = Pattern(3333, 2);
  ASSERT_TRUE(fs().Write("/f", 7777, patch, fs::WritePolicy::kSync).ok());
  std::memcpy(base.data() + 7777, patch.data(), patch.size());
  std::vector<std::byte> out(base.size());
  ASSERT_TRUE(fs().Read("/f", 0, out).ok());
  EXPECT_EQ(out, base);
}

TEST_P(FsConformanceTest, ReadBeyondEofIsShortOrZero) {
  ASSERT_TRUE(fs().Create("/f").ok());
  ASSERT_TRUE(fs().Write("/f", 0, Pattern(100, 3), fs::WritePolicy::kAsync).ok());
  std::vector<std::byte> out(500);
  auto n = fs().Read("/f", 60, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 40u);
  EXPECT_EQ(*fs().Read("/f", 100, out), 0u);
  EXPECT_EQ(*fs().Read("/f", 5000, out), 0u);
}

TEST_P(FsConformanceTest, AppendGrowsFile) {
  ASSERT_TRUE(fs().Create("/log").ok());
  std::vector<std::byte> all;
  for (int i = 0; i < 24; ++i) {
    const auto chunk = Pattern(1000 + i * 37, i);
    ASSERT_TRUE(fs().Write("/log", all.size(), chunk, fs::WritePolicy::kAsync).ok()) << i;
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(fs().Stat("/log")->size, all.size());
  std::vector<std::byte> out(all.size());
  ASSERT_TRUE(fs().Read("/log", 0, out).ok());
  EXPECT_EQ(out, all);
}

TEST_P(FsConformanceTest, DirectoryTreeOperations) {
  ASSERT_TRUE(fs().Mkdir("/a").ok());
  ASSERT_TRUE(fs().Mkdir("/a/b").ok());
  ASSERT_TRUE(fs().Create("/a/b/c").ok());
  ASSERT_TRUE(fs().Write("/a/b/c", 0, Pattern(5000, 4), fs::WritePolicy::kAsync).ok());
  EXPECT_TRUE(fs().Stat("/a")->is_directory);
  EXPECT_TRUE(fs().Stat("/a/b")->is_directory);
  auto names = fs().List("/a/b");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "c");
  EXPECT_EQ(fs().Remove("/a").code(), common::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fs().Remove("/a/b/c").ok());
  ASSERT_TRUE(fs().Remove("/a/b").ok());
  ASSERT_TRUE(fs().Remove("/a").ok());
}

TEST_P(FsConformanceTest, DataSurvivesSyncAndCacheDrop) {
  ASSERT_TRUE(fs().Create("/durable").ok());
  const auto data = Pattern(123456, 5);
  ASSERT_TRUE(fs().Write("/durable", 0, data, fs::WritePolicy::kAsync).ok());
  ASSERT_TRUE(fs().Sync().ok());
  ASSERT_TRUE(fs().DropCaches().ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(fs().Read("/durable", 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_P(FsConformanceTest, ManyFilesChurn) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) + 99);
  std::vector<std::pair<std::string, std::vector<std::byte>>> live;
  for (int op = 0; op < 300; ++op) {
    if (live.size() < 40 || rng.Chance(0.6)) {
      const std::string path = "/churn" + std::to_string(op);
      ASSERT_TRUE(fs().Create(path).ok()) << op;
      auto data = Pattern(1 + rng.Below(9000), op);
      ASSERT_TRUE(fs().Write(path, 0, data, fs::WritePolicy::kAsync).ok()) << op;
      live.emplace_back(path, std::move(data));
    } else {
      const size_t victim = rng.Below(live.size());
      ASSERT_TRUE(fs().Remove(live[victim].first).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
  }
  ASSERT_TRUE(fs().DropCaches().ok());
  for (const auto& [path, data] : live) {
    std::vector<std::byte> out(data.size());
    auto n = fs().Read(path, 0, out);
    ASSERT_TRUE(n.ok()) << path;
    ASSERT_EQ(*n, data.size()) << path;
    ASSERT_EQ(out, data) << path;
  }
}

TEST_P(FsConformanceTest, SyncWritesInterleavedWithReads) {
  ASSERT_TRUE(fs().Create("/mix").ok());
  std::vector<std::byte> shadow(64 * 1024, std::byte{0});
  ASSERT_TRUE(fs().Write("/mix", 0, shadow, fs::WritePolicy::kSync).ok());
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  for (int i = 0; i < 120; ++i) {
    const uint64_t off = rng.Below(shadow.size() - 4096);
    const auto data = Pattern(4096, i);
    ASSERT_TRUE(fs().Write("/mix", off, data, fs::WritePolicy::kSync).ok());
    std::memcpy(shadow.data() + off, data.data(), data.size());
    const uint64_t roff = rng.Below(shadow.size() - 512);
    std::vector<std::byte> out(512);
    ASSERT_TRUE(fs().Read("/mix", roff, out).ok());
    ASSERT_TRUE(std::equal(out.begin(), out.end(), shadow.begin() + roff)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStacks, FsConformanceTest,
                         ::testing::Values(Stack::kUfsRegular, Stack::kUfsVld,
                                           Stack::kLfsRegular, Stack::kLfsVld, Stack::kVlfs,
                                           Stack::kUfsVldStaged, Stack::kLfsVldStaged),
                         [](const ::testing::TestParamInfo<Stack>& param_info) {
                           return StackName(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Barrier semantics over a volatile write-back drive cache.
//
// The uniform contract across every stack: a write may be acknowledged while
// its sectors still sit in the drive's volatile cache (acked-before-sync data
// is allowed to be lost by a power cut), but once Sync() returns, no volatile
// sector remains anywhere below the file system — every sync point maps onto
// a device-level flush barrier. VLD-backed stacks and the VLFS are stricter:
// every acknowledged command is already durable.
// ---------------------------------------------------------------------------

constexpr uint64_t kCacheSectors = 4096;  // 2 MB: generous, so no pressure drains.

class CachedFsBarrierTest : public ::testing::TestWithParam<Stack> {
 protected:
  CachedFsBarrierTest() : harness_(GetParam(), kCacheSectors) {}
  fs::FileSystem& fs() { return harness_.fs(); }
  simdisk::SimDisk& disk() { return harness_.raw_disk(); }
  StackHarness harness_;
};

TEST_P(CachedFsBarrierTest, SyncDrainsEveryVolatileSector) {
  ASSERT_TRUE(fs().Create("/durable").ok());
  const auto data = Pattern(100000, 21);
  ASSERT_TRUE(fs().Write("/durable", 0, data, fs::WritePolicy::kAsync).ok());
  const auto patch = Pattern(8192, 22);
  ASSERT_TRUE(fs().Write("/durable", 4096, patch, fs::WritePolicy::kSync).ok());
  ASSERT_TRUE(fs().Sync().ok());
  EXPECT_EQ(disk().cache_dirty_sectors(), 0u)
      << "Sync must leave nothing in the volatile drive cache";
  auto expected = data;
  std::memcpy(expected.data() + 4096, patch.data(), patch.size());
  std::vector<std::byte> out(expected.size());
  ASSERT_TRUE(fs().Read("/durable", 0, out).ok());
  EXPECT_EQ(out, expected);
}

TEST_P(CachedFsBarrierTest, VldBackedAcknowledgementsAreAlreadyDurable) {
  const Stack stack = GetParam();
  if (stack == Stack::kUfsRegular || stack == Stack::kLfsRegular) {
    GTEST_SKIP() << "regular disks promise durability only at Sync";
  }
  ASSERT_TRUE(fs().Create("/acked").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        fs().Write("/acked", i * 8192, Pattern(8192, 30 + i), fs::WritePolicy::kSync).ok());
    EXPECT_EQ(disk().cache_dirty_sectors(), 0u)
        << "an acknowledged VLD-backed sync write must already be on the media (write " << i
        << ")";
  }
}

TEST_P(CachedFsBarrierTest, AckedBeforeSyncMayRemainVolatile) {
  if (GetParam() != Stack::kUfsRegular) {
    GTEST_SKIP() << "only the in-place FFS stack writes through to the cache before Sync";
  }
  ASSERT_TRUE(fs().Create("/limbo").ok());
  ASSERT_TRUE(fs().Write("/limbo", 0, Pattern(8192, 40), fs::WritePolicy::kSync).ok());
  // The write was acknowledged, yet its sectors sit in the volatile cache: this is exactly the
  // window a crash may lose, and why the crash sweeps model destage reordering.
  EXPECT_GT(disk().cache_dirty_sectors(), 0u);
  ASSERT_TRUE(fs().Sync().ok());
  EXPECT_EQ(disk().cache_dirty_sectors(), 0u);
}

// The staged barrier-audit row: Sync's contract is "no volatile copy anywhere", NOT
// "everything on the disk media". The NVM log is a persistence domain, so staged sectors are
// allowed — required, even, for the latency story — to remain only in NVM across Sync. What
// Sync must still do is drain the volatile drive cache under any direct/destage traffic.
TEST_P(CachedFsBarrierTest, StagedSyncMayLeaveDataOnlyInNvm) {
  if (GetParam() != Stack::kUfsVldStaged && GetParam() != Stack::kLfsVldStaged) {
    GTEST_SKIP() << "only the staged rows hold acknowledged data in the NVM tier";
  }
  ASSERT_TRUE(fs().Create("/staged").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        fs().Write("/staged", i * 4096, Pattern(4096, 60 + i), fs::WritePolicy::kSync).ok());
  }
  ASSERT_TRUE(fs().Sync().ok());
  EXPECT_EQ(disk().cache_dirty_sectors(), 0u)
      << "Sync must still drain the volatile drive cache below the stage";
  // The stage was actually exercised, and Sync did NOT force a destage: the NVM log is
  // durable, so eagerly flushing it would only burn the latency win.
  ASSERT_NE(harness_.stage(), nullptr);
  EXPECT_GT(harness_.stage()->stats().staged_writes, 0u);
  // Whatever still lives only in NVM must read back through the stack.
  std::vector<std::byte> out(4096);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fs().Read("/staged", i * 4096, out).ok());
    EXPECT_EQ(out, Pattern(4096, 60 + i)) << "chunk " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStacks, CachedFsBarrierTest,
                         ::testing::Values(Stack::kUfsRegular, Stack::kUfsVld,
                                           Stack::kLfsRegular, Stack::kLfsVld, Stack::kVlfs,
                                           Stack::kUfsVldStaged, Stack::kLfsVldStaged),
                         [](const ::testing::TestParamInfo<Stack>& param_info) {
                           return StackName(param_info.param);
                         });

// Remount-level replay: everything synced before the barrier survives EVERY admissible destage
// subset/ordering of the writes acknowledged after it.
TEST(CachedBarrierRemountTest, UfsSyncedDataSurvivesEveryTailDestageOrdering) {
  simdisk::DiskParams params = simdisk::Truncated(simdisk::SeagateSt19101(), 6);
  params.cache.capacity_sectors = kCacheSectors;
  common::Clock clock;
  simdisk::SimDisk disk(params, &clock);
  simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
  ufs::Ufs fs(&disk, &host);
  ASSERT_TRUE(fs.Format().ok());

  crashsim::WriteTrace trace;
  const simdisk::SimDisk base = disk.Fork(nullptr);
  trace.set_write_back(true);
  disk.set_write_observer([&](simdisk::Lba lba, std::span<const std::byte> data, bool durable) {
    trace.Append(lba, data, durable);
  });
  disk.set_flush_observer([&] { trace.AppendBarrier(); });

  const auto kept = Pattern(3 * 8192, 41);
  ASSERT_TRUE(fs.Create("/kept").ok());
  ASSERT_TRUE(fs.Write("/kept", 0, kept, fs::WritePolicy::kSync).ok());
  ASSERT_TRUE(fs.Sync().ok());
  const uint64_t synced = trace.size();

  // Acknowledged after the barrier: a power cut may persist any subset, in any order.
  ASSERT_TRUE(fs.Create("/lost").ok());
  ASSERT_TRUE(fs.Write("/lost", 0, Pattern(2 * 8192, 42), fs::WritePolicy::kSync).ok());
  disk.set_write_observer(nullptr);
  disk.set_flush_observer(nullptr);
  ASSERT_GT(trace.size(), synced) << "tail traffic is required for this test to bite";
  EXPECT_GT(disk.cache_dirty_sectors(), 0u) << "the tail must still be volatile";

  std::vector<uint64_t> tail;
  for (uint64_t i = synced; i < trace.size(); ++i) {
    tail.push_back(i);
  }
  common::Rng rng(17);
  for (int round = 0; round < 8; ++round) {
    common::Clock clock2;
    simdisk::SimDisk disk2 = base.Fork(&clock2);
    for (uint64_t i = 0; i < synced; ++i) {
      disk2.PokeMedia(trace[i].lba, trace[i].data);
    }
    // A uniform random k-subset of the tail, applied in uniform random order.
    std::vector<uint64_t> pool = tail;
    const uint64_t k = rng.Below(pool.size() + 1);
    for (uint64_t i = 0; i < k; ++i) {
      std::swap(pool[i], pool[i + rng.Below(pool.size() - i)]);
    }
    for (uint64_t i = 0; i < k; ++i) {
      disk2.PokeMedia(trace[pool[i]].lba, trace[pool[i]].data);
    }

    simdisk::HostModel host2(simdisk::ZeroCostHost(), &clock2);
    ufs::Ufs fs2(&disk2, &host2);
    ASSERT_TRUE(fs2.Mount().ok()) << "round " << round;
    std::vector<std::byte> out(kept.size());
    auto n = fs2.Read("/kept", 0, out);
    ASSERT_TRUE(n.ok()) << "round " << round;
    ASSERT_EQ(*n, kept.size()) << "round " << round;
    EXPECT_EQ(out, kept) << "synced file damaged by a tail destage ordering (round " << round
                         << ")";
  }
}

// The VLFS never leaves an acknowledged operation volatile: its commit barriers flush the
// cache, so the last barrier always covers every volatile record — and a remount from the
// synced cut restores exactly the synced namespace.
TEST(CachedBarrierRemountTest, VlfsAcknowledgedOpsSurviveRemountAtSyncBarrier) {
  simdisk::DiskParams params = simdisk::Truncated(simdisk::SeagateSt19101(), 6);
  params.cache.capacity_sectors = kCacheSectors;
  common::Clock clock;
  simdisk::SimDisk disk(params, &clock);
  simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
  vlfs::Vlfs fs(&disk, &host);
  ASSERT_TRUE(fs.Format().ok());

  crashsim::WriteTrace trace;
  const simdisk::SimDisk base = disk.Fork(nullptr);
  trace.set_write_back(true);
  disk.set_write_observer([&](simdisk::Lba lba, std::span<const std::byte> data, bool durable) {
    trace.Append(lba, data, durable);
  });
  disk.set_flush_observer([&] { trace.AppendBarrier(); });

  const auto kept = Pattern(2 * 8192, 51);
  ASSERT_TRUE(fs.Create("/kept").ok());
  ASSERT_TRUE(fs.Write("/kept", 0, kept, fs::WritePolicy::kSync).ok());
  ASSERT_TRUE(fs.Sync().ok());
  const uint64_t synced = trace.size();
  EXPECT_EQ(disk.cache_dirty_sectors(), 0u) << "acknowledged VLFS ops are already durable";

  ASSERT_TRUE(fs.Create("/later").ok());
  ASSERT_TRUE(fs.Write("/later", 0, Pattern(8192, 52), fs::WritePolicy::kSync).ok());
  disk.set_write_observer(nullptr);
  disk.set_flush_observer(nullptr);

  // Barrier discipline: every volatile record lies at or before the last barrier.
  ASSERT_FALSE(trace.barriers().empty());
  for (uint64_t i = trace.barriers().back(); i < trace.size(); ++i) {
    EXPECT_TRUE(trace[i].durable) << "volatile record " << i << " after the last barrier";
  }

  common::Clock clock2;
  simdisk::SimDisk disk2 = base.Fork(&clock2);
  for (uint64_t i = 0; i < synced; ++i) {
    disk2.PokeMedia(trace[i].lba, trace[i].data);
  }
  simdisk::HostModel host2(simdisk::ZeroCostHost(), &clock2);
  vlfs::Vlfs fs2(&disk2, &host2);
  ASSERT_TRUE(fs2.Recover().ok());
  std::vector<std::byte> out(kept.size());
  auto n = fs2.Read("/kept", 0, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, kept.size());
  EXPECT_EQ(out, kept);
  EXPECT_EQ(fs2.Stat("/later").status().code(), common::StatusCode::kNotFound)
      << "/later was created after the crash cut";
}

// The staged row's remount audit: a synced file whose data still lives ONLY in the NVM log
// (never destaged to the disk) must survive a crash that loses the drive cache and the
// stage's DRAM overlay. Recovery replays the NVM log over the recovered VLD; the remounted
// file system reads the staged blocks back through the rebuilt overlay.
TEST(StagedBarrierRemountTest, UfsSyncedDataSurvivesCrashWhenNvmHoldsOnlyCopy) {
  simdisk::DiskParams params = simdisk::Truncated(simdisk::SeagateSt19101(), 6);
  params.cache.capacity_sectors = kCacheSectors;
  common::Clock clock;
  simdisk::SimDisk disk(params, &clock);
  simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
  core::Vld vld(&disk, core::VldConfig{});
  ASSERT_TRUE(vld.Format().ok());
  simdisk::NvmDevice nvm(simdisk::NvmDeviceParams{}, &clock);
  core::NvmStage stage(&nvm, &vld);
  ASSERT_TRUE(stage.Format().ok());
  ufs::Ufs fs(&stage, &host);
  ASSERT_TRUE(fs.Format().ok());
  // Quiesce the format's own staged residue so /kept's blocks are attributable.
  ASSERT_TRUE(stage.Drain().ok());

  const auto kept = Pattern(3 * 4096, 61);
  ASSERT_TRUE(fs.Create("/kept").ok());
  ASSERT_TRUE(fs.Write("/kept", 0, kept, fs::WritePolicy::kSync).ok());
  ASSERT_TRUE(fs.Sync().ok());
  ASSERT_GT(stage.staged_sectors(), 0u)
      << "the test needs the NVM log to hold the only copy of the synced data";
  EXPECT_EQ(disk.cache_dirty_sectors(), 0u);

  // Power cut: the drive cache and the stage's DRAM overlay are lost; the disk media and the
  // NVM log survive.
  common::Clock clock2;
  simdisk::SimDisk disk2 = disk.Fork(&clock2);
  std::vector<std::byte> nvm_image = nvm.Snapshot();
  simdisk::HostModel host2(simdisk::ZeroCostHost(), &clock2);
  core::Vld vld2(&disk2, core::VldConfig{});
  ASSERT_TRUE(vld2.Recover().ok());
  simdisk::NvmDevice nvm2(simdisk::NvmDeviceParams{}, &clock2, std::move(nvm_image));
  core::NvmStage stage2(&nvm2, &vld2);
  auto info = stage2.Recover();
  ASSERT_TRUE(info.ok()) << info.status().message();
  EXPECT_FALSE(info->torn_tail_dropped);
  ASSERT_GT(stage2.staged_sectors(), 0u) << "recovery must rebuild the staged overlay";
  ufs::Ufs fs2(&stage2, &host2);
  ASSERT_TRUE(fs2.Mount().ok());
  std::vector<std::byte> out(kept.size());
  auto n = fs2.Read("/kept", 0, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, kept.size());
  EXPECT_EQ(out, kept) << "synced data lost with the stage's DRAM overlay";
}

}  // namespace
}  // namespace vlog
