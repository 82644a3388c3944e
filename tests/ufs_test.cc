#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/host_model.h"
#include "src/simdisk/sim_disk.h"
#include "src/ufs/ufs.h"

namespace vlog::ufs {
namespace {

std::vector<std::byte> Pattern(size_t n, uint32_t seed) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<uint8_t>(seed * 37 + i));
  }
  return v;
}

class UfsTest : public ::testing::Test {
 protected:
  UfsTest()
      : disk_(simdisk::Truncated(simdisk::SeagateSt19101(), 3), &clock_),
        host_(simdisk::ZeroCostHost(), &clock_),
        ufs_(&disk_, &host_, UfsConfig{.blocks_per_cg = 512}) {
    EXPECT_TRUE(ufs_.Format().ok());
  }

  common::Clock clock_;
  simdisk::SimDisk disk_;
  simdisk::HostModel host_;
  Ufs ufs_;
};

TEST_F(UfsTest, CreateStatRemove) {
  ASSERT_TRUE(ufs_.Create("/hello").ok());
  auto info = ufs_.Stat("/hello");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 0u);
  EXPECT_FALSE(info->is_directory);
  ASSERT_TRUE(ufs_.Remove("/hello").ok());
  EXPECT_FALSE(ufs_.Stat("/hello").ok());
}

TEST_F(UfsTest, CreateDuplicateFails) {
  ASSERT_TRUE(ufs_.Create("/a").ok());
  EXPECT_EQ(ufs_.Create("/a").code(), common::StatusCode::kAlreadyExists);
}

TEST_F(UfsTest, WriteReadRoundTripSmall) {
  ASSERT_TRUE(ufs_.Create("/f").ok());
  const auto data = Pattern(1024, 1);
  ASSERT_TRUE(ufs_.Write("/f", 0, data, fs::WritePolicy::kAsync).ok());
  std::vector<std::byte> out(1024);
  auto n = ufs_.Read("/f", 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1024u);
  EXPECT_EQ(out, data);
  EXPECT_EQ(ufs_.Stat("/f")->size, 1024u);
}

TEST_F(UfsTest, WriteReadRoundTripLargeMultiBlock) {
  ASSERT_TRUE(ufs_.Create("/big").ok());
  const auto data = Pattern(300 * 1024, 2);  // Spans direct + indirect blocks.
  ASSERT_TRUE(ufs_.Write("/big", 0, data, fs::WritePolicy::kAsync).ok());
  ASSERT_TRUE(ufs_.Sync().ok());
  ASSERT_TRUE(ufs_.DropCaches().ok());
  std::vector<std::byte> out(data.size());
  auto n = ufs_.Read("/big", 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
}

TEST_F(UfsTest, TailFragmentGrowthPreservesData) {
  ASSERT_TRUE(ufs_.Create("/grow").ok());
  // Grow a file 1 KB at a time through the fragment sizes and into a full block.
  std::vector<std::byte> all;
  for (uint32_t step = 0; step < 6; ++step) {
    const auto chunk = Pattern(1024, 10 + step);
    ASSERT_TRUE(ufs_.Write("/grow", all.size(), chunk, fs::WritePolicy::kSync).ok());
    all.insert(all.end(), chunk.begin(), chunk.end());
    std::vector<std::byte> out(all.size());
    auto n = ufs_.Read("/grow", 0, out);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(out, all) << "after step " << step;
  }
}

TEST_F(UfsTest, PartialReadAtEof) {
  ASSERT_TRUE(ufs_.Create("/short").ok());
  ASSERT_TRUE(ufs_.Write("/short", 0, Pattern(100, 3), fs::WritePolicy::kAsync).ok());
  std::vector<std::byte> out(1000);
  auto n = ufs_.Read("/short", 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 100u);
  EXPECT_EQ(*ufs_.Read("/short", 100, out), 0u);
}

TEST_F(UfsTest, OverwriteIsInPlace) {
  ASSERT_TRUE(ufs_.Create("/f").ok());
  ASSERT_TRUE(ufs_.Write("/f", 0, Pattern(8192, 1), fs::WritePolicy::kSync).ok());
  const uint64_t free_before = ufs_.FreeFragCount();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ufs_.Write("/f", 4096, Pattern(4096, i), fs::WritePolicy::kSync).ok());
  }
  EXPECT_EQ(ufs_.FreeFragCount(), free_before) << "update-in-place must not allocate";
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(ufs_.Read("/f", 4096, out).ok());
  EXPECT_EQ(out, Pattern(4096, 9));
}

TEST_F(UfsTest, DirectoriesNestAndList) {
  ASSERT_TRUE(ufs_.Mkdir("/dir").ok());
  ASSERT_TRUE(ufs_.Mkdir("/dir/sub").ok());
  ASSERT_TRUE(ufs_.Create("/dir/sub/file").ok());
  ASSERT_TRUE(ufs_.Write("/dir/sub/file", 0, Pattern(2048, 4), fs::WritePolicy::kAsync).ok());
  auto names = ufs_.List("/dir");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "sub");
  EXPECT_TRUE(ufs_.Stat("/dir/sub")->is_directory);
  EXPECT_EQ(ufs_.Remove("/dir").code(), common::StatusCode::kFailedPrecondition);
}

TEST_F(UfsTest, ManySmallFilesSurviveRemount) {
  for (int i = 0; i < 200; ++i) {
    const std::string path = "/file" + std::to_string(i);
    ASSERT_TRUE(ufs_.Create(path).ok());
    ASSERT_TRUE(ufs_.Write(path, 0, Pattern(1024, i), fs::WritePolicy::kAsync).ok());
  }
  ASSERT_TRUE(ufs_.Sync().ok());
  // Remount from disk.
  Ufs again(&disk_, &host_, UfsConfig{.blocks_per_cg = 512});
  ASSERT_TRUE(again.Mount().ok());
  auto names = again.List("/");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 200u);
  std::vector<std::byte> out(1024);
  for (int i = 0; i < 200; i += 17) {
    ASSERT_TRUE(again.Read("/file" + std::to_string(i), 0, out).ok());
    EXPECT_EQ(out, Pattern(1024, i)) << i;
  }
}

TEST_F(UfsTest, RemoveFreesSpace) {
  const uint64_t free0 = ufs_.FreeFragCount();
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/t" + std::to_string(i);
    ASSERT_TRUE(ufs_.Create(path).ok());
    ASSERT_TRUE(ufs_.Write(path, 0, Pattern(20000, i), fs::WritePolicy::kAsync).ok());
  }
  EXPECT_LT(ufs_.FreeFragCount(), free0);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ufs_.Remove("/t" + std::to_string(i)).ok());
  }
  // The directory may have grown; everything else must be back.
  EXPECT_GE(ufs_.FreeFragCount() + 8, free0);
}

TEST_F(UfsTest, SyncWritePersistsImmediately) {
  ASSERT_TRUE(ufs_.Create("/s").ok());
  const auto data = Pattern(4096, 5);
  ASSERT_TRUE(ufs_.Write("/s", 0, data, fs::WritePolicy::kSync).ok());
  EXPECT_GE(ufs_.stats().sync_data_writes, 1u);
  // A brand-new UFS over the same media must see the data without any Sync() call.
  Ufs again(&disk_, &host_, UfsConfig{.blocks_per_cg = 512});
  ASSERT_TRUE(again.Mount().ok());
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(again.Read("/s", 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(UfsTest, AsyncWriteStaysInCacheUntilSync) {
  ASSERT_TRUE(ufs_.Create("/a").ok());
  const uint64_t disk_writes = disk_.stats().write_requests;
  ASSERT_TRUE(ufs_.Write("/a", 0, Pattern(4096, 6), fs::WritePolicy::kAsync).ok());
  EXPECT_EQ(disk_.stats().write_requests, disk_writes) << "async data must not hit the disk";
  ASSERT_TRUE(ufs_.Sync().ok());
  EXPECT_GT(disk_.stats().write_requests, disk_writes);
}

TEST_F(UfsTest, SequentialReadTriggersPrefetch) {
  ASSERT_TRUE(ufs_.Create("/seq").ok());
  ASSERT_TRUE(ufs_.Write("/seq", 0, Pattern(64 * 4096, 7), fs::WritePolicy::kAsync).ok());
  ASSERT_TRUE(ufs_.DropCaches().ok());
  std::vector<std::byte> out(4096);
  for (int b = 0; b < 16; ++b) {
    ASSERT_TRUE(ufs_.Read("/seq", b * 4096, out).ok());
  }
  EXPECT_GT(ufs_.stats().prefetch_reads, 0u);
}

TEST_F(UfsTest, MinfreeReserveEnforced) {
  ASSERT_TRUE(ufs_.Create("/fill").ok());
  const auto chunk = Pattern(256 * 1024, 8);
  uint64_t offset = 0;
  common::Status status = common::OkStatus();
  while (status.ok()) {
    status = ufs_.Write("/fill", offset, chunk, fs::WritePolicy::kAsync);
    offset += chunk.size();
    ASSERT_LT(offset, 64ull << 20) << "filling should stop well before 64 MB";
  }
  EXPECT_EQ(status.code(), common::StatusCode::kOutOfSpace);
  EXPECT_GT(ufs_.Utilization(), 0.80);
  EXPECT_LT(ufs_.Utilization(), 0.95) << "minfree reserve must hold space back";
}

TEST_F(UfsTest, UtilizationTracksData) {
  EXPECT_LT(ufs_.Utilization(), 0.02);
  ASSERT_TRUE(ufs_.Create("/u").ok());
  ASSERT_TRUE(ufs_.Write("/u", 0, Pattern(2 << 20, 9), fs::WritePolicy::kAsync).ok());
  EXPECT_GT(ufs_.Utilization(), 0.15);  // 2 MB of the ~4 MB data area.
}

// The headline integration check: the same UFS code runs on a VLD and gets identical
// functional behaviour (Figure 5's architecture).
// Directory lookups compare names in place instead of decoding each slot. They must stop at
// exactly the slot a decode-and-compare scan stops at: for a prefix or an extension of a stored
// name, a name of kMaxNameLen bytes, a free slot that still holds a name, and names no entry
// can hold (too long, or holding a NUL).
TEST(DirEntryTest, FindStopsWhereADecodingScanStops) {
  std::vector<std::byte> block(kBlockBytes);
  const std::string longest(kMaxNameLen, 'z');
  const std::vector<DirEntry> slots = {{100, "ab"},  {101, "a"},        {102, "abc"},
                                       {103, longest}, {kNoInode, "gone"}, {105, "b"}};
  for (uint32_t e = 0; e < slots.size(); ++e) {
    slots[e].EncodeTo(std::span<std::byte>(block).subspan(e * kDirEntryBytes));
  }
  const auto decoding_scan = [&](const std::string& name) -> std::optional<uint32_t> {
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      const DirEntry entry =
          DirEntry::Decode(std::span<const std::byte>(block).subspan(e * kDirEntryBytes));
      if (entry.ino != kNoInode && entry.name == name) {
        return e;
      }
    }
    return std::nullopt;
  };
  const std::vector<std::string> names = {
      "a",  "ab", "abc", "abcd", "b", "gone", "", longest, longest.substr(1), longest + "z",
      std::string("a\0", 2), std::string("ab\0c", 4)};
  for (const std::string& name : names) {
    const auto slot = DirEntry::Find(block, name);
    const auto expected = decoding_scan(name);
    ASSERT_EQ(slot.has_value(), expected.has_value()) << "name size " << name.size();
    if (slot) {
      EXPECT_EQ(slot->index, *expected) << name;
      EXPECT_EQ(slot->ino, slots[*expected].ino) << name;
    }
  }
  EXPECT_EQ(DirEntry::FindFree(block), 4u);
}

TEST(UfsOnVld, FunctionalParityWithRegularDisk) {
  common::Clock clock;
  simdisk::SimDisk raw(simdisk::Truncated(simdisk::SeagateSt19101(), 3), &clock);
  core::Vld vld(&raw);
  ASSERT_TRUE(vld.Format().ok());
  simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
  Ufs ufs(&vld, &host, UfsConfig{.blocks_per_cg = 512});
  ASSERT_TRUE(ufs.Format().ok());

  common::Rng rng(11);
  std::vector<std::pair<std::string, std::vector<std::byte>>> files;
  for (int i = 0; i < 60; ++i) {
    const std::string path = "/f" + std::to_string(i);
    ASSERT_TRUE(ufs.Create(path).ok());
    auto data = Pattern(1 + rng.Below(30000), i);
    ASSERT_TRUE(ufs.Write(path, 0, data, i % 2 == 0 ? fs::WritePolicy::kSync
                                                    : fs::WritePolicy::kAsync).ok());
    files.emplace_back(path, std::move(data));
  }
  ASSERT_TRUE(ufs.Sync().ok());
  ASSERT_TRUE(ufs.DropCaches().ok());
  for (const auto& [path, data] : files) {
    std::vector<std::byte> out(data.size());
    auto n = ufs.Read(path, 0, out);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, data.size());
    ASSERT_EQ(out, data) << path;
  }
}

// Synchronous random updates on the VLD must beat the regular disk by a wide margin — the
// paper's core claim, checked here as a coarse integration property.
TEST(UfsOnVld, SyncUpdatesMuchFasterThanRegularDisk) {
  auto run = [](bool use_vld) {
    common::Clock clock;
    simdisk::SimDisk raw(simdisk::Truncated(simdisk::SeagateSt19101(), 3), &clock);
    std::unique_ptr<core::Vld> vld;
    simdisk::BlockDevice* dev = &raw;
    if (use_vld) {
      vld = std::make_unique<core::Vld>(&raw);
      EXPECT_TRUE(vld->Format().ok());
      dev = vld.get();
    }
    simdisk::HostModel host(simdisk::ZeroCostHost(), &clock);
    Ufs ufs(dev, &host, UfsConfig{.blocks_per_cg = 512});
    EXPECT_TRUE(ufs.Format().ok());
    EXPECT_TRUE(ufs.Create("/data").ok());
    std::vector<std::byte> block(4096);
    for (uint64_t b = 0; b < 512; ++b) {  // 2 MB file.
      EXPECT_TRUE(ufs.Write("/data", b * 4096, block, fs::WritePolicy::kAsync).ok());
    }
    EXPECT_TRUE(ufs.Sync().ok());
    common::Rng rng(77);
    const common::Time start = clock.Now();
    for (int i = 0; i < 200; ++i) {
      const uint64_t b = rng.Below(512);
      EXPECT_TRUE(ufs.Write("/data", b * 4096, block, fs::WritePolicy::kSync).ok());
    }
    return clock.Now() - start;
  };
  const common::Duration regular = run(false);
  const common::Duration vld = run(true);
  EXPECT_GT(static_cast<double>(regular) / static_cast<double>(vld), 3.0)
      << "regular " << common::ToMilliseconds(regular) / 200 << " ms vs VLD "
      << common::ToMilliseconds(vld) / 200 << " ms per update";
}

}  // namespace
}  // namespace vlog::ufs
