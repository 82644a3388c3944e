// A write-ahead-log-free transactional record store on the VLD.
//
// The paper's motivation (§1): databases and persistent stores pay dearly for small
// synchronous writes, and bolt on write-ahead logs or NVRAM to cope. With a VLD, a multi-block
// commit is a single atomic operation — this example builds a tiny bank-ledger store whose
// transfers update two account pages atomically, then injects a power cut mid-commit and shows
// that recovery never observes a half-applied transfer.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/core/vld.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"

using namespace vlog;

namespace {

constexpr uint32_t kAccounts = 64;
constexpr uint64_t kInitialBalance = 1000;

// One account per 4 KB page: balance plus a version counter.
std::vector<std::byte> AccountPage(uint64_t balance, uint64_t version) {
  std::vector<std::byte> page(4096);
  common::StoreLe<uint64_t>(page, 0, balance);
  common::StoreLe<uint64_t>(page, 8, version);
  return page;
}

uint64_t BalanceOf(const std::vector<std::byte>& page) {
  return common::LoadLe<uint64_t>(page, 0);
}

simdisk::Lba PageLba(uint32_t account) { return static_cast<simdisk::Lba>(account) * 8; }

}  // namespace

int main() {
  common::Clock clock;
  simdisk::SimDisk raw(simdisk::Truncated(simdisk::SeagateSt19101(), 4), &clock);
  auto vld = std::make_unique<core::Vld>(&raw);
  if (!vld->Format().ok()) {
    return 1;
  }

  // Initialize the ledger.
  for (uint32_t a = 0; a < kAccounts; ++a) {
    if (!vld->Write(PageLba(a), AccountPage(kInitialBalance, 0)).ok()) {
      return 1;
    }
  }
  std::printf("ledger initialized: %u accounts x %llu\n", kAccounts,
              static_cast<unsigned long long>(kInitialBalance));

  // Run transfers; each is one atomic two-page commit. Inject a power cut at a random point of
  // a random transfer and verify the invariant (total balance) after recovery — repeatedly.
  common::Rng rng(2026);
  int crashes_survived = 0;
  for (int round = 0; round < 20; ++round) {
    for (int t = 0; t < 25; ++t) {
      const uint32_t from = static_cast<uint32_t>(rng.Below(kAccounts));
      uint32_t to = static_cast<uint32_t>(rng.Below(kAccounts));
      if (to == from) {
        to = (to + 1) % kAccounts;
      }
      std::vector<std::byte> from_page(4096), to_page(4096);
      if (!vld->Read(PageLba(from), from_page).ok() || !vld->Read(PageLba(to), to_page).ok()) {
        return 1;
      }
      const uint64_t amount = 1 + rng.Below(100);
      if (BalanceOf(from_page) < amount) {
        continue;
      }
      const auto new_from = AccountPage(BalanceOf(from_page) - amount, round * 100 + t);
      const auto new_to = AccountPage(BalanceOf(to_page) + amount, round * 100 + t);
      std::vector<core::Vld::AtomicWrite> txn;
      txn.push_back({PageLba(from), new_from});
      txn.push_back({PageLba(to), new_to});

      const bool inject = t == 24;  // Crash during the last transfer of each round.
      if (inject) {
        // Die 0-3 writes into the commit (a fail-stop power cut).
        raw.SetWriteFault(simdisk::SimDisk::WriteFault{.after_writes = rng.Below(4)});
      }
      const auto status = vld->WriteAtomic(txn);
      if (inject) {
        raw.SetWriteFault(std::nullopt);
        // Reboot and recover from whatever reached the media.
        vld = std::make_unique<core::Vld>(&raw);
        if (!vld->Recover().ok()) {
          std::fprintf(stderr, "recovery failed!\n");
          return 1;
        }
        uint64_t total = 0;
        std::vector<std::byte> page(4096);
        for (uint32_t a = 0; a < kAccounts; ++a) {
          if (!vld->Read(PageLba(a), page).ok()) {
            return 1;
          }
          total += BalanceOf(page);
        }
        if (total != kAccounts * kInitialBalance) {
          std::fprintf(stderr, "INVARIANT BROKEN after crash: total=%llu\n",
                       static_cast<unsigned long long>(total));
          return 1;
        }
        ++crashes_survived;
      } else if (!status.ok()) {
        std::fprintf(stderr, "transfer failed: %s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  std::printf("500 atomic transfers executed; %d injected power cuts; ledger invariant held "
              "every time\n", crashes_survived);
  std::printf("no write-ahead log, no NVRAM — the virtual log *is* the commit mechanism\n");
  return 0;
}
