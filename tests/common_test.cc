#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"

namespace vlog::common {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = NotFound("missing inode");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing inode");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kIoError); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(InvalidArgument("bad"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

Status Passthrough(Status s) {
  RETURN_IF_ERROR(s);
  return OkStatus();
}

TEST(StatusMacros, ReturnIfError) {
  EXPECT_TRUE(Passthrough(OkStatus()).ok());
  EXPECT_EQ(Passthrough(Corruption("x")).code(), StatusCode::kCorruption);
}

TEST(Clock, StartsAtZeroAndAdvances) {
  Clock clock;
  EXPECT_EQ(clock.Now(), 0);
  clock.Advance(Milliseconds(2));
  EXPECT_EQ(clock.Now(), 2'000'000);
  clock.Advance(-5);  // Negative durations are ignored.
  EXPECT_EQ(clock.Now(), 2'000'000);
  clock.AdvanceTo(1'000'000);  // Never goes backwards.
  EXPECT_EQ(clock.Now(), 2'000'000);
  clock.AdvanceTo(3'000'000);
  EXPECT_EQ(clock.Now(), 3'000'000);
}

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(Milliseconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(14.992)), 14.992);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(100)), 100.0);
}

TEST(Crc32, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283.
  const char* s = "123456789";
  std::vector<std::byte> data;
  for (const char* p = s; *p; ++p) {
    data.push_back(static_cast<std::byte>(*p));
  }
  EXPECT_EQ(Crc32cTable(data), 0xE3069283u);
  // Crc32c runs on the SSE4.2 instruction where the CPU has it, else on the same table.
  EXPECT_EQ(Crc32c(data), 0xE3069283u);
}

// The hardware path must reproduce the table reference exactly: every length 0..4200 (so every
// 0..7-byte tail after the 8-byte steps), at every start offset 0..7, chained from random seeds.
TEST(Crc32, HardwareMatchesTableReference) {
  if (!Crc32cUsesHardware()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU: Crc32c is the table path";
  }
  constexpr size_t kMaxLen = 4200;
  Rng rng(16);
  std::vector<std::byte> buf(kMaxLen + 8);
  for (std::byte& b : buf) {
    b = static_cast<std::byte>(rng.Next());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::byte> data(buf.data() + offset, len);
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32c(data, seed), Crc32cTable(data, seed))
          << "offset " << offset << " length " << len << " seed " << seed;
    }
  }
}

TEST(Crc32, DetectsBitFlip) {
  std::vector<std::byte> data(64, std::byte{0xAB});
  const uint32_t before = Crc32c(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(Crc32c({}), 0u); }

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(1), 0u);
  EXPECT_EQ(rng.Below(0), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Bytes, RoundTripAllWidths) {
  std::vector<std::byte> buf(32);
  StoreLe<uint16_t>(buf, 0, 0xBEEF);
  StoreLe<uint32_t>(buf, 2, 0xDEADBEEF);
  StoreLe<uint64_t>(buf, 6, 0x0123456789ABCDEFull);
  EXPECT_EQ(LoadLe<uint16_t>(buf, 0), 0xBEEF);
  EXPECT_EQ(LoadLe<uint32_t>(buf, 2), 0xDEADBEEFu);
  EXPECT_EQ(LoadLe<uint64_t>(buf, 6), 0x0123456789ABCDEFull);
}

TEST(Bytes, LittleEndianLayout) {
  std::vector<std::byte> buf(4);
  StoreLe<uint32_t>(buf, 0, 0x11223344);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x44);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x11);
}

}  // namespace
}  // namespace vlog::common
