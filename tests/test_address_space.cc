#include "src/softmem/address_space.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace fob {
namespace {

TEST(AddressSpaceTest, UnmappedByDefault) {
  AddressSpace space;
  uint8_t byte = 0;
  EXPECT_FALSE(space.Read(0x100000, &byte, 1));
  EXPECT_FALSE(space.Write(0x100000, &byte, 1));
}

TEST(AddressSpaceTest, MapThenReadWrite) {
  AddressSpace space;
  space.Map(0x100000, 4096);
  uint32_t value = 0xdeadbeef;
  ASSERT_TRUE(space.Write(0x100010, &value, 4));
  uint32_t readback = 0;
  ASSERT_TRUE(space.Read(0x100010, &readback, 4));
  EXPECT_EQ(readback, 0xdeadbeefu);
}

TEST(AddressSpaceTest, FreshPagesAreZero) {
  AddressSpace space;
  space.Map(0x200000, kPageSize);
  uint8_t buf[64];
  std::memset(buf, 0xff, sizeof(buf));
  ASSERT_TRUE(space.Read(0x200000, buf, sizeof(buf)));
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
}

TEST(AddressSpaceTest, NullGuardNeverMaps) {
  AddressSpace space;
  space.Map(0, kNullGuardSize);
  uint8_t byte = 7;
  EXPECT_FALSE(space.Read(0, &byte, 1));
  EXPECT_FALSE(space.Read(kNullGuardSize - 1, &byte, 1));
  EXPECT_FALSE(space.Write(0, &byte, 1));
  EXPECT_FALSE(space.Write(8, &byte, 1));
}

TEST(AddressSpaceTest, CrossPageAccess) {
  AddressSpace space;
  space.Map(0x100000, 2 * kPageSize);
  std::string data(kPageSize, 'x');
  Addr addr = 0x100000 + kPageSize - 100;  // straddles the page boundary
  ASSERT_TRUE(space.Write(addr, data.data(), data.size()));
  std::string readback(kPageSize, '\0');
  ASSERT_TRUE(space.Read(addr, readback.data(), readback.size()));
  EXPECT_EQ(readback, data);
}

TEST(AddressSpaceTest, AccessStraddlingUnmappedPageFails) {
  AddressSpace space;
  space.Map(0x100000, kPageSize);  // only the first page
  std::string data(200, 'y');
  Addr addr = 0x100000 + kPageSize - 100;
  EXPECT_FALSE(space.Write(addr, data.data(), data.size()));
  EXPECT_FALSE(space.Read(addr, data.data(), data.size()));
}

TEST(AddressSpaceTest, FillSetsBytes) {
  AddressSpace space;
  space.Map(0x100000, kPageSize * 2);
  ASSERT_TRUE(space.Fill(0x100000 + kPageSize - 8, 0xab, 16));  // cross-page
  uint8_t buf[16];
  ASSERT_TRUE(space.Read(0x100000 + kPageSize - 8, buf, 16));
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0xab);
  }
}

TEST(AddressSpaceTest, FillUnmappedFails) {
  AddressSpace space;
  EXPECT_FALSE(space.Fill(0x300000, 1, 4));
}

TEST(AddressSpaceTest, ZeroSizeOperations) {
  AddressSpace space;
  space.Map(0x100000, 0);  // no-op
  uint8_t byte = 0;
  EXPECT_FALSE(space.Read(0x100000, &byte, 1));
  space.Map(0x100000, 1);
  EXPECT_TRUE(space.Read(0x100000, &byte, 1));
  EXPECT_TRUE(space.Read(0x100000, &byte, 0));
  EXPECT_TRUE(space.Write(0x100000, &byte, 0));
  // A zero-length access touches no byte, so it succeeds even unmapped.
  EXPECT_TRUE(space.Read(0x900000, &byte, 0));
}

// Map rounds [base, base+size) out to whole pages: the page holding the
// first byte is mapped from its start, the page holding the last byte to its
// end, and nothing on either side.
TEST(AddressSpaceTest, MapRoundsOutToWholePages) {
  AddressSpace space;
  constexpr Addr kBase = 0x100000;
  space.Map(kBase + 100, kPageSize);  // touches pages kBase and kBase + 4 KiB
  uint8_t byte = 0;
  EXPECT_TRUE(space.Read(kBase, &byte, 1));
  EXPECT_TRUE(space.Read(kBase + 2 * kPageSize - 1, &byte, 1));
  EXPECT_FALSE(space.Read(kBase - 1, &byte, 1));
  EXPECT_FALSE(space.Read(kBase + 2 * kPageSize, &byte, 1));
  std::string page(2 * kPageSize, 'p');
  EXPECT_TRUE(space.Write(kBase, page.data(), page.size()));
}

// Two regions with a gap between them: the gap stays unmapped, and an
// access that starts in one region never runs on into the next.
TEST(AddressSpaceTest, GapBetweenRegionsStaysUnmapped) {
  AddressSpace space;
  constexpr Addr kLow = 0x100000;
  constexpr Addr kHigh = 0x100000 + 4 * kPageSize;
  space.Map(kLow, kPageSize);
  space.Map(kHigh, kPageSize);
  uint8_t byte = 1;
  for (Addr gap = kLow + kPageSize; gap < kHigh; gap += kPageSize / 2) {
    EXPECT_FALSE(space.Write(gap, &byte, 1)) << std::hex << gap;
    EXPECT_FALSE(space.Read(gap, &byte, 1)) << std::hex << gap;
  }
  EXPECT_FALSE(space.Read(kHigh - 1, &byte, 1));
  EXPECT_TRUE(space.Read(kHigh, &byte, 1));
  EXPECT_TRUE(space.Read(kLow + kPageSize - 1, &byte, 1));
  std::string across(3 * kPageSize + 2, 'g');
  EXPECT_FALSE(space.Write(kLow + kPageSize - 1, across.data(), across.size()));
  // Only the low region's last byte was written; the high region is fresh.
  ASSERT_TRUE(space.Read(kHigh, &byte, 1));
  EXPECT_EQ(byte, 0);
}

// A write that runs past a region's end writes the mapped prefix, reports
// the fault, and leaves the prefix for later reads to see.
TEST(AddressSpaceTest, WriteStraddlingRegionEndKeepsPrefix) {
  AddressSpace space;
  constexpr Addr kBase = 0x100000;
  space.Map(kBase, 2 * kPageSize);
  const Addr end = kBase + 2 * kPageSize;
  std::string data = "0123456789";
  EXPECT_FALSE(space.Write(end - 6, data.data(), data.size()));
  std::string prefix(6, '\0');
  ASSERT_TRUE(space.Read(end - 6, prefix.data(), prefix.size()));
  EXPECT_EQ(prefix, "012345");
  // A straddling read copies the same mapped prefix and fails as well.
  std::string out(10, '.');
  EXPECT_FALSE(space.Read(end - 6, out.data(), out.size()));
  EXPECT_EQ(out, "012345....");
  EXPECT_FALSE(space.Fill(end - 2, 0xee, 4));
  ASSERT_TRUE(space.Read(end - 6, prefix.data(), prefix.size()));
  EXPECT_EQ(prefix, "0123\xee\xee");
}

}  // namespace
}  // namespace fob
