#include "src/softmem/address_space.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace fob {
namespace {

TEST(AddressSpaceTest, UnmappedByDefault) {
  AddressSpace space;
  EXPECT_FALSE(space.IsMapped(0x100000, 1));
  uint8_t byte = 0;
  EXPECT_FALSE(space.Read(0x100000, &byte, 1));
  EXPECT_FALSE(space.Write(0x100000, &byte, 1));
}

TEST(AddressSpaceTest, MapThenReadWrite) {
  AddressSpace space;
  space.Map(0x100000, 4096);
  EXPECT_TRUE(space.IsMapped(0x100000, 4096));
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
  EXPECT_FALSE(space.IsMapped(0, 1));
  EXPECT_FALSE(space.IsMapped(kNullGuardSize - 1, 1));
  uint8_t byte = 7;
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
  EXPECT_FALSE(space.IsMapped(addr, 200));
}

TEST(AddressSpaceTest, MapIsIdempotentAndPreservesContents) {
  AddressSpace space;
  space.Map(0x100000, kPageSize);
  uint8_t v = 42;
  ASSERT_TRUE(space.Write(0x100123, &v, 1));
  space.Map(0x100000, kPageSize);  // remap
  uint8_t readback = 0;
  ASSERT_TRUE(space.Read(0x100123, &readback, 1));
  EXPECT_EQ(readback, 42);
}

TEST(AddressSpaceTest, UnmapRemovesWholePagesOnly) {
  AddressSpace space;
  space.Map(0x100000, 3 * kPageSize);
  // Partial-page unmap range: only the fully covered middle page goes away.
  space.Unmap(0x100000 + 100, 2 * kPageSize);
  EXPECT_TRUE(space.IsMapped(0x100000, 1));
  EXPECT_FALSE(space.IsMapped(0x100000 + kPageSize, 1));
  EXPECT_TRUE(space.IsMapped(0x100000 + 2 * kPageSize, 1));
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
  EXPECT_EQ(space.page_count(), 0u);
  space.Map(0x100000, 1);
  EXPECT_EQ(space.page_count(), 1u);
  uint8_t byte = 0;
  EXPECT_TRUE(space.Read(0x100000, &byte, 0));
  EXPECT_TRUE(space.Write(0x100000, &byte, 0));
}

TEST(AddressSpaceTest, MappedBytesAccounting) {
  AddressSpace space;
  space.Map(0x100000, kPageSize + 1);  // rounds up to two pages
  EXPECT_EQ(space.mapped_bytes(), 2 * kPageSize);
}

// Regression: the translation cache must not serve accesses through a page
// that Unmap freed. Remapping the same page allocates fresh zeroed storage;
// a stale cache entry would instead read the old (freed) data — or worse.
TEST(AddressSpaceTest, UnmapInvalidatesTranslationCache) {
  AddressSpace space;
  constexpr Addr kBase = 0x100000;
  space.Map(kBase, kPageSize);
  uint8_t value = 0x5a;
  ASSERT_TRUE(space.Write(kBase + 17, &value, 1));  // warms the cache
  space.Unmap(kBase, kPageSize);
  // The unmapped page must not be readable through the cache.
  uint8_t out = 0;
  EXPECT_FALSE(space.Read(kBase + 17, &out, 1));
  EXPECT_FALSE(space.Write(kBase + 17, &value, 1));
  // A fresh mapping of the same page is zero filled; a stale cache entry
  // would leak the 0x5a through the old allocation.
  space.Map(kBase, kPageSize);
  ASSERT_TRUE(space.Read(kBase + 17, &out, 1));
  EXPECT_EQ(out, 0);
}

// Unmapping one page must not drop translations for other pages, and an
// unmap that only partially covers a page must leave it readable.
TEST(AddressSpaceTest, UnmapIsPreciseAboutOtherPages) {
  AddressSpace space;
  constexpr Addr kBase = 0x100000;
  space.Map(kBase, kPageSize * 2);
  uint8_t value = 0x7f;
  ASSERT_TRUE(space.Write(kBase + kPageSize + 5, &value, 1));  // cache page 2
  space.Unmap(kBase, kPageSize);  // page 1 only
  uint8_t out = 0;
  ASSERT_TRUE(space.Read(kBase + kPageSize + 5, &out, 1));
  EXPECT_EQ(out, 0x7f);
  // Partial coverage: no page is fully inside [base+1, base+kPageSize), so
  // nothing is unmapped.
  space.Map(kBase, kPageSize);
  space.Unmap(kBase + 1, kPageSize - 2);
  EXPECT_TRUE(space.IsMapped(kBase, kPageSize));
}

// The direct-mapped translation cache holds 64 entries; pages 64 slots
// apart conflict and must evict each other cleanly, and a warm cache over
// many pages must keep every translation correct.
TEST(AddressSpaceTest, TranslationCacheSurvivesConflictsAcrossManyPages) {
  AddressSpace space;
  constexpr Addr kBase = 0x100000;
  constexpr size_t kPages = 130;  // > 2x the cache's 64 slots
  space.Map(kBase, kPages * kPageSize);
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t v = static_cast<uint8_t>(i);
    ASSERT_TRUE(space.Write(kBase + i * kPageSize + 7, &v, 1));
  }
  // Re-read in an order that ping-pongs conflicting slots (i and i + 64).
  for (size_t i = 0; i < kPages - 64; ++i) {
    uint8_t a = 0xff;
    uint8_t b = 0xff;
    ASSERT_TRUE(space.Read(kBase + i * kPageSize + 7, &a, 1));
    ASSERT_TRUE(space.Read(kBase + (i + 64) * kPageSize + 7, &b, 1));
    EXPECT_EQ(a, static_cast<uint8_t>(i));
    EXPECT_EQ(b, static_cast<uint8_t>(i + 64));
  }
}

// An Unmap spanning several cached pages must drop every covered
// translation, not just the first page's.
TEST(AddressSpaceTest, UnmapSpanningManyCachedPages) {
  AddressSpace space;
  constexpr Addr kBase = 0x100000;
  constexpr size_t kPages = 8;
  space.Map(kBase, kPages * kPageSize);
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t v = 0x5a;
    ASSERT_TRUE(space.Write(kBase + i * kPageSize, &v, 1));  // warm each slot
  }
  space.Unmap(kBase, kPages * kPageSize);
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t out = 0;
    EXPECT_FALSE(space.Read(kBase + i * kPageSize, &out, 1));
  }
  // Remap: all pages fresh and zeroed, none served from stale slots.
  space.Map(kBase, kPages * kPageSize);
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t out = 0xff;
    ASSERT_TRUE(space.Read(kBase + i * kPageSize, &out, 1));
    EXPECT_EQ(out, 0);
  }
}

}  // namespace
}  // namespace fob
