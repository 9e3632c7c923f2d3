#include "src/softmem/object_table.h"

#include <gtest/gtest.h>

namespace fob {
namespace {

TEST(ObjectTableTest, RegisterAndLookup) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 64, UnitKind::kHeap, "buf");
  ASSERT_NE(id, kInvalidUnit);
  const DataUnit* unit = table.Lookup(id);
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->base, 0x1000u);
  EXPECT_EQ(unit->size, 64u);
  EXPECT_EQ(unit->kind, UnitKind::kHeap);
  EXPECT_TRUE(unit->live);
  EXPECT_EQ(unit->name, "buf");
}

TEST(ObjectTableTest, LookupInvalidId) {
  ObjectTable table;
  EXPECT_EQ(table.Lookup(kInvalidUnit), nullptr);
  EXPECT_EQ(table.Lookup(999), nullptr);
}

TEST(ObjectTableTest, LookupByAddressFindsContainingUnit) {
  ObjectTable table;
  UnitId a = table.Register(0x1000, 64, UnitKind::kHeap, "a");
  UnitId b = table.Register(0x2000, 32, UnitKind::kStack, "b");
  EXPECT_EQ(table.LookupByAddress(0x1000)->id, a);
  EXPECT_EQ(table.LookupByAddress(0x103f)->id, a);
  EXPECT_EQ(table.LookupByAddress(0x1040), nullptr);  // one past the end
  EXPECT_EQ(table.LookupByAddress(0x2010)->id, b);
  EXPECT_EQ(table.LookupByAddress(0x0fff), nullptr);
  EXPECT_EQ(table.LookupByAddress(0x3000), nullptr);
}

TEST(ObjectTableTest, RetireRemovesFromAddressIndexButKeepsRecord) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 64, UnitKind::kHeap, "buf");
  table.Retire(id);
  EXPECT_EQ(table.LookupByAddress(0x1010), nullptr);
  const DataUnit* unit = table.Lookup(id);
  ASSERT_NE(unit, nullptr);
  EXPECT_FALSE(unit->live);
  EXPECT_EQ(unit->name, "buf");
}

TEST(ObjectTableTest, AddressReuseAfterRetire) {
  ObjectTable table;
  UnitId first = table.Register(0x1000, 64, UnitKind::kHeap, "first");
  table.Retire(first);
  UnitId second = table.Register(0x1000, 32, UnitKind::kHeap, "second");
  const DataUnit* found = table.LookupByAddress(0x1008);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, second);
}

TEST(ObjectTableTest, RetireIsIdempotent) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 64, UnitKind::kHeap, "buf");
  table.Retire(id);
  table.Retire(id);  // no crash, no effect
  EXPECT_EQ(table.live_count(), 0u);
  EXPECT_EQ(table.total_registered(), 1u);
}

TEST(ObjectTableTest, ZeroSizeUnit) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 0, UnitKind::kGlobal, "empty");
  const DataUnit* found = table.LookupByAddress(0x1000);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, id);
  EXPECT_EQ(table.LookupByAddress(0x1001), nullptr);
}

TEST(ObjectTableTest, ContainsRange) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 16, UnitKind::kHeap, "buf");
  const DataUnit* unit = table.Lookup(id);
  EXPECT_TRUE(unit->Contains(0x1000, 16));
  EXPECT_TRUE(unit->Contains(0x100f, 1));
  EXPECT_FALSE(unit->Contains(0x100f, 2));   // straddles the end
  EXPECT_FALSE(unit->Contains(0x1010, 1));   // one past
  EXPECT_FALSE(unit->Contains(0x0fff, 1));   // one before
  EXPECT_FALSE(unit->Contains(0x1000, 17));  // too big
}

TEST(ObjectTableTest, LiveCountTracksRegistrationAndRetirement) {
  ObjectTable table;
  UnitId a = table.Register(0x1000, 8, UnitKind::kHeap, "a");
  UnitId b = table.Register(0x2000, 8, UnitKind::kHeap, "b");
  EXPECT_EQ(table.live_count(), 2u);
  table.Retire(a);
  EXPECT_EQ(table.live_count(), 1u);
  table.Retire(b);
  EXPECT_EQ(table.live_count(), 0u);
  EXPECT_EQ(table.total_registered(), 2u);
}

TEST(ObjectTableTest, UnitKindNames) {
  EXPECT_STREQ(UnitKindName(UnitKind::kHeap), "heap");
  EXPECT_STREQ(UnitKindName(UnitKind::kStack), "stack");
  EXPECT_STREQ(UnitKindName(UnitKind::kGlobal), "global");
}

}  // namespace
}  // namespace fob
