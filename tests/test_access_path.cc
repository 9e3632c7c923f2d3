// The scalar access path end to end: every access is classified against its
// intended referent, in-bounds accesses count as translation hits and
// invalid ones as misses, and — the hazard a translation layer must never
// introduce — an access through a retired unit never resolves in bounds,
// even when a fresh allocation has reused the same address.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/workloads.h"
#include "src/runtime/memory.h"

namespace fob {
namespace {

TEST(AccessPathTest, InBoundsAccessesHitWithoutErrors) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr buf = memory.Malloc(kPageSize, "hot");
  uint64_t hits_before = memory.translation_hits();
  uint64_t misses_before = memory.translation_misses();
  for (int i = 0; i < 256; ++i) {
    memory.WriteU8(buf + i, static_cast<uint8_t>(i));
  }
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(memory.ReadU8(buf + i), static_cast<uint8_t>(i));
  }
  EXPECT_EQ(memory.translation_hits() - hits_before, 512u);
  EXPECT_EQ(memory.translation_misses(), misses_before);
  EXPECT_EQ(memory.log().total_errors(), 0u);
}

TEST(AccessPathTest, InBoundsAccessesHitUnderEveryPolicy) {
  for (AccessPolicy policy : kAllPolicies) {
    Memory memory(policy);
    Ptr buf = memory.Malloc(kPageSize, "hot");
    memory.WriteU32(buf + 8, 0xfeedface);
    EXPECT_EQ(memory.ReadU32(buf + 8), 0xfeedfaceu) << PolicyName(policy);
    EXPECT_EQ(memory.translation_hits(), 2u) << PolicyName(policy);
    EXPECT_EQ(memory.translation_misses(), 0u) << PolicyName(policy);
    EXPECT_EQ(memory.log().total_errors(), 0u) << PolicyName(policy);
  }
}

// Small packed blocks share a page. The check keys on each pointer's
// referent, not on the page, so both blocks resolve in bounds.
TEST(AccessPathTest, PackedBlocksOnOnePageResolveInBounds) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr a = memory.Malloc(48, "a");
  Ptr b = memory.Malloc(48, "b");
  ASSERT_EQ(PageBaseOf(a.addr), PageBaseOf(b.addr));
  uint64_t hits_before = memory.translation_hits();
  uint64_t misses_before = memory.translation_misses();
  memory.WriteU8(a, 0x11);
  memory.WriteU8(b, 0x22);
  EXPECT_EQ(memory.ReadU8(a), 0x11);
  EXPECT_EQ(memory.ReadU8(b), 0x22);
  EXPECT_EQ(memory.translation_hits() - hits_before, 4u);
  EXPECT_EQ(memory.translation_misses(), misses_before);
  EXPECT_EQ(memory.log().total_errors(), 0u);
}

TEST(AccessPathTest, OutOfBoundsNeverResolvesInBounds) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr buf = memory.Malloc(kPageSize, "hot");
  uint64_t hits_before = memory.translation_hits();
  // One past the allocation's end: the byte may well be mapped (heap slack
  // or the next block), but it is outside the pointer's referent, so the
  // check rejects it and the error is logged.
  Ptr past = buf + static_cast<int64_t>(kPageSize);
  memory.WriteU8(past, 0x99);
  EXPECT_EQ(memory.translation_hits(), hits_before);
  EXPECT_EQ(memory.translation_misses(), 1u);
  EXPECT_EQ(memory.log().total_errors(), 1u);
  EXPECT_EQ(memory.log().recent().back().status, PointerStatus::kOobAbove);
}

// The stale-bounds hazard: retire a unit, let a fresh allocation reuse the
// address, then access through the *stale* pointer. The access must be
// classified dangling against the dead referent, and the error record must
// still name the dead unit the pointer was derived from.
TEST(AccessPathTest, StaleBoundsAfterRetireAtSameAddress) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr old_block = memory.Malloc(2 * kPageSize, "old");
  Ptr old_window(PageBaseOf(old_block.addr + kPageSize - 1), old_block.unit);
  memory.WriteU8(old_window, 0xaa);
  EXPECT_EQ(memory.translation_hits(), 1u);
  memory.Free(old_block);
  // The freed range coalesces with the frontier, so a same-or-larger
  // allocation reuses the same payload address under a fresh unit id.
  Ptr fresh = memory.Malloc(3 * kPageSize, "fresh");
  ASSERT_EQ(fresh.addr, old_block.addr);
  ASSERT_NE(fresh.unit, old_block.unit);
  uint64_t hits_before = memory.translation_hits();
  uint64_t errors_before = memory.log().total_errors();
  EXPECT_EQ(memory.Classify(old_window), PointerStatus::kDangling);
  memory.WriteU8(old_window, 0xbb);
  EXPECT_EQ(memory.translation_hits(), hits_before);
  EXPECT_EQ(memory.log().total_errors(), errors_before + 1);
  const MemErrorRecord record = memory.log().recent().back();
  EXPECT_EQ(record.status, PointerStatus::kDangling);
  // Attribution survives retirement.
  EXPECT_EQ(memory.log().site(record.site).unit_name, "old");
  // The discarded write must not have landed in the fresh allocation
  // (Malloc zero-fills, so any non-zero byte would be the leak).
  EXPECT_EQ(memory.ReadU8(Ptr(old_window.addr, fresh.unit)), 0);
}

// Realloc moves the block: the old unit retires, a new one registers.
// Accesses through the new pointer hit; the old pointer dangles.
TEST(AccessPathTest, ReallocLeavesOldPointerDangling) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr p = memory.Malloc(2 * kPageSize, "grow");
  Ptr window(PageBaseOf(p.addr + kPageSize - 1), p.unit);
  memory.WriteU8(window, 0x42);
  Ptr grown = memory.Realloc(p, 4 * kPageSize);
  ASSERT_FALSE(grown.IsNull());
  ASSERT_NE(grown.unit, p.unit);
  Ptr moved(grown.addr + (window.addr - p.addr), grown.unit);
  uint64_t hits_before = memory.translation_hits();
  EXPECT_EQ(memory.ReadU8(moved), 0x42);
  EXPECT_EQ(memory.translation_hits(), hits_before + 1);
  hits_before = memory.translation_hits();
  memory.WriteU8(window, 0x99);
  EXPECT_EQ(memory.translation_hits(), hits_before);
  EXPECT_EQ(memory.log().recent().back().status, PointerStatus::kDangling);
}

// Standard classifies too: an invalid access counts a miss, but its
// continuation is the raw access, which logs nothing.
TEST(AccessPathTest, StandardCountsInvalidAccessesWithoutLogging) {
  Memory memory(AccessPolicy::kStandard);
  Ptr a = memory.Malloc(48, "a");
  Ptr b = memory.Malloc(48, "b");
  Ptr into_b(b.addr, a.unit);  // a's pointer, run into b
  memory.WriteU8(into_b, 0x5a);
  EXPECT_EQ(memory.ReadU8(b), 0x5a);  // the raw write landed in b
  EXPECT_EQ(memory.translation_misses(), 1u);
  EXPECT_EQ(memory.translation_hits(), 1u);
  EXPECT_EQ(memory.log().total_errors(), 0u);
}

// Counters fold into merged logs through MemLog::AddTranslationStats.
TEST(AccessPathTest, CountersSurfaceInMemLog) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr buf = memory.Malloc(16, "hot");
  memory.WriteU8(buf, 1);
  memory.WriteU8(buf + 16, 1);
  MemLog merged;
  merged.Merge(memory.log());
  merged.AddTranslationStats(memory.translation_hits(), memory.translation_misses());
  EXPECT_EQ(merged.translation_hits(), 1u);
  EXPECT_EQ(merged.translation_misses(), 1u);
  EXPECT_NE(merged.Summary().find("  access checks: 1 in bounds, 1 invalid\n"),
            std::string::npos);
}

// The invariant that makes the counters readable: under a checked policy
// every miss is exactly one access error record. Free/realloc of a bad
// pointer also logs a record (of size 0) without an access, counted apart
// in alloc_errors(), so those are the only records a miss does not stand
// for. Run on each server's §4
// attack stream, the error-heavy traffic the counters exist to profile.
class MissesEqualErrorsTest : public ::testing::TestWithParam<Server> {};

INSTANTIATE_TEST_SUITE_P(AllServers, MissesEqualErrorsTest, ::testing::ValuesIn(kAllServers),
                         [](const ::testing::TestParamInfo<Server>& info) {
                           return std::string(ServerShortName(info.param));
                         });

TEST_P(MissesEqualErrorsTest, OnTheAttackStream) {
  Server server = GetParam();
  std::unique_ptr<ServerApp> app = MakeAttackServer(server, AccessPolicy::kFailureOblivious);
  TrafficStream stream = MakeAttackStream(server);
  std::vector<uint64_t> sessions;
  for (const ServerRequest& request : stream.requests) {
    if (std::find(sessions.begin(), sessions.end(), request.client_id) == sessions.end()) {
      sessions.push_back(request.client_id);
      app->BeginSession(request.client_id);
    }
    app->Handle(request);
  }
  for (uint64_t client : sessions) {
    app->EndSession(client);
  }
  const Memory& memory = app->memory();
  const MemLog& log = memory.log();
  ASSERT_GT(log.total_errors(), 0u);
  // alloc_errors() counts the free/realloc records exactly, evicted ones
  // included, so the identity holds however many records the ring dropped.
  EXPECT_EQ(memory.translation_misses(), log.total_errors() - log.alloc_errors());
}

}  // namespace
}  // namespace fob
