#include "src/runtime/memlog.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/memory.h"

// Heap-allocation counter for the zero-allocation error-path test: every
// operator new in this test binary goes through here. The deletes stay out
// of line so GCC does not pair their free() with a builtin operator new.
namespace {
size_t g_heap_allocations = 0;
}  // namespace

void* operator new(size_t size) {
  ++g_heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace fob {
namespace {

// Records one synthetic error at (unit_name, function, kind).
void RecordAt(MemLog& log, bool is_write, std::string_view unit_name,
              std::string_view function = "handler") {
  MemErrorRecord record;
  record.addr = 0x1000;
  record.size = 1;
  record.status = PointerStatus::kOobAbove;
  record.access_index = 42;
  log.Record(log.Intern(unit_name, function, is_write ? AccessKind::kWrite : AccessKind::kRead),
             record);
}

// The site name a retained record resolves to.
std::string UnitOf(const MemLog& log, const MemErrorRecord& record) {
  return log.site(record.site).unit_name;
}

// Numbered unit names built without operator+ on temporaries (which trips
// GCC 12's -Wrestrict false positive in Release builds).
std::string Numbered(char prefix, int i) {
  std::string name(1, prefix);
  name.append(std::to_string(i));
  return name;
}

TEST(MemLogTest, CountsReadsAndWritesSeparately) {
  MemLog log;
  RecordAt(log, true, "a");
  RecordAt(log, true, "a");
  RecordAt(log, false, "b");
  EXPECT_EQ(log.total_errors(), 3u);
  EXPECT_EQ(log.write_errors(), 2u);
  EXPECT_EQ(log.read_errors(), 1u);
}

TEST(MemLogTest, PerUnitHistogram) {
  MemLog log;
  RecordAt(log, true, "prescan::buf");
  RecordAt(log, true, "prescan::buf", "other_frame");
  RecordAt(log, false, "utf7_buf");
  EXPECT_EQ(log.errors_by_unit().at("prescan::buf"), 2u);
  EXPECT_EQ(log.errors_by_unit().at("utf7_buf"), 1u);
  // Wild accesses name no unit and stay out of the per-unit histogram.
  RecordAt(log, false, "");
  EXPECT_EQ(log.errors_by_unit().size(), 2u);
}

TEST(MemLogTest, RingBufferDropsOldest) {
  MemLog log(4);
  for (int i = 0; i < 10; ++i) {
    RecordAt(log, true, Numbered('u', i));
  }
  EXPECT_EQ(log.total_errors(), 10u);  // counters unbounded
  std::vector<MemErrorRecord> recent = log.recent();
  ASSERT_EQ(recent.size(), 4u);  // records capped
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(UnitOf(log, recent[i]), Numbered('u', 6 + i));
  }
}

TEST(MemLogTest, OverflowCounterAccountsForEveryEvictedRecord) {
  MemLog log(4);
  for (int i = 0; i < 3; ++i) {
    RecordAt(log, true, "early");
  }
  EXPECT_EQ(log.dropped(), 0u);  // under the cap: nothing evicted
  for (int i = 0; i < 6000; ++i) {
    RecordAt(log, true, "attack_flood");
  }
  // A multi-attack flood stores only `capacity` records; everything else is
  // counted, not kept — stored + dropped always equals total.
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.recent().size(), 4u);
  EXPECT_EQ(log.dropped(), 5999u);
  EXPECT_EQ(log.recent().size() + log.dropped(), log.total_errors());
  // The aggregates stay exact despite the bounded ring.
  EXPECT_EQ(log.errors_by_unit().at("attack_flood"), 6000u);
  EXPECT_EQ(log.errors_by_unit().at("early"), 3u);
  log.Clear();
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(MemLogTest, LogCapacityIsConfigurablePerShard) {
  Memory::Config config;
  config.log_capacity = 2;
  Memory memory(config);
  Ptr p = memory.Malloc(4, "buf");
  for (int i = 0; i < 5; ++i) {
    (void)memory.ReadU8(p + 10);
  }
  EXPECT_EQ(memory.log().total_errors(), 5u);
  EXPECT_EQ(memory.log().recent().size(), 2u);
  EXPECT_EQ(memory.log().dropped(), 3u);
  // sites() aggregation is exact: one site, all five errors.
  ASSERT_EQ(memory.log().sites().size(), 1u);
  EXPECT_EQ(memory.log().sites().begin()->second.count, 5u);
}

TEST(MemLogTest, MergeSumsAggregatesAndKeepsSiteMetadata) {
  MemLog a;
  MemLog b;
  const SiteId shared = MakeSiteId("hot_buf", "handler", AccessKind::kWrite);
  const SiteId reads = MakeSiteId("cold_buf", "reader", AccessKind::kRead);
  RecordAt(a, true, "hot_buf");
  RecordAt(a, true, "hot_buf");
  RecordAt(b, true, "hot_buf");
  RecordAt(b, false, "cold_buf", "reader");

  MemLog merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.total_errors(), 4u);
  EXPECT_EQ(merged.write_errors(), 3u);
  EXPECT_EQ(merged.read_errors(), 1u);
  EXPECT_EQ(merged.errors_by_unit().at("hot_buf"), 3u);
  EXPECT_EQ(merged.errors_by_unit().at("cold_buf"), 1u);
  ASSERT_EQ(merged.sites().size(), 2u);
  EXPECT_EQ(merged.sites().at(shared).count, 3u);
  EXPECT_EQ(merged.sites().at(shared).unit_name, "hot_buf");
  EXPECT_EQ(merged.sites().at(reads).count, 1u);
  EXPECT_EQ(merged.sites().at(reads).function, "reader");
  // The ring holds both logs' records, first-merged first (the caller's
  // shard-id order is the ordering rule).
  std::vector<MemErrorRecord> recent = merged.recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.front().site, shared);
  EXPECT_EQ(recent.back().site, reads);
  EXPECT_EQ(UnitOf(merged, recent.back()), "cold_buf");
}

TEST(MemLogTest, MergeRespectsCapacityAndCountsEvictions) {
  MemLog big;  // default capacity
  for (int i = 0; i < 3; ++i) {
    RecordAt(big, true, "shard0");
  }
  MemLog merged(2);
  merged.Merge(big);
  EXPECT_EQ(merged.total_errors(), 3u);
  EXPECT_EQ(merged.recent().size(), 2u);
  EXPECT_EQ(merged.dropped(), 1u);
  // A zero-capacity log keeps counts and sites but no records.
  MemLog none(0);
  none.Merge(big);
  RecordAt(none, false, "direct");
  EXPECT_EQ(none.total_errors(), 4u);
  EXPECT_TRUE(none.recent().empty());
  EXPECT_EQ(none.dropped(), 4u);
  EXPECT_EQ(none.sites().size(), 2u);
}

TEST(MemLogTest, SchedulerStatsSumCountersAndMaxPeakDepth) {
  MemLog a;
  a.AddSchedulerStats(/*shed=*/3, /*stolen_batches=*/2, /*peak_lane_depth=*/7);
  MemLog b;
  b.AddSchedulerStats(/*shed=*/1, /*stolen_batches=*/0, /*peak_lane_depth=*/4);

  MemLog merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.shed_requests(), 4u);
  EXPECT_EQ(merged.stolen_batches(), 2u);
  // Peak depth is a high-water mark, not a sum: merging takes the max.
  EXPECT_EQ(merged.peak_lane_depth(), 7u);
  std::string summary = merged.Summary();
  EXPECT_NE(summary.find("4 requests shed"), std::string::npos);
  EXPECT_NE(summary.find("2 batches stolen"), std::string::npos);
  EXPECT_NE(summary.find("peak lane depth 7"), std::string::npos);

  merged.Clear();
  EXPECT_EQ(merged.shed_requests(), 0u);
  EXPECT_EQ(merged.stolen_batches(), 0u);
  EXPECT_EQ(merged.peak_lane_depth(), 0u);
  // A quiet scheduler stays out of the digest.
  EXPECT_EQ(merged.Summary().find("scheduler"), std::string::npos);
}

TEST(MemLogTest, EchoStreamsRecordsAsTheyHappen) {
  MemLog log;
  std::ostringstream echo;
  log.set_echo(&echo);
  RecordAt(log, true, "victim");
  EXPECT_NE(echo.str().find("invalid write"), std::string::npos);
  EXPECT_NE(echo.str().find("victim"), std::string::npos);
  log.set_echo(nullptr);
  RecordAt(log, true, "quiet");
  EXPECT_EQ(echo.str().find("quiet"), std::string::npos);
}

TEST(MemLogTest, RecordToStringMentionsEverything) {
  MemLog log;
  RecordAt(log, false, "buf");
  std::string text = log.ToString(log.recent().front());
  EXPECT_NE(text.find("invalid read"), std::string::npos);
  EXPECT_NE(text.find("0x1000"), std::string::npos);
  EXPECT_NE(text.find("out-of-bounds (above)"), std::string::npos);
  EXPECT_NE(text.find("'buf'"), std::string::npos);
  EXPECT_NE(text.find("handler"), std::string::npos);
  EXPECT_NE(text.find("#42"), std::string::npos);
}

TEST(MemLogTest, ClearResetsEverything) {
  MemLog log;
  RecordAt(log, true, "x");
  uint64_t generation = log.generation();
  log.Clear();
  EXPECT_EQ(log.total_errors(), 0u);
  EXPECT_TRUE(log.recent().empty());
  EXPECT_TRUE(log.sites().empty());
  EXPECT_TRUE(log.errors_by_unit().empty());
  EXPECT_NE(log.generation(), generation);
}

TEST(MemLogIntegrationTest, AllocErrorsCountBadFreesAndReallocsExactly) {
  // A two-record ring evicts almost every record below, yet alloc_errors()
  // stays exact, so total - alloc equals the access errors (the misses).
  Memory::Config config;
  config.log_capacity = 2;
  Memory memory(config);
  Ptr p = memory.Malloc(4, "buf");
  memory.Free(p);
  for (int i = 0; i < 3; ++i) {
    memory.Free(p);  // double free: logged and discarded
  }
  EXPECT_EQ(memory.Realloc(p, 8).addr, p.addr);  // realloc of a freed block
  Ptr live = memory.Malloc(4, "live");
  for (int i = 0; i < 5; ++i) {
    (void)memory.ReadU8(live + 10);
  }
  const MemLog& log = memory.log();
  EXPECT_EQ(log.total_errors(), 9u);
  EXPECT_EQ(log.alloc_errors(), 4u);
  EXPECT_GT(log.dropped(), 0u);
  EXPECT_EQ(memory.translation_misses(), log.total_errors() - log.alloc_errors());

  MemLog merged;
  merged.Merge(log);
  merged.Merge(log);
  EXPECT_EQ(merged.alloc_errors(), 8u);
  merged.Clear();
  EXPECT_EQ(merged.alloc_errors(), 0u);
}

TEST(MemLogIntegrationTest, LogIdentifiesTheGuiltyBufferAndFunction) {
  // §3: "a log containing information about the program's attempts to
  // commit memory errors" — the record names the data unit and the
  // function, which is what an administrator reads.
  Memory memory(AccessPolicy::kFailureOblivious);
  {
    Memory::Frame frame(memory, "parse_request");
    Ptr buf = frame.Local(8, "reqbuf");
    memory.WriteU8(buf + 9, 'X');
  }
  ASSERT_EQ(memory.log().recent().size(), 1u);
  const MemErrorRecord record = memory.log().recent().front();
  EXPECT_EQ(memory.log().site(record.site).unit_name, "parse_request::reqbuf");
  EXPECT_EQ(memory.log().site(record.site).function, "parse_request");
  EXPECT_TRUE(record.is_write);
  EXPECT_EQ(record.status, PointerStatus::kOobAbove);
}

// ---- Interned sites and the compact ring ----------------------------------

TEST(MemLogTest, MergeKeepsRingOrderAndCountsEveryEviction) {
  MemLog a(4);
  for (int i = 0; i < 6; ++i) {
    RecordAt(a, true, Numbered('u', i));
  }
  MemLog b(4);
  for (int i = 0; i < 3; ++i) {
    RecordAt(b, false, Numbered('v', i));
  }
  ASSERT_EQ(a.dropped(), 2u);  // a keeps u2..u5
  MemLog merged(5);
  merged.Merge(a);
  merged.Merge(b);
  // u2..u5 then v0..v2 pass through a 5-slot ring: u2 and u3 fall out.
  std::vector<MemErrorRecord> recent = merged.recent();
  std::vector<std::string> names;
  for (const MemErrorRecord& record : recent) {
    names.push_back(UnitOf(merged, record));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"u4", "u5", "v0", "v1", "v2"}));
  EXPECT_EQ(merged.total_errors(), 9u);
  EXPECT_EQ(merged.dropped(), 4u);
  EXPECT_EQ(recent.size() + merged.dropped(), merged.total_errors());
  EXPECT_TRUE(recent.front().is_write);
  EXPECT_FALSE(recent.back().is_write);
}

TEST(MemLogIntegrationTest, NamesStayCorrectAfterClearAndMoreErrors) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr alpha = memory.Malloc(8, "alpha");
  Ptr beta = memory.Malloc(8, "beta");
  Memory::Frame frame(memory, "worker");
  memory.WriteU8(alpha + 64, 1);
  memory.WriteU8(beta + 64, 1);
  memory.log().Clear();
  // Same referents, same frame, same kind as before the Clear: the site
  // cache must re-intern rather than reuse entries the Clear destroyed.
  memory.WriteU8(beta + 64, 1);
  memory.WriteU8(beta + 64, 1);
  memory.WriteU8(alpha + 64, 1);
  const MemLog& log = memory.log();
  ASSERT_EQ(log.sites().size(), 2u);
  EXPECT_EQ(log.sites().at(MakeSiteId("beta", "worker", AccessKind::kWrite)).count, 2u);
  EXPECT_EQ(log.sites().at(MakeSiteId("alpha", "worker", AccessKind::kWrite)).count, 1u);
  std::vector<MemErrorRecord> recent = log.recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(UnitOf(log, recent[0]), "beta");
  EXPECT_EQ(UnitOf(log, recent[2]), "alpha");
  EXPECT_EQ(log.site(recent[2].site).function, "worker");
}

TEST(MemLogIntegrationTest, UnissuedReferentIsWildUntilTheIdIsIssued) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr anchor = memory.Malloc(8, "anchor");
  // The id the next registration will get: never issued yet, so wild.
  const UnitId next = static_cast<UnitId>(memory.objects().total_registered() + 1);
  Memory::Frame frame(memory, "prober");
  Ptr forged(anchor.addr + 4096, next);
  (void)memory.ReadU8(forged);
  ASSERT_EQ(memory.log().total_errors(), 1u);
  const MemErrorRecord wild = memory.log().recent().back();
  EXPECT_EQ(wild.status, PointerStatus::kWild);
  EXPECT_EQ(wild.unit, next);
  EXPECT_EQ(memory.log().site(wild.site).Label(), "read <wild> @ prober");
  // Now the id becomes a live unit. Same pointer id, same frame, same kind:
  // a cache keyed on the raw pointer id would keep answering "<wild>".
  Ptr late = memory.Malloc(8, "late");
  ASSERT_EQ(late.unit, next);
  (void)memory.ReadU8(late + 64);
  const MemErrorRecord named = memory.log().recent().back();
  EXPECT_EQ(named.status, PointerStatus::kOobAbove);
  EXPECT_EQ(memory.log().site(named.site).Label(), "read late @ prober");
  EXPECT_NE(named.site, wild.site);
  EXPECT_EQ(memory.log().sites().size(), 2u);
}

TEST(MemLogIntegrationTest, FramesWithTheSameFunctionFoldIntoOneSite) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr p = memory.Malloc(8, "buf");
  for (int call = 0; call < 3; ++call) {
    Memory::Frame frame(memory, "handler");  // a fresh frame serial each call
    memory.WriteU8(p + 64, 1);
  }
  ASSERT_EQ(memory.log().sites().size(), 1u);
  const MemSiteStat& stat = memory.log().sites().begin()->second;
  EXPECT_EQ(stat.site, MakeSiteId("buf", "handler", AccessKind::kWrite));
  EXPECT_EQ(stat.count, 3u);
  // A callee with another name is another site, even for the same referent,
  // and returning to the caller's frame finds the caller's site again.
  {
    Memory::Frame caller(memory, "handler");
    {
      Memory::Frame callee(memory, "helper");
      memory.WriteU8(p + 64, 1);
    }
    memory.WriteU8(p + 64, 1);
  }
  EXPECT_EQ(memory.log().sites().size(), 2u);
  EXPECT_EQ(memory.log().sites().at(MakeSiteId("buf", "helper", AccessKind::kWrite)).count, 1u);
  EXPECT_EQ(stat.count, 4u);
  EXPECT_EQ(memory.log().errors_by_unit().at("buf"), 5u);
}

TEST(MemLogIntegrationTest, EchoIsByteIdenticalToToString) {
  Memory memory(AccessPolicy::kFailureOblivious);
  std::ostringstream echo;
  memory.log().set_echo(&echo);
  Ptr p = memory.Malloc(8, "echoed");
  memory.WriteU8(p + 8, 1);            // no frame
  (void)memory.ReadU32(p + 6);         // straddles the end
  {
    Memory::Frame frame(memory, "serve");
    (void)memory.ReadU8(Ptr(p.addr, 999999));  // wild
    memory.WriteU8(p - 1, 1);                   // below
  }
  memory.Free(p);
  (void)memory.ReadU8(p);  // dangling
  std::string expected;
  for (const MemErrorRecord& record : memory.log().recent()) {
    expected += memory.log().ToString(record);
    expected += '\n';
  }
  EXPECT_EQ(memory.log().total_errors(), 5u);
  EXPECT_EQ(echo.str(), expected);
}

TEST(MemLogIntegrationTest, RepeatedErrorsAtOneSiteDoNotAllocate) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr p = memory.Malloc(16, "small");
  Memory::Frame frame(memory, "hot_loop");
  // The first error at each site interns it (strings, map node).
  memory.WriteU8(p + 64, 1);
  (void)memory.ReadU8(p + 64);
  size_t before = g_heap_allocations;
  uint64_t sink = 0;
  for (int i = 0; i < 10000; ++i) {
    memory.WriteU8(p + 64, 1);
    sink += memory.ReadU8(p + 64);
  }
  size_t allocations = g_heap_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(memory.log().total_errors(), 20002u);
  EXPECT_EQ(memory.log().sites().size(), 2u);
  EXPECT_GT(sink, 0u);
}

TEST(OobStatsTest, RegistryCountsByStatus) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr p = memory.Malloc(8, "b");
  (void)memory.ReadU8(p + 100);   // above
  (void)memory.ReadU8(p - 100);   // below (may hit another unit's range; still OOB of referent)
  memory.Free(p);
  (void)memory.ReadU8(p);         // dangling
  EXPECT_EQ(memory.oob().total(), 3u);
  EXPECT_GE(memory.oob().count(PointerStatus::kOobAbove), 1u);
  EXPECT_GE(memory.oob().count(PointerStatus::kDangling), 1u);
}

}  // namespace
}  // namespace fob
