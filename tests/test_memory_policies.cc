// The policy matrix: each AccessPolicy's checking + continuation semantics.
//
// These tests pin down the core claims of §1.1/§3: under the failure-
// oblivious policy, invalid writes are discarded (no other data unit ever
// changes) and invalid reads return manufactured values; under bounds check
// the program terminates; under standard compilation the bytes physically
// land or the process segfaults.

#include "src/runtime/memory.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/runtime/process.h"
#include "src/softmem/fault.h"

namespace fob {
namespace {

class PolicyTest : public ::testing::TestWithParam<AccessPolicy> {
 protected:
  PolicyTest() : memory_(GetParam()) {}
  Memory memory_;
};

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest, ::testing::ValuesIn(kAllPolicies),
                         [](const ::testing::TestParamInfo<AccessPolicy>& info) {
                           switch (info.param) {
                             case AccessPolicy::kStandard:
                               return "Standard";
                             case AccessPolicy::kBoundsCheck:
                               return "BoundsCheck";
                             case AccessPolicy::kFailureOblivious:
                               return "FailureOblivious";
                             case AccessPolicy::kBoundless:
                               return "Boundless";
                             case AccessPolicy::kWrap:
                               return "Wrap";
                             case AccessPolicy::kZeroManufacture:
                               return "ZeroManufacture";
                             case AccessPolicy::kThreshold:
                               return "Threshold";
                           }
                           return "Unknown";
                         });

TEST_P(PolicyTest, InBoundsRoundTripWorksEverywhere) {
  Ptr p = memory_.Malloc(64, "buf");
  ASSERT_FALSE(p.IsNull());
  memory_.WriteU32(p, 0xcafef00d);
  EXPECT_EQ(memory_.ReadU32(p), 0xcafef00du);
  memory_.WriteU8(p + 63, 0x5a);
  EXPECT_EQ(memory_.ReadU8(p + 63), 0x5a);
}

TEST_P(PolicyTest, CStringBridging) {
  Ptr s = memory_.NewCString("hello world");
  EXPECT_EQ(memory_.ReadCString(s), "hello world");
}

TEST_P(PolicyTest, OutOfBoundsWriteNeverCorruptsNeighborUnderCheckedPolicies) {
  if (GetParam() == AccessPolicy::kStandard) {
    GTEST_SKIP() << "standard compilation corrupts by design";
  }
  Ptr a = memory_.Malloc(32, "a");
  Ptr b = memory_.Malloc(32, "b");
  memory_.WriteBytes(b, "BBBBBBBB");
  RunResult result = RunAsProcess([&] {
    // Overrun a by 64 bytes: crosses the gap and all of b.
    for (int i = 0; i < 96; ++i) {
      memory_.WriteU8(a + i, 'A');
    }
  });
  if (GetParam() == AccessPolicy::kBoundsCheck) {
    EXPECT_EQ(result.status, ExitStatus::kBoundsTerminated);
  } else {
    EXPECT_TRUE(result.ok());
  }
  // b is intact under every checked policy (wrap redirects into *a*, not b).
  EXPECT_EQ(memory_.ReadBytesAsString(b, 8), "BBBBBBBB");
}

TEST_P(PolicyTest, StandardWritePhysicallyLands) {
  if (GetParam() != AccessPolicy::kStandard) {
    GTEST_SKIP();
  }
  Ptr a = memory_.Malloc(32, "a");
  Ptr b = memory_.Malloc(32, "b");
  int64_t delta = b - a;
  memory_.WriteU8(a + delta, 'X');  // out of bounds of a, lands on b
  EXPECT_EQ(memory_.ReadU8(b), 'X');
}

TEST_P(PolicyTest, UnmappedAccessSegfaultsOnlyStandard) {
  Ptr wild(0x500, kInvalidUnit);  // inside the null guard
  RunResult result = RunAsProcess([&] { memory_.WriteU8(wild, 1); });
  switch (GetParam()) {
    case AccessPolicy::kStandard:
      EXPECT_EQ(result.status, ExitStatus::kSegfault);
      break;
    case AccessPolicy::kBoundsCheck:
      EXPECT_EQ(result.status, ExitStatus::kBoundsTerminated);
      break;
    default:
      EXPECT_TRUE(result.ok());
  }
}

// Standard's raw writes across the edge of a mapped region: the mapped
// prefix lands and the process faults at the first unmapped byte, whether
// the bytes go one scalar WriteU8 at a time or as one span through
// AccessCursor's raw block write. The edges are the heap's end, the top of
// the stack's pad, and the end of globals (the globals-heap gap).
TEST(RegionEdgeTest, StandardWriteFaultsAtFirstUnmappedByte) {
  const Addr edges[] = {
      Memory::kHeapBase + Shard::kHeapBytes,
      Memory::kStackLow + Shard::kStackBytes + Stack::kTopPad,
      Memory::kGlobalBase + Shard::kGlobalBytes,
  };
  const uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (Addr edge : edges) {
    for (bool span : {false, true}) {
      SCOPED_TRACE(::testing::Message() << std::hex << "edge 0x" << edge
                                        << (span ? " span" : " scalar"));
      Memory m(AccessPolicy::kStandard);
      Ptr p(edge - 4, kInvalidUnit);
      RunResult result = RunAsProcess([&] {
        if (span) {
          m.WriteSpan(p, bytes, sizeof(bytes));
        } else {
          for (size_t i = 0; i < sizeof(bytes); ++i) {
            m.WriteU8(p + static_cast<int64_t>(i), bytes[i]);
          }
        }
      });
      EXPECT_EQ(result.status, ExitStatus::kSegfault);
      std::ostringstream fault_addr;
      fault_addr << "unmapped address 0x" << std::hex << edge;
      EXPECT_NE(result.detail.find(fault_addr.str()), std::string::npos) << result.detail;
      uint8_t landed[4] = {0, 0, 0, 0};
      ASSERT_TRUE(m.space().Read(edge - 4, landed, sizeof(landed)));
      EXPECT_EQ(std::vector<uint8_t>(landed, landed + 4), std::vector<uint8_t>(bytes, bytes + 4));
      uint8_t beyond = 0;
      EXPECT_FALSE(m.space().Read(edge, &beyond, 1));
    }
  }
}

TEST_P(PolicyTest, DanglingReadDoesNotCrashContinuingPolicies) {
  Ptr p = memory_.Malloc(16, "gone");
  memory_.Free(p);
  RunResult result = RunAsProcess([&] { (void)memory_.ReadU8(p); });
  switch (GetParam()) {
    case AccessPolicy::kStandard:
      // The heap page stays mapped, so the read succeeds silently.
      EXPECT_TRUE(result.ok());
      break;
    case AccessPolicy::kBoundsCheck:
      EXPECT_EQ(result.status, ExitStatus::kBoundsTerminated);
      break;
    default:
      EXPECT_TRUE(result.ok());
  }
}

TEST_P(PolicyTest, ErrorLogRecordsInvalidAccesses) {
  if (GetParam() == AccessPolicy::kStandard) {
    GTEST_SKIP() << "no checks, no log";
  }
  Ptr p = memory_.Malloc(8, "logged");
  RunAsProcess([&] {
    memory_.WriteU8(p + 8, 1);
    (void)memory_.ReadU8(p + 9);
  });
  EXPECT_GE(memory_.log().total_errors(), 1u);
  EXPECT_EQ(memory_.log().site(memory_.log().recent().front().site).unit_name, "logged");
}

using FailureObliviousTest = ::testing::Test;

TEST(FailureObliviousSemanticsTest, DiscardedWritePreservesOwnUnitContents) {
  Memory m(AccessPolicy::kFailureOblivious);
  Ptr p = m.Malloc(4, "tiny");
  m.WriteBytes(p, "abcd");
  m.WriteU8(p + 4, 'X');  // discarded
  EXPECT_EQ(m.ReadBytesAsString(p, 4), "abcd");
  EXPECT_EQ(m.log().write_errors(), 1u);
}

TEST(FailureObliviousSemanticsTest, ManufacturedReadsFollowPaperSequence) {
  Memory m(AccessPolicy::kFailureOblivious);
  Ptr p = m.Malloc(4, "tiny");
  // OOB reads see 0, 1, 2, 0, 1, 3, ...
  EXPECT_EQ(m.ReadU8(p + 100), 0);
  EXPECT_EQ(m.ReadU8(p + 100), 1);
  EXPECT_EQ(m.ReadU8(p + 100), 2);
  EXPECT_EQ(m.ReadU8(p + 100), 0);
  EXPECT_EQ(m.ReadU8(p + 100), 1);
  EXPECT_EQ(m.ReadU8(p + 100), 3);
}

TEST(FailureObliviousSemanticsTest, ValueSeekingLoopTerminates) {
  Memory m(AccessPolicy::kFailureOblivious);
  Ptr p = m.Malloc(4, "tiny");
  m.set_access_budget(100000);
  // The Midnight Commander pattern: scan for '/' beyond the buffer.
  Ptr cursor = p + 4;
  int steps = 0;
  while (m.ReadU8(cursor) != '/') {
    ++cursor;
    ++steps;
  }
  // '/' is 47: phase pattern yields it within 3*46 manufactured reads.
  EXPECT_LE(steps, 3 * 46);
}

TEST(FailureObliviousSemanticsTest, ZeroSequenceHangsValueSeekingLoop) {
  Memory::Config config;
  config.policy = AccessPolicy::kFailureOblivious;
  config.sequence = SequenceKind::kZeros;
  config.access_budget = 10000;
  Memory m(config);
  Ptr p = m.Malloc(4, "tiny");
  RunResult result = RunAsProcess([&] {
    Ptr cursor = p + 4;
    while (m.ReadU8(cursor) != '/') {
      ++cursor;
    }
  });
  EXPECT_EQ(result.status, ExitStatus::kBudgetExhausted);
}

TEST(FailureObliviousSemanticsTest, ReadCStringBeyondBufferTerminates) {
  Memory m(AccessPolicy::kFailureOblivious);
  // The Mutt situation: a buffer with no NUL anywhere; reads beyond the end
  // eventually return the manufactured 0 (§4.6.2 "reads beyond the end of
  // the buffer will eventually return null").
  Ptr p = m.Malloc(4, "name");
  m.WriteBytes(p, "abcd");
  std::string s = m.ReadCString(p);
  EXPECT_EQ(s.substr(0, 4), "abcd");
  EXPECT_LE(s.size(), 4 + 3u);  // 0 arrives within three manufactured values
}

TEST(BoundlessSemanticsTest, OutOfBoundsWritesAreReadableBack) {
  Memory m(AccessPolicy::kBoundless);
  Ptr p = m.Malloc(4, "small");
  m.WriteBytes(p, "abcd");
  m.WriteU8(p + 4, 'e');
  m.WriteU8(p + 5, 'f');
  EXPECT_EQ(m.ReadU8(p + 4), 'e');
  EXPECT_EQ(m.ReadU8(p + 5), 'f');
  // In-bounds part unaffected.
  EXPECT_EQ(m.ReadBytesAsString(p, 4), "abcd");
}

TEST(BoundlessSemanticsTest, NegativeOffsetsStoreToo) {
  Memory m(AccessPolicy::kBoundless);
  Ptr p = m.Malloc(4, "small");
  m.WriteU8(p - 1, 'z');
  EXPECT_EQ(m.ReadU8(p - 1), 'z');
}

TEST(BoundlessSemanticsTest, UnstoredReadsManufactureValues) {
  Memory m(AccessPolicy::kBoundless);
  Ptr p = m.Malloc(4, "small");
  EXPECT_EQ(m.ReadU8(p + 100), 0);  // first manufactured value
  EXPECT_EQ(m.ReadU8(p + 100), 1);
}

TEST(BoundlessSemanticsTest, FreeDropsStoredBytes) {
  Memory m(AccessPolicy::kBoundless);
  Ptr p = m.Malloc(4, "small");
  m.WriteU8(p + 10, 'q');
  m.Free(p);
  Ptr q = m.Malloc(4, "recycled");
  // Even if the allocator reuses the address, the stale overflow byte is
  // not visible to the new block.
  EXPECT_EQ(q.addr, p.addr);
  uint8_t v = m.ReadU8(q + 10);
  EXPECT_NE(v, 'q');
}

TEST(WrapSemanticsTest, AccessesWrapModuloUnitSize) {
  Memory m(AccessPolicy::kWrap);
  Ptr p = m.Malloc(8, "ring");
  m.WriteBytes(p, "01234567");
  m.WriteU8(p + 9, 'X');  // wraps to offset 1
  EXPECT_EQ(m.ReadU8(p + 1), 'X');
  EXPECT_EQ(m.ReadU8(p + 9), 'X');  // read wraps the same way
  m.WriteU8(p - 3, 'Y');            // negative offset wraps to size-3
  EXPECT_EQ(m.ReadU8(p + 5), 'Y');
}

TEST(StandardSemanticsTest, HeapOverrunCrashesAtFree) {
  Memory m(AccessPolicy::kStandard);
  Ptr a = m.Malloc(32, "a");
  RunResult result = RunAsProcess([&] {
    for (int i = 0; i < 64; ++i) {
      m.WriteU8(a + i, 'A');  // physically stomps footer + next header
    }
    m.Free(a);
  });
  EXPECT_EQ(result.status, ExitStatus::kHeapCorruption);
}

TEST(StandardSemanticsTest, StackOverrunCrashesAtReturn) {
  Memory m(AccessPolicy::kStandard);
  RunResult result = RunAsProcess([&] {
    Memory::Frame frame(m, "vulnerable");
    Ptr buf = frame.Local(16, "buf");
    for (int i = 0; i < 64; ++i) {
      m.WriteU8(buf + i, 'A');
    }
  });
  EXPECT_EQ(result.status, ExitStatus::kStackSmash);
  EXPECT_TRUE(result.possible_code_injection);
}

TEST(FrameTest, LocalAllocationAndCleanup) {
  Memory m(AccessPolicy::kFailureOblivious);
  {
    Memory::Frame frame(m, "f");
    Ptr local = frame.Local(32, "buf");
    m.WriteU8(local, 1);
    EXPECT_EQ(m.Classify(local, 32), PointerStatus::kInBounds);
  }
  EXPECT_EQ(m.stack().depth(), 0u);
}

TEST(FrameTest, AccessAfterFrameExitIsDangling) {
  Memory m(AccessPolicy::kFailureOblivious);
  Ptr local;
  {
    Memory::Frame frame(m, "f");
    local = frame.Local(32, "buf");
  }
  EXPECT_EQ(m.Classify(local), PointerStatus::kDangling);
  // Continuing policy: read manufactures, no crash.
  RunResult result = RunAsProcess([&] { (void)m.ReadU8(local); });
  EXPECT_TRUE(result.ok());
}

TEST(GlobalsTest, GlobalAllocationPersists) {
  Memory m(AccessPolicy::kFailureOblivious);
  Ptr g = m.AllocGlobal(128, "config");
  ASSERT_FALSE(g.IsNull());
  m.WriteBytes(g, "persistent");
  EXPECT_EQ(m.ReadBytesAsString(g, 10), "persistent");
  EXPECT_EQ(m.objects().Lookup(g.unit)->kind, UnitKind::kGlobal);
}

TEST(GlobalsTest, GlobalRegionExhaustion) {
  Memory m(AccessPolicy::kFailureOblivious);
  // Fill the fixed globals region to its last 16-byte slot.
  Ptr a = m.AllocGlobal(Shard::kGlobalBytes - 16, "big");
  EXPECT_FALSE(a.IsNull());
  Ptr b = m.AllocGlobal(16, "last");
  EXPECT_FALSE(b.IsNull());
  Ptr c = m.AllocGlobal(1, "too much");
  EXPECT_TRUE(c.IsNull());
}

TEST(FreeSemanticsTest, FreeNullIsNoOpEverywhere) {
  for (AccessPolicy policy : kAllPolicies) {
    Memory m(policy);
    EXPECT_NO_THROW(m.Free(kNullPtr)) << PolicyName(policy);
  }
}

TEST(FreeSemanticsTest, DoubleFreeContinuesUnderFailureOblivious) {
  Memory m(AccessPolicy::kFailureOblivious);
  Ptr p = m.Malloc(16, "buf");
  m.Free(p);
  RunResult result = RunAsProcess([&] { m.Free(p); });
  EXPECT_TRUE(result.ok());
  EXPECT_GE(m.log().total_errors(), 1u);
}

TEST(FreeSemanticsTest, DoubleFreeCrashesUnderStandard) {
  Memory m(AccessPolicy::kStandard);
  Ptr p = m.Malloc(16, "buf");
  m.Free(p);
  RunResult result = RunAsProcess([&] { m.Free(p); });
  EXPECT_EQ(result.status, ExitStatus::kHeapCorruption);
}

TEST(ReallocTest, ReallocNullActsAsMalloc) {
  Memory m(AccessPolicy::kFailureOblivious);
  Ptr p = m.Realloc(kNullPtr, 32);
  ASSERT_FALSE(p.IsNull());
  m.WriteU8(p, 1);
}

TEST(ReallocTest, ReallocPreservesData) {
  Memory m(AccessPolicy::kFailureOblivious);
  Ptr p = m.NewBytes("0123456789", "buf");
  Ptr q = m.Realloc(p, 100);
  EXPECT_EQ(m.ReadBytesAsString(q, 10), "0123456789");
}

TEST(AccessBudgetTest, BudgetFaultsWhenExceeded) {
  Memory::Config config;
  config.access_budget = 100;
  Memory m(config);
  Ptr p = m.Malloc(8, "buf");
  RunResult result = RunAsProcess([&] {
    for (int i = 0; i < 1000; ++i) {
      m.WriteU8(p, 1);
    }
  });
  EXPECT_EQ(result.status, ExitStatus::kBudgetExhausted);
}

TEST(PtrTest, ArithmeticKeepsReferent) {
  Ptr p(0x1000, 7);
  Ptr q = p + 100;
  EXPECT_EQ(q.unit, 7u);
  EXPECT_EQ(q.addr, 0x1064u);
  EXPECT_EQ(q - p, 100);
  q -= 100;
  EXPECT_EQ(q, p);
}

TEST(PtrTest, ComparisonUsesAddressOnly) {
  // §4.1: inequality comparisons involving out-of-bounds pointers behave
  // like raw pointer comparisons.
  Ptr a(0x1000, 1);
  Ptr oob(0x1040, 1);  // out of bounds of unit 1
  Ptr other(0x1040, 2);
  EXPECT_LT(a, oob);
  EXPECT_EQ(oob, other);
  EXPECT_TRUE(a < oob);
}

}  // namespace
}  // namespace fob
