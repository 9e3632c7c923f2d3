// Span/byte equivalence property.
//
// The span fast path (Memory::ReadSpan/WriteSpan, AccessCursor) advertises
// byte-loop semantics: every span operation must be observably identical to
// the equivalent ReadU8/WriteU8 loop under every policy — identical memory
// contents, identical error-log records (including access indices),
// identical manufactured-value consumption, identical fault behaviour —
// including spans that straddle a unit boundary, dangle, or cover a whole
// foreign unit. Driven by deterministic random workloads over two Memories
// built with the same configuration: one walks byte loops, one walks spans.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/access_cursor.h"
#include "src/runtime/memory.h"
#include "src/softmem/fault.h"

namespace fob {
namespace {

class Xorshift {
 public:
  explicit Xorshift(uint64_t seed) : state_(seed | 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 2685821657736338717ull;
  }
  int64_t Range(int64_t lo, int64_t hi) {  // [lo, hi)
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }

 private:
  uint64_t state_;
};

// The two Memories under comparison. Allocation is deterministic, so the
// same call sequence yields identical addresses and unit ids on both sides.
struct Pair {
  explicit Pair(AccessPolicy policy) : ref(MakeConfig(policy)), span(MakeConfig(policy)) {}

  static Memory::Config MakeConfig(AccessPolicy policy) {
    Memory::Config config;
    config.policy = policy;
    return config;
  }

  Memory ref;   // byte-at-a-time loops
  Memory span;  // ReadSpan/WriteSpan
};

// Runs op(memory, use_span) on both sides, catching simulated faults; the
// fault outcome must match exactly.
template <typename Op>
void RunBoth(Pair& pair, Op op) {
  std::optional<FaultKind> ref_fault;
  std::optional<FaultKind> span_fault;
  try {
    op(pair.ref, false);
  } catch (const Fault& fault) {
    ref_fault = fault.kind();
  }
  try {
    op(pair.span, true);
  } catch (const Fault& fault) {
    span_fault = fault.kind();
  }
  ASSERT_EQ(ref_fault.has_value(), span_fault.has_value());
  if (ref_fault.has_value()) {
    EXPECT_EQ(*ref_fault, *span_fault);
  }
}

void ExpectSameState(Pair& pair, const std::vector<Ptr>& units,
                     const std::vector<size_t>& sizes) {
  // Raw contents of every unit, read below the checked layer so the
  // comparison itself perturbs nothing.
  for (size_t u = 0; u < units.size(); ++u) {
    std::string a(sizes[u], '\0');
    std::string b(sizes[u], '\0');
    bool ra = pair.ref.space().Read(units[u].addr, a.data(), sizes[u]);
    bool rb = pair.span.space().Read(units[u].addr, b.data(), sizes[u]);
    ASSERT_EQ(ra, rb);
    EXPECT_EQ(a, b) << "unit " << u << " contents diverged";
  }
  // Access accounting and manufactured-value consumption.
  EXPECT_EQ(pair.ref.access_count(), pair.span.access_count());
  EXPECT_EQ(pair.ref.sequence().values_produced(), pair.span.sequence().values_produced());
  // Error log: totals and every retained record, field by field.
  ASSERT_EQ(pair.ref.log().total_errors(), pair.span.log().total_errors());
  const auto& ra = pair.ref.log().recent();
  const auto& rb = pair.span.log().recent();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].is_write, rb[i].is_write) << "record " << i;
    EXPECT_EQ(ra[i].addr, rb[i].addr) << "record " << i;
    EXPECT_EQ(ra[i].size, rb[i].size) << "record " << i;
    EXPECT_EQ(ra[i].unit, rb[i].unit) << "record " << i;
    EXPECT_EQ(pair.ref.log().ToString(ra[i]), pair.span.log().ToString(rb[i])) << "record " << i;
    EXPECT_EQ(ra[i].status, rb[i].status) << "record " << i;
    EXPECT_EQ(ra[i].access_index, rb[i].access_index) << "record " << i;
  }
  // Boundless store state.
  EXPECT_EQ(pair.ref.boundless().stored_bytes(), pair.span.boundless().stored_bytes());
}

void ByteLoopWrite(Memory& memory, Ptr p, const uint8_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    memory.WriteU8(p + static_cast<int64_t>(i), src[i]);
  }
}

void ByteLoopRead(Memory& memory, Ptr p, uint8_t* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = memory.ReadU8(p + static_cast<int64_t>(i));
  }
}

class SpanEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<AccessPolicy, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpanEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kAllPolicies),
                       ::testing::Values(7u, 101u, 90210u)));

TEST_P(SpanEquivalenceTest, RandomSpansMatchByteLoops) {
  auto [policy, seed] = GetParam();
  Pair pair(policy);

  // The same layout on both sides: three live units and one freed (dangling
  // referent). Offsets stray past unit ends, below bases, and across the
  // boundary between allocations.
  std::vector<size_t> sizes = {48, 96, 32};
  std::vector<Ptr> ref_units;
  std::vector<Ptr> span_units;
  for (size_t size : sizes) {
    ref_units.push_back(pair.ref.Malloc(size, "unit"));
    span_units.push_back(pair.span.Malloc(size, "unit"));
    ASSERT_EQ(ref_units.back().addr, span_units.back().addr);
  }
  Ptr ref_dead = pair.ref.Malloc(64, "dead");
  Ptr span_dead = pair.span.Malloc(64, "dead");
  pair.ref.Free(ref_dead);
  pair.span.Free(span_dead);

  Xorshift rng(seed);
  for (int step = 0; step < 300; ++step) {
    bool use_dead = rng.Next() % 8 == 0;
    size_t u = static_cast<size_t>(rng.Next() % sizes.size());
    Ptr ref_base = use_dead ? ref_dead : ref_units[u];
    Ptr span_base = use_dead ? span_dead : span_units[u];
    size_t unit_size = use_dead ? 64 : sizes[u];
    int64_t offset = rng.Range(-24, static_cast<int64_t>(unit_size) + 24);
    size_t len = static_cast<size_t>(rng.Range(0, 80));
    bool is_write = rng.Next() % 2 == 0;
    uint8_t fill = static_cast<uint8_t>(rng.Next());

    if (is_write) {
      std::vector<uint8_t> data(len);
      for (size_t i = 0; i < len; ++i) {
        data[i] = static_cast<uint8_t>(fill + i);
      }
      RunBoth(pair, [&](Memory& memory, bool span) {
        Ptr p = (span ? span_base : ref_base) + offset;
        if (span) {
          memory.WriteSpan(p, data.data(), data.size());
        } else {
          ByteLoopWrite(memory, p, data.data(), data.size());
        }
      });
    } else {
      std::vector<uint8_t> ref_out(len, 0xee);
      std::vector<uint8_t> span_out(len, 0xee);
      RunBoth(pair, [&](Memory& memory, bool span) {
        Ptr p = (span ? span_base : ref_base) + offset;
        if (span) {
          memory.ReadSpan(p, span_out.data(), len);
        } else {
          ByteLoopRead(memory, p, ref_out.data(), len);
        }
      });
      EXPECT_EQ(ref_out, span_out) << "step " << step;
    }
    if (step % 25 == 0) {
      ExpectSameState(pair, ref_units, sizes);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  ExpectSameState(pair, ref_units, sizes);
}

// A span that starts in one unit's final bytes and runs past its end is the
// paper's canonical straddling access; pin the equivalence down explicitly,
// including the continuation bytes a read returns.
TEST_P(SpanEquivalenceTest, StraddlingSpansMatch) {
  auto [policy, seed] = GetParam();
  (void)seed;
  Pair pair(policy);
  Ptr ref_a = pair.ref.Malloc(40, "a");
  Ptr span_a = pair.span.Malloc(40, "a");
  Ptr ref_b = pair.ref.Malloc(40, "b");
  Ptr span_b = pair.span.Malloc(40, "b");
  ASSERT_EQ(ref_b.addr, span_b.addr);

  uint8_t payload[32];
  for (size_t i = 0; i < sizeof(payload); ++i) {
    payload[i] = static_cast<uint8_t>(0xc0 + i);
  }
  // 10 in-bounds bytes, 22 past the end.
  RunBoth(pair, [&](Memory& memory, bool span) {
    Ptr p = (span ? span_a : ref_a) + 30;
    if (span) {
      memory.WriteSpan(p, payload, sizeof(payload));
    } else {
      ByteLoopWrite(memory, p, payload, sizeof(payload));
    }
  });
  // Read the same straddling range back.
  uint8_t ref_out[32] = {0};
  uint8_t span_out[32] = {0};
  RunBoth(pair, [&](Memory& memory, bool span) {
    Ptr p = (span ? span_a : ref_a) + 30;
    if (span) {
      memory.ReadSpan(p, span_out, sizeof(span_out));
    } else {
      ByteLoopRead(memory, p, ref_out, sizeof(ref_out));
    }
  });
  for (size_t i = 0; i < sizeof(ref_out); ++i) {
    EXPECT_EQ(ref_out[i], span_out[i]) << "byte " << i;
  }
  ExpectSameState(pair, {ref_a, ref_b}, {40, 40});
}

// The persistent cursor must keep its equivalence across a unit's death: a
// cached resolution may never serve accesses into a retired unit.
TEST_P(SpanEquivalenceTest, CursorRevalidatesAfterFree) {
  auto [policy, seed] = GetParam();
  (void)seed;
  if (policy == AccessPolicy::kStandard || policy == AccessPolicy::kBoundsCheck) {
    GTEST_SKIP() << "free-then-use is fatal under non-continuing policies";
  }
  Pair pair(policy);
  Ptr ref_p = pair.ref.Malloc(64, "victim");
  Ptr span_p = pair.span.Malloc(64, "victim");

  AccessCursor cursor(pair.span);
  // Warm the cursor with in-bounds traffic.
  for (int i = 0; i < 64; ++i) {
    pair.ref.WriteU8(ref_p + i, static_cast<uint8_t>(i));
    cursor.WriteU8(span_p + i, static_cast<uint8_t>(i));
  }
  pair.ref.Free(ref_p);
  pair.span.Free(span_p);
  // Reuse the warmed cursor on the now-dangling pointer: both sides must log
  // dangling errors and continue identically.
  uint8_t ref_out[8];
  uint8_t span_out[8];
  for (int i = 0; i < 8; ++i) {
    ref_out[i] = pair.ref.ReadU8(ref_p + i);
    span_out[i] = cursor.ReadU8(span_p + i);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ref_out[i], span_out[i]) << "byte " << i;
  }
  EXPECT_EQ(pair.ref.log().total_errors(), pair.span.log().total_errors());
  EXPECT_EQ(pair.ref.access_count(), pair.span.access_count());
}

// Stale-bounds hazard through the cursor: after the cached unit retires and
// a fresh allocation reuses its address, the warmed cursor's fallback path
// (now fronted by the page-map fast path in Memory) must classify accesses
// through the stale pointer dangling — never serve them from the fresh
// unit now owning the page — and keep byte-loop equivalence throughout.
TEST_P(SpanEquivalenceTest, CursorStaleBoundsAfterAddressReuse) {
  auto [policy, seed] = GetParam();
  (void)seed;
  if (policy == AccessPolicy::kStandard || policy == AccessPolicy::kBoundsCheck) {
    GTEST_SKIP() << "free-then-use is fatal under non-continuing policies";
  }
  Pair pair(policy);
  Ptr ref_p = pair.ref.Malloc(2 * kPageSize, "victim");
  Ptr span_p = pair.span.Malloc(2 * kPageSize, "victim");

  AccessCursor cursor(pair.span);
  for (int i = 0; i < 64; ++i) {
    pair.ref.WriteU8(ref_p + i, static_cast<uint8_t>(i));
    cursor.WriteU8(span_p + i, static_cast<uint8_t>(i));
  }
  pair.ref.Free(ref_p);
  pair.span.Free(span_p);
  // Fresh allocations reuse the freed address under new unit ids; the page
  // map now names them as the pages' owners.
  Ptr ref_fresh = pair.ref.Malloc(2 * kPageSize, "fresh");
  Ptr span_fresh = pair.span.Malloc(2 * kPageSize, "fresh");
  ASSERT_EQ(ref_fresh.addr, ref_p.addr);
  ASSERT_EQ(span_fresh.addr, span_p.addr);
  pair.ref.WriteU8(ref_fresh, 0x77);
  pair.span.WriteU8(span_fresh, 0x77);

  // Both sides access through the stale pointers: dangling on both, same
  // values, same logs — and the fresh units' bytes stay untouched.
  uint8_t ref_out[8];
  uint8_t span_out[8];
  for (int i = 0; i < 8; ++i) {
    ref_out[i] = pair.ref.ReadU8(ref_p + i);
    span_out[i] = cursor.ReadU8(span_p + i);
    pair.ref.WriteU8(ref_p + i, 0xee);
    cursor.WriteU8(span_p + i, 0xee);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ref_out[i], span_out[i]) << "byte " << i;
  }
  ExpectSameState(pair, {ref_fresh}, {2 * kPageSize});
  ASSERT_GT(pair.span.log().total_errors(), 0u);
  const MemErrorRecord last = pair.span.log().recent().back();
  EXPECT_EQ(last.status, PointerStatus::kDangling);
  EXPECT_EQ(pair.span.log().site(last.site).unit_name, "victim");
  EXPECT_EQ(pair.span.ReadU8(span_fresh), 0x77);
}

}  // namespace
}  // namespace fob
