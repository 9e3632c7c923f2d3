#include "src/runtime/handlers/boundless.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

namespace fob {

namespace {

// An invalid access [p, p+n) against its live referent splits into three
// contiguous index segments: [0, below) maps below the unit's base,
// [below, below + inside) lands inside the unit (the straddle case), and
// [below + inside, n) maps past its end. Either out-of-bounds segment may be
// empty; `first_offset` is the signed unit-relative offset of byte 0.
struct AccessSegments {
  int64_t first_offset = 0;
  size_t below = 0;
  size_t inside = 0;
  size_t above = 0;
};

AccessSegments SplitAccess(Addr addr, size_t n, const DataUnit& unit) {
  AccessSegments seg;
  seg.first_offset = static_cast<int64_t>(addr) - static_cast<int64_t>(unit.base);
  if (seg.first_offset < 0) {
    seg.below = std::min<size_t>(n, static_cast<size_t>(-seg.first_offset));
  }
  int64_t inside_end = std::min<int64_t>(static_cast<int64_t>(n),
                                         static_cast<int64_t>(unit.size) - seg.first_offset);
  if (inside_end > static_cast<int64_t>(seg.below)) {
    seg.inside = static_cast<size_t>(inside_end) - seg.below;
  }
  seg.above = n - seg.below - seg.inside;
  return seg;
}

}  // namespace

void BoundlessHandler::ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                                            const Memory::CheckResult& check) {
  if (check.unit == nullptr || !check.unit->live) {
    return;  // wild/dangling writes are discarded
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(src);
  AccessSegments seg = SplitAccess(p.addr, n, *check.unit);
  if (seg.below > 0) {
    boundless().StoreSpan(check.unit->id, seg.first_offset, bytes, seg.below);
  }
  if (seg.inside > 0) {
    // In-bounds bytes of a straddling access still land in the unit.
    bool ok = space().Write(p.addr + seg.below, bytes + seg.below, seg.inside);
    assert(ok);
    (void)ok;
  }
  if (seg.above > 0) {
    size_t start = seg.below + seg.inside;
    boundless().StoreSpan(check.unit->id, seg.first_offset + static_cast<int64_t>(start),
                          bytes + start, seg.above);
  }
}

void BoundlessHandler::ContinueInvalidRead(Ptr p, void* dst, size_t n,
                                           const Memory::CheckResult& check) {
  if (check.unit == nullptr || !check.unit->live) {
    ManufactureRead(dst, n);
    return;
  }
  // Return stored bytes where the program previously wrote out of bounds;
  // manufacture the rest. If nothing is stored (and no byte lands inside
  // the unit) this degenerates to exactly the failure-oblivious
  // manufactured value.
  uint8_t* out = static_cast<uint8_t*>(dst);
  uint8_t inline_present[64];
  std::unique_ptr<uint8_t[]> heap_present;
  uint8_t* present = inline_present;
  if (n > sizeof(inline_present)) {
    heap_present = std::make_unique<uint8_t[]>(n);
    present = heap_present.get();
  }
  AccessSegments seg = SplitAccess(p.addr, n, *check.unit);
  bool any_stored = seg.inside > 0;
  if (seg.below > 0) {
    any_stored |=
        boundless().LoadSpan(check.unit->id, seg.first_offset, seg.below, out, present) > 0;
  }
  if (seg.inside > 0) {
    bool ok = space().Read(p.addr + seg.below, out + seg.below, seg.inside);
    assert(ok);
    (void)ok;
    std::memset(present + seg.below, 1, seg.inside);
  }
  if (seg.above > 0) {
    size_t start = seg.below + seg.inside;
    any_stored |= boundless().LoadSpan(check.unit->id,
                                       seg.first_offset + static_cast<int64_t>(start),
                                       seg.above, out + start, present + start) > 0;
  }
  if (!any_stored) {
    ManufactureRead(dst, n);
    return;
  }
  // Fill the gaps from the sequence, in ascending address order.
  for (size_t i = 0; i < n; ++i) {
    if (!present[i]) {
      out[i] = sequence().NextByte();
    }
  }
}

void BoundlessHandler::OobRunRead(Ptr p, void* dst, size_t n,
                                  const Memory::CheckResult& check) {
  // Contract: every byte of [p, p+n) is out-of-bounds-above its live
  // referent, and the caller already logged/charged per byte. Per-byte
  // semantics: a stored byte reads back and consumes nothing; an unstored
  // byte manufactures one sequence value (ManufactureRead of one byte ==
  // NextByte).
  assert(check.unit != nullptr && check.unit->live);
  uint8_t* out = static_cast<uint8_t*>(dst);
  uint8_t inline_present[64];
  std::unique_ptr<uint8_t[]> heap_present;
  uint8_t* present = inline_present;
  if (n > sizeof(inline_present)) {
    heap_present = std::make_unique<uint8_t[]>(n);
    present = heap_present.get();
  }
  int64_t offset = static_cast<int64_t>(p.addr) - static_cast<int64_t>(check.unit->base);
  boundless().LoadSpan(check.unit->id, offset, n, out, present);
  for (size_t i = 0; i < n; ++i) {
    if (!present[i]) {
      out[i] = sequence().NextByte();
    }
  }
}

void BoundlessHandler::OobRunWrite(Ptr p, const void* src, size_t n,
                                   const Memory::CheckResult& check) {
  assert(check.unit != nullptr && check.unit->live);
  int64_t offset = static_cast<int64_t>(p.addr) - static_cast<int64_t>(check.unit->base);
  boundless().StoreSpan(check.unit->id, offset, static_cast<const uint8_t*>(src), n);
}

void BoundlessHandler::OnReallocGrow(UnitId old_unit, Addr fresh, size_t old_size,
                                     size_t new_size) {
  uint8_t data[PagedBoundlessStore::kPageBytes];
  uint8_t present[PagedBoundlessStore::kPageBytes];
  for (size_t offset = old_size; offset < new_size; offset += sizeof(data)) {
    size_t chunk = std::min(sizeof(data), new_size - offset);
    if (boundless().LoadSpan(old_unit, static_cast<int64_t>(offset), chunk, data, present) ==
        0) {
      continue;
    }
    size_t i = 0;
    while (i < chunk) {
      if (!present[i]) {
        ++i;
        continue;
      }
      size_t j = i;
      while (j < chunk && present[j]) {
        ++j;
      }
      bool ok = space().Write(fresh + offset + i, data + i, j - i);
      assert(ok);
      (void)ok;
      i = j;
    }
  }
}

}  // namespace fob
