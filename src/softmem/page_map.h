// Page-granular unit map: the O(1) translation layer for checked accesses.
//
// The Jones-Kelly checker's per-access cost is the object-table interval
// search. For the overwhelmingly common case — a valid access through a
// pointer whose referent is the only live unit on its page — that search is
// pure overhead: the page alone identifies the unit. The PageMap keeps one
// small record per simulated page holding the page's backing storage (the
// raw data-pointer half, fed by AddressSpace::Map/Unmap) and the page's
// *sole live owner* when exactly one live data unit overlaps the page (the
// unit half, fed by ObjectTable::Register/Retire). A checked access then
// resolves with shift+lookup: page hit whose owner is the pointer's intended
// referent, access inside the referent's extent → done, no interval search.
// A mixed page (two or more live units), a page miss, or an out-of-extent
// range falls into the full checking code (Memory::CheckAccess) —
// byte-identically, since the fast path only accepts accesses that code
// would have classified kInBounds.
//
// Coherence: the map is written only from the two places the address→unit
// relation changes — ObjectTable::Register/Retire and AddressSpace::
// Map/Unmap — both of which notify their attached PageMap (fob::Shard
// attaches one map to its space and table at construction, so the map can
// never skew from the bundle it serves). When a retire drops a page's live
// overlap count back to one, the owner is refreshed from the table (an
// O(log n) search per page, paid on retire rather than per access), so a
// page that was mixed can become sole-owned again.
//
// Ownership is tracked for every live unit; pages whose units are smaller
// than a page (packed heap blocks, stack locals) are simply mixed and keep
// today's slow-path cost. That matches the workloads this layer is for:
// large buffers, arenas and tables — Apache's request buffers, MC's hash
// probing — whose pages are sole-owned and whose accesses dominate.

#ifndef SRC_SOFTMEM_PAGE_MAP_H_
#define SRC_SOFTMEM_PAGE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "src/softmem/address_space.h"
#include "src/softmem/object_table.h"

namespace fob {

class PageMap {
 public:
  // One page's translation record. `data` is the page's backing storage
  // (nullptr while the page is unmapped); `owner` is the sole live unit
  // overlapping the page, or kInvalidUnit when the page has no live unit or
  // is mixed (overlaps != 1). The invariant owner != kInvalidUnit ⇒
  // overlaps == 1 is what the fast path relies on.
  struct Entry {
    uint8_t* data = nullptr;
    UnitId owner = kInvalidUnit;
    uint32_t overlaps = 0;
  };

  PageMap() = default;
  PageMap(const PageMap&) = delete;
  PageMap& operator=(const PageMap&) = delete;

  // ---- AddressSpace notifications (the data-pointer half) -----------------
  void OnPageMapped(Addr page_base, uint8_t* data);
  void OnPageUnmapped(Addr page_base);

  // ---- ObjectTable notifications (the unit half) --------------------------
  void OnUnitRegistered(const DataUnit& unit);
  // Called after the unit left the address index, so `table` only sees the
  // survivors — what a page's refreshed owner is computed from.
  void OnUnitRetired(const DataUnit& unit, const ObjectTable& table);

  // The record for addr's page, or nullptr. The fast-path entry point.
  const Entry* Find(Addr addr) const {
    auto it = entries_.find(PageBaseOf(addr));
    return it == entries_.end() ? nullptr : &it->second;
  }

  // ---- Introspection (tests, accounting) ----------------------------------
  UnitId OwnerOf(Addr addr) const;
  uint32_t OverlapCount(Addr addr) const;
  bool HasData(Addr addr) const;
  size_t entry_count() const { return entries_.size(); }

 private:
  // Visits each page base overlapped by the unit (zero-size units span one
  // byte for overlap purposes, matching OobRegistry::Classify's n==0 → 1).
  template <typename Fn>
  void ForEachPageOf(const DataUnit& unit, Fn&& fn);

  std::unordered_map<Addr, Entry> entries_;
};

}  // namespace fob

#endif  // SRC_SOFTMEM_PAGE_MAP_H_
