// Jones-Kelly object table: maps addresses to data units.
//
// Following Jones & Kelly (1997) as enhanced by Ruwase & Lam's CRED (2004),
// every allocated object — each heap block, stack local and global — is a
// *data unit* with known base and extent. The checking code distinguishes
// legal from illegal accesses by locating the data unit a pointer was derived
// from and comparing the access range against that unit's bounds.
//
// Units are identified by a stable UnitId that survives retirement, so a
// dangling pointer can still be attributed to the (dead) unit it once
// pointed into — that is what lets the error log name the buffer a bad
// access was aimed at.

#ifndef SRC_SOFTMEM_OBJECT_TABLE_H_
#define SRC_SOFTMEM_OBJECT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/softmem/address_space.h"

namespace fob {

using UnitId = uint32_t;
inline constexpr UnitId kInvalidUnit = 0;

enum class UnitKind : uint8_t {
  kHeap,
  kStack,
  kGlobal,
};

const char* UnitKindName(UnitKind kind);

class PageMap;

struct DataUnit {
  UnitId id = kInvalidUnit;
  Addr base = 0;
  size_t size = 0;
  UnitKind kind = UnitKind::kHeap;
  bool live = false;
  std::string name;

  bool Contains(Addr addr, size_t n) const {
    return addr >= base && n <= size && addr - base <= size - n;
  }
};

class ObjectTable {
 public:
  ObjectTable() = default;
  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;

  // Registers a new live unit and returns its id. Overlapping live units are
  // a programming error in the substrate (CHECK-failed).
  UnitId Register(Addr base, size_t size, UnitKind kind, std::string name);

  // Marks the unit dead and removes it from the address index. The record
  // itself is kept so Lookup(id) can still describe it.
  void Retire(UnitId id);

  // Unit by id; nullptr if the id was never issued.
  const DataUnit* Lookup(UnitId id) const;

  // The live unit containing addr, or nullptr: a binary search over the
  // sorted interval vector, the cache-friendly analogue of CRED's splay
  // tree. Checked accesses do not need it — a pointer carries its referent
  // id, so the checking code classifies through Lookup — but allocation
  // (heap blocks, stack locals) and the tests use it to name the unit at an
  // address.
  const DataUnit* LookupByAddress(Addr addr) const;

  // The first live unit overlapping [lo, hi), or nullptr. Zero-size units
  // span one byte for overlap purposes (matching OobRegistry::Classify).
  // What PageMap refreshes a page's sole owner from on retirement.
  const DataUnit* FirstLiveOverlap(Addr lo, Addr hi) const;

  // Attaches the page-granular translation map notified on Register/Retire;
  // already-live units are reported immediately, so attach order does not
  // matter. One map per table (fob::Shard attaches its own at
  // construction); pass nullptr to detach.
  void AttachPageMap(PageMap* map);

  size_t live_count() const { return by_base_.size(); }
  size_t total_registered() const { return units_.size(); }

  // Bumped every time a unit is retired. A cached resolution of a live
  // unit's bounds (src/runtime/access_cursor.h) stays valid exactly as long
  // as this counter does not move: units never resize or change base, ids
  // are never reused, so only retirement can invalidate cached bounds.
  uint64_t retire_epoch() const { return retire_epoch_; }

 private:
  // One live unit's slot in the address index.
  struct Interval {
    Addr base = 0;
    UnitId id = kInvalidUnit;
  };

  // Position of the first index entry with base >= addr.
  size_t LowerBound(Addr addr) const;

  std::vector<DataUnit> units_;     // units_[id - 1]
  std::vector<Interval> by_base_;   // live units, sorted by base address
  uint64_t retire_epoch_ = 0;
  PageMap* page_map_ = nullptr;
};

}  // namespace fob

#endif  // SRC_SOFTMEM_OBJECT_TABLE_H_
