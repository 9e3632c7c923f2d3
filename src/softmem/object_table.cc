#include "src/softmem/object_table.h"

#include <algorithm>
#include <cassert>


namespace fob {

const char* UnitKindName(UnitKind kind) {
  switch (kind) {
    case UnitKind::kHeap:
      return "heap";
    case UnitKind::kStack:
      return "stack";
    case UnitKind::kGlobal:
      return "global";
  }
  return "?";
}

size_t ObjectTable::LowerBound(Addr addr) const {
  auto it = std::lower_bound(
      by_base_.begin(), by_base_.end(), addr,
      [](const Interval& entry, Addr value) { return entry.base < value; });
  return static_cast<size_t>(it - by_base_.begin());
}

UnitId ObjectTable::Register(Addr base, size_t size, UnitKind kind, std::string name) {
  DataUnit unit;
  unit.id = static_cast<UnitId>(units_.size() + 1);
  unit.base = base;
  unit.size = size;
  unit.kind = kind;
  unit.live = true;
  unit.name = std::move(name);
  units_.push_back(unit);
  // Keep the interval vector sorted. Allocators mostly hand out ascending
  // addresses (heap bump/free-list reuse, globals) so the common insert is
  // an O(1) append; the stack, growing downward, and address reuse pay the
  // memmove.
  size_t pos = LowerBound(base);
  by_base_.insert(by_base_.begin() + static_cast<std::ptrdiff_t>(pos),
                  Interval{base, unit.id});
  return unit.id;
}

void ObjectTable::Retire(UnitId id) {
  if (id == kInvalidUnit || id > units_.size()) {
    return;
  }
  DataUnit& unit = units_[id - 1];
  if (!unit.live) {
    return;
  }
  unit.live = false;
  ++retire_epoch_;
  // Only live units are indexed, so the base locates exactly this unit's
  // slot (several dead units may have shared the base over time, but only
  // one live unit can).
  size_t pos = LowerBound(unit.base);
  if (pos < by_base_.size() && by_base_[pos].base == unit.base && by_base_[pos].id == id) {
    by_base_.erase(by_base_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
}

const DataUnit* ObjectTable::Lookup(UnitId id) const {
  if (id == kInvalidUnit || id > units_.size()) {
    return nullptr;
  }
  return &units_[id - 1];
}

const DataUnit* ObjectTable::LookupByAddress(Addr addr) const {
  // Last entry with base <= addr.
  size_t pos = LowerBound(addr);
  if (pos < by_base_.size() && by_base_[pos].base == addr) {
    return &units_[by_base_[pos].id - 1];
  }
  if (pos == 0) {
    return nullptr;
  }
  const DataUnit& unit = units_[by_base_[pos - 1].id - 1];
  if (unit.size == 0) {
    return addr == unit.base ? &unit : nullptr;
  }
  if (addr >= unit.base && addr - unit.base < unit.size) {
    return &unit;
  }
  return nullptr;
}

}  // namespace fob
