#include "src/runtime/handlers/wrap.h"

#include <cassert>

namespace fob {

namespace {
Addr WrapTarget(const DataUnit& unit, Addr addr) {
  int64_t offset = static_cast<int64_t>(addr - unit.base);
  int64_t size = static_cast<int64_t>(unit.size);
  int64_t wrapped = ((offset % size) + size) % size;
  return unit.base + static_cast<uint64_t>(wrapped);
}
}  // namespace

void WrapHandler::ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                                       const Memory::CheckResult& check) {
  if (check.unit == nullptr || !check.unit->live || check.unit->size == 0) {
    return;
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(src);
  for (size_t i = 0; i < n; ++i) {
    bool ok = space().Write(WrapTarget(*check.unit, p.addr + i), &bytes[i], 1);
    assert(ok);
    (void)ok;
  }
}

void WrapHandler::ContinueInvalidRead(Ptr p, void* dst, size_t n,
                                      const Memory::CheckResult& check) {
  if (check.unit == nullptr || !check.unit->live || check.unit->size == 0) {
    ManufactureRead(dst, n);
    return;
  }
  uint8_t* out = static_cast<uint8_t*>(dst);
  for (size_t i = 0; i < n; ++i) {
    bool ok = space().Read(WrapTarget(*check.unit, p.addr + i), &out[i], 1);
    assert(ok);
    (void)ok;
  }
}

}  // namespace fob
