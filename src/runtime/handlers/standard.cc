#include "src/runtime/handlers/standard.h"

namespace fob {

void StandardHandler::ContinueInvalidRead(Ptr p, void* dst, size_t n,
                                          const Memory::CheckResult& check) {
  (void)check;
  if (!space().Read(p.addr, dst, n)) {
    throw Fault::Segfault(p.addr);
  }
}

void StandardHandler::ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                                           const Memory::CheckResult& check) {
  (void)check;
  // A failed write may have landed a mapped prefix, matching the
  // byte-at-a-time behaviour of a real fault.
  if (!space().Write(p.addr, src, n)) {
    throw Fault::Segfault(p.addr);
  }
}

}  // namespace fob
