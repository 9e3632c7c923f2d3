#include "src/runtime/handlers/zero_manufacture.h"

#include <cstring>

namespace fob {

void ZeroManufactureHandler::ContinueInvalidRead(Ptr p, void* dst, size_t n,
                                                 const Memory::CheckResult& check) {
  (void)p;
  (void)check;
  std::memset(dst, 0, n);
}

void ZeroManufactureHandler::ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                                                  const Memory::CheckResult& check) {
  // Discard.
  (void)p;
  (void)src;
  (void)n;
  (void)check;
}

}  // namespace fob
