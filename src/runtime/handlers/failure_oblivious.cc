#include "src/runtime/handlers/failure_oblivious.h"

namespace fob {

void FailureObliviousHandler::ContinueInvalidRead(Ptr p, void* dst, size_t n,
                                                  const Memory::CheckResult& check) {
  (void)p;
  (void)check;
  ManufactureRead(dst, n);
}

void FailureObliviousHandler::ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                                                   const Memory::CheckResult& check) {
  // Discard.
  (void)p;
  (void)src;
  (void)n;
  (void)check;
}

}  // namespace fob
