#include "src/runtime/handlers/bounds_check.h"

#include <sstream>

namespace fob {

namespace {
[[noreturn]] void Terminate(const char* what, size_t n, const Memory::CheckResult& check) {
  std::ostringstream os;
  os << "illegal " << what << " of " << n << " bytes, referent "
     << (check.unit != nullptr ? check.unit->name : "<unknown>");
  throw Fault::BoundsViolation(os.str());
}
}  // namespace

void BoundsCheckHandler::ContinueInvalidRead(Ptr p, void* dst, size_t n,
                                             const Memory::CheckResult& check) {
  (void)p;
  (void)dst;
  Terminate("read", n, check);
}

void BoundsCheckHandler::ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                                              const Memory::CheckResult& check) {
  (void)p;
  (void)src;
  Terminate("write", n, check);
}

}  // namespace fob
