#include "src/runtime/handlers/threshold.h"

#include <sstream>

namespace fob {

void ThresholdHandler::ChargeError() {
  if (errors_continued_ >= config().error_threshold) {
    std::ostringstream os;
    os << "error threshold exceeded: " << errors_continued_
       << " invalid accesses already continued";
    throw Fault::BoundsViolation(os.str());
  }
  ++errors_continued_;
}

void ThresholdHandler::ContinueInvalidRead(Ptr p, void* dst, size_t n,
                                           const Memory::CheckResult& check) {
  (void)p;
  (void)check;
  ChargeError();
  ManufactureRead(dst, n);
}

void ThresholdHandler::ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                                            const Memory::CheckResult& check) {
  (void)p;
  (void)src;
  (void)n;
  (void)check;
  ChargeError();
}

}  // namespace fob
