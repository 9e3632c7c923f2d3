// Search-space variant: discard invalid writes, manufacture *zero* for
// every invalid read. The conservative end of the manufactured-value
// spectrum in Durieux et al.'s sweep — no value sequence is consumed, so a
// value-seeking loop scanning for a nonzero byte never terminates on
// manufactured data (the harness's access budget classifies that as a
// hang).

#ifndef SRC_RUNTIME_HANDLERS_ZERO_MANUFACTURE_H_
#define SRC_RUNTIME_HANDLERS_ZERO_MANUFACTURE_H_

#include "src/runtime/handlers/policy_handler.h"

namespace fob {

class ZeroManufactureHandler : public PolicyHandler {
 public:
  using PolicyHandler::PolicyHandler;

  AccessPolicy policy() const override { return AccessPolicy::kZeroManufacture; }

  void ContinueInvalidRead(Ptr p, void* dst, size_t n,
                           const Memory::CheckResult& check) override;
  void ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                            const Memory::CheckResult& check) override;
};

}  // namespace fob

#endif  // SRC_RUNTIME_HANDLERS_ZERO_MANUFACTURE_H_
