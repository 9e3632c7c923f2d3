// CRED safe-C compilation: terminate at the first memory error.

#ifndef SRC_RUNTIME_HANDLERS_BOUNDS_CHECK_H_
#define SRC_RUNTIME_HANDLERS_BOUNDS_CHECK_H_

#include "src/runtime/handlers/policy_handler.h"

namespace fob {

class BoundsCheckHandler : public PolicyHandler {
 public:
  using PolicyHandler::PolicyHandler;

  AccessPolicy policy() const override { return AccessPolicy::kBoundsCheck; }
  bool continues_on_error() const override { return false; }

  void ContinueInvalidRead(Ptr p, void* dst, size_t n,
                           const Memory::CheckResult& check) override;
  void ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                            const Memory::CheckResult& check) override;
};

}  // namespace fob

#endif  // SRC_RUNTIME_HANDLERS_BOUNDS_CHECK_H_
