// Wrap (§5.1): redirect out-of-bounds accesses back into the accessed data
// unit at the offset modulo the unit size.

#ifndef SRC_RUNTIME_HANDLERS_WRAP_H_
#define SRC_RUNTIME_HANDLERS_WRAP_H_

#include "src/runtime/handlers/policy_handler.h"

namespace fob {

class WrapHandler : public PolicyHandler {
 public:
  using PolicyHandler::PolicyHandler;

  AccessPolicy policy() const override { return AccessPolicy::kWrap; }

  void ContinueInvalidRead(Ptr p, void* dst, size_t n,
                           const Memory::CheckResult& check) override;
  void ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                            const Memory::CheckResult& check) override;
};

}  // namespace fob

#endif  // SRC_RUNTIME_HANDLERS_WRAP_H_
