// The paper's policy (§1.1, §3): discard invalid writes, manufacture values
// for invalid reads, continue executing.

#ifndef SRC_RUNTIME_HANDLERS_FAILURE_OBLIVIOUS_H_
#define SRC_RUNTIME_HANDLERS_FAILURE_OBLIVIOUS_H_

#include "src/runtime/handlers/policy_handler.h"

namespace fob {

class FailureObliviousHandler : public PolicyHandler {
 public:
  using PolicyHandler::PolicyHandler;

  AccessPolicy policy() const override { return AccessPolicy::kFailureOblivious; }

  void ContinueInvalidRead(Ptr p, void* dst, size_t n,
                           const Memory::CheckResult& check) override;
  void ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                            const Memory::CheckResult& check) override;
};

}  // namespace fob

#endif  // SRC_RUNTIME_HANDLERS_FAILURE_OBLIVIOUS_H_
