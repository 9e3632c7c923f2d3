// Plain C compilation: no checks, no continuation.

#ifndef SRC_RUNTIME_HANDLERS_STANDARD_H_
#define SRC_RUNTIME_HANDLERS_STANDARD_H_

#include "src/runtime/handlers/policy_handler.h"

namespace fob {

// The access lands wherever the address points: out-of-bounds bytes
// physically corrupt whatever they hit, unmapped addresses are a simulated
// SIGSEGV. The runtime core classifies Standard's scalar accesses like any
// other policy's; what makes Standard unchecked is its continuation — the
// invalid access is performed raw and unlogged — and AccessCursor's raw
// block copies, which skip the checking code entirely.
class StandardHandler : public PolicyHandler {
 public:
  using PolicyHandler::PolicyHandler;

  AccessPolicy policy() const override { return AccessPolicy::kStandard; }
  bool checked() const override { return false; }
  bool continues_on_error() const override { return false; }

  // The raw access is the whole continuation.
  void ContinueInvalidRead(Ptr p, void* dst, size_t n,
                           const Memory::CheckResult& check) override;
  void ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                            const Memory::CheckResult& check) override;
};

}  // namespace fob

#endif  // SRC_RUNTIME_HANDLERS_STANDARD_H_
