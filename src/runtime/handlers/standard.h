// Plain C compilation: no checks, no continuation.

#ifndef SRC_RUNTIME_HANDLERS_STANDARD_H_
#define SRC_RUNTIME_HANDLERS_STANDARD_H_

#include "src/runtime/handlers/policy_handler.h"

namespace fob {

// The access lands wherever the address points: out-of-bounds bytes
// physically corrupt whatever they hit, unmapped addresses are a simulated
// SIGSEGV. Skips the checking code entirely, so the measured gap between
// this handler and the checked ones is the cost of inserting dynamic checks.
class StandardHandler : public PolicyHandler {
 public:
  using PolicyHandler::PolicyHandler;

  AccessPolicy policy() const override { return AccessPolicy::kStandard; }
  bool checked() const override { return false; }
  bool continues_on_error() const override { return false; }

  void Read(Ptr p, void* dst, size_t n) override;
  void Write(Ptr p, const void* src, size_t n) override;

  // Per-site dispatch: Standard at an error site means the raw access is
  // performed unchecked (and unlogged) — the whole access IS the
  // continuation.
  void ContinueInvalidRead(Ptr p, void* dst, size_t n,
                           const Memory::CheckResult& check) override;
  void ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                            const Memory::CheckResult& check) override;
};

}  // namespace fob

#endif  // SRC_RUNTIME_HANDLERS_STANDARD_H_
