// Search-space variant: continue failure-obliviously until
// Memory::Config::error_threshold invalid accesses have been continued,
// then terminate like Bounds Check. Bounds the damage an error-looping site
// can do (and the log noise it generates) while preserving availability
// through bounded error bursts — one of the policy axes Durieux et al.'s
// exhaustive exploration sweeps over.

#ifndef SRC_RUNTIME_HANDLERS_THRESHOLD_H_
#define SRC_RUNTIME_HANDLERS_THRESHOLD_H_

#include <cstdint>

#include "src/runtime/handlers/policy_handler.h"

namespace fob {

class ThresholdHandler : public PolicyHandler {
 public:
  using PolicyHandler::PolicyHandler;

  AccessPolicy policy() const override { return AccessPolicy::kThreshold; }

  uint64_t errors_continued() const { return errors_continued_; }

  void ContinueInvalidRead(Ptr p, void* dst, size_t n,
                           const Memory::CheckResult& check) override;
  void ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                            const Memory::CheckResult& check) override;

 private:
  // Charges one continuation against the budget; the continuation that
  // would exceed it terminates the program instead (the error is already in
  // the log, like Bounds Check's terminating error).
  void ChargeError();

  uint64_t errors_continued_ = 0;
};

}  // namespace fob

#endif  // SRC_RUNTIME_HANDLERS_THRESHOLD_H_
