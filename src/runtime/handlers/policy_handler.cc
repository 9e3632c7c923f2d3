#include "src/runtime/handlers/policy_handler.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/runtime/handlers/boundless.h"
#include "src/runtime/handlers/bounds_check.h"
#include "src/runtime/handlers/failure_oblivious.h"
#include "src/runtime/handlers/standard.h"
#include "src/runtime/handlers/threshold.h"
#include "src/runtime/handlers/wrap.h"
#include "src/runtime/handlers/zero_manufacture.h"

namespace fob {

void PolicyHandler::OnReallocGrow(UnitId old_unit, Addr fresh, size_t old_size,
                                  size_t new_size) {
  (void)old_unit;
  (void)fresh;
  (void)old_size;
  (void)new_size;
}

void PolicyHandler::OobRunRead(Ptr p, void* dst, size_t n, const Memory::CheckResult& check) {
  (void)p;
  (void)dst;
  (void)n;
  (void)check;
  assert(false && "policy declared BatchesOobRuns() without overriding OobRunRead");
}

void PolicyHandler::OobRunWrite(Ptr p, const void* src, size_t n,
                                const Memory::CheckResult& check) {
  (void)p;
  (void)src;
  (void)n;
  (void)check;
  assert(false && "policy declared BatchesOobRuns() without overriding OobRunWrite");
}

void PolicyHandler::ManufactureRead(void* dst, size_t n) {
  uint8_t* out = static_cast<uint8_t*>(dst);
  if (n <= 8) {
    uint64_t value = sequence().Next();
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = sequence().NextByte();
  }
}

std::unique_ptr<PolicyHandler> MakePolicyHandler(AccessPolicy policy, Memory& memory) {
  switch (policy) {
    case AccessPolicy::kStandard:
      return std::make_unique<StandardHandler>(memory);
    case AccessPolicy::kBoundsCheck:
      return std::make_unique<BoundsCheckHandler>(memory);
    case AccessPolicy::kFailureOblivious:
      return std::make_unique<FailureObliviousHandler>(memory);
    case AccessPolicy::kBoundless:
      return std::make_unique<BoundlessHandler>(memory);
    case AccessPolicy::kWrap:
      return std::make_unique<WrapHandler>(memory);
    case AccessPolicy::kZeroManufacture:
      return std::make_unique<ZeroManufactureHandler>(memory);
    case AccessPolicy::kThreshold:
      return std::make_unique<ThresholdHandler>(memory);
  }
  // A policy with no registered handler is a substrate bug (a new enum value
  // whose factory case was forgotten); failing loudly beats silently running
  // the wrong continuation semantics through an experiment sweep.
  std::fprintf(stderr, "MakePolicyHandler: unregistered AccessPolicy %d\n",
               static_cast<int>(policy));
  std::abort();
}

}  // namespace fob
