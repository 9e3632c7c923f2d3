// Per-policy continuation strategies.
//
// Each AccessPolicy's behaviour on an invalid access is one PolicyHandler
// implementation, constructed per Memory (via its PolicyTable handler bank).
// The runtime core classifies every scalar access itself (Memory::Read/
// Write): in-bounds accesses never reach a handler. An invalid access is
// logged by the core (unless the handler is Standard, which is unchecked)
// and then handed to ContinueInvalidRead/Write on the handler it resolves
// to — the fallback handler under a uniform spec, the SiteId-resolved one
// under a mixed spec (the context-aware dispatch of Rigger et al. and the
// per-site assignments of Durieux et al.'s search-space sweep). A new
// failure-oblivious variant is a new subclass plus a factory case, with no
// change to the runtime core.
//
// See README.md in this directory for how to add a policy.

#ifndef SRC_RUNTIME_HANDLERS_POLICY_HANDLER_H_
#define SRC_RUNTIME_HANDLERS_POLICY_HANDLER_H_

#include <cstddef>
#include <memory>

#include "src/runtime/memory.h"

namespace fob {

class PolicyHandler {
 public:
  explicit PolicyHandler(Memory& memory) : mem_(memory) {}
  virtual ~PolicyHandler() = default;

  virtual AccessPolicy policy() const = 0;

  // How execution continues past an invalid access. The runtime core has
  // already charged the budget, classified the access as invalid (`check`)
  // and, for checked policies, written the error-log record.
  virtual void ContinueInvalidRead(Ptr p, void* dst, size_t n,
                                   const Memory::CheckResult& check) = 0;
  virtual void ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                                    const Memory::CheckResult& check) = 0;

  // True when an invalid access under this policy is logged (everything
  // but Standard, whose raw access is its own continuation). The span fast
  // path only caches unit bounds for checked policies; Standard block-copies
  // raw.
  virtual bool checked() const { return true; }

  // True when an invalid free/realloc is a logged no-op rather than fatal
  // (the continuing policies: failure-oblivious, boundless, wrap, and the
  // search-space variants).
  virtual bool continues_on_error() const { return true; }

  // Called by Memory::Realloc under a continuing policy after the block
  // grew, before the old unit's out-of-bounds state is dropped. Boundless
  // materializes previously captured out-of-bounds bytes here.
  virtual void OnReallocGrow(UnitId old_unit, Addr fresh, size_t old_size,
                             size_t new_size);

  // Batched continuation for a maximal run of out-of-bounds-above bytes
  // through one live referent (Memory::TryOobRunRead/Write). A policy that
  // returns true from BatchesOobRuns promises OobRunRead/Write are
  // observably identical to its per-byte ContinueInvalid* loop over the run
  // — same bytes delivered, same manufactured-sequence consumption — given
  // the caller has already charged the budget and logged one record per
  // byte. Policies without a batched form keep the default and the caller
  // falls back to the per-byte path.
  virtual bool BatchesOobRuns() const { return false; }
  virtual void OobRunRead(Ptr p, void* dst, size_t n, const Memory::CheckResult& check);
  virtual void OobRunWrite(Ptr p, const void* src, size_t n,
                           const Memory::CheckResult& check);

 protected:
  // Memory grants friendship to the base class only; subclasses reach the
  // shard bundle through these.
  AddressSpace& space() { return mem_.shard_->space; }
  const ObjectTable& table() const { return mem_.shard_->table; }
  BoundlessStore& boundless() { return mem_.shard_->boundless; }
  ValueSequence& sequence() { return mem_.shard_->sequence; }
  const Memory::Config& config() const { return mem_.shard_->config; }

  // Fills dst with the policy's manufactured-value sequence (§3): one
  // sequence value for accesses up to 8 bytes, per-byte values beyond.
  void ManufactureRead(void* dst, size_t n);

  Memory& mem_;
};

// The one place that maps AccessPolicy to its handler implementation.
std::unique_ptr<PolicyHandler> MakePolicyHandler(AccessPolicy policy, Memory& memory);

}  // namespace fob

#endif  // SRC_RUNTIME_HANDLERS_POLICY_HANDLER_H_
