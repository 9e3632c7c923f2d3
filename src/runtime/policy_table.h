// PolicyTable: the runtime-side resolver from SiteId to PolicyHandler.
//
// One PolicyTable is owned by each fob::Memory. It holds the PolicySpec the
// Memory was configured with plus a lazily-constructed bank of handler
// instances, one per AccessPolicy actually used. Resolution is two steps:
// spec (SiteId -> AccessPolicy, with the fallback for unlisted sites), then
// bank (AccessPolicy -> the Memory's handler instance for that policy).
//
// Handlers are per-Memory singletons, so stateful policies (Threshold's
// error counter, Boundless' store interactions) accumulate across all sites
// that resolve to the same policy — matching what a whole-program
// compilation of that policy would do.

#ifndef SRC_RUNTIME_POLICY_TABLE_H_
#define SRC_RUNTIME_POLICY_TABLE_H_

#include <array>
#include <memory>

#include "src/runtime/handlers/policy_handler.h"
#include "src/runtime/policy_spec.h"

namespace fob {

class PolicyTable {
 public:
  PolicyTable(Memory& memory, const PolicySpec& spec) : memory_(memory), spec_(spec) {}
  PolicyTable(const PolicyTable&) = delete;
  PolicyTable& operator=(const PolicyTable&) = delete;

  const PolicySpec& spec() const { return spec_; }
  bool uniform() const { return spec_.uniform(); }

  // Replaces the SiteId -> AccessPolicy mapping of a *live* table, effective
  // from the next resolution. The handler bank is kept: stateful policies
  // (Threshold's error counter, Boundless' store) carry their accumulated
  // state across the respec, exactly as a whole-program recompilation would
  // not reset a running process. This is the epoch-boundary hook the
  // adaptive controller (src/runtime/adaptive.h) uses to promote/demote
  // sites without discarding the shard. Callers going through Memory must
  // use Memory::Rebind, which also refreshes the façade's bound fallback
  // handler.
  void Rebind(const PolicySpec& spec) { spec_ = spec; }

  // The handler accesses use when the site has no override (and the only
  // handler a uniform table ever consults).
  PolicyHandler& fallback_handler() { return HandlerFor(spec_.fallback()); }

  // SiteId -> handler, with the default fallback.
  PolicyHandler& ResolveSite(SiteId site) { return HandlerFor(spec_.Resolve(site)); }

  // AccessPolicy -> this Memory's handler instance (lazily constructed).
  PolicyHandler& HandlerFor(AccessPolicy policy) {
    std::unique_ptr<PolicyHandler>& slot = bank_[PolicyIndex(policy)];
    if (slot == nullptr) {
      slot = MakePolicyHandler(policy, memory_);
    }
    return *slot;
  }

 private:
  Memory& memory_;
  PolicySpec spec_;
  std::array<std::unique_ptr<PolicyHandler>, kPolicyCount> bank_;
};

}  // namespace fob

#endif  // SRC_RUNTIME_POLICY_TABLE_H_
