// Per-site policy selection: SiteId + PolicySpec.
//
// The paper applies one continuation policy to the whole program, but the
// follow-up literature treats the policy as a *per-error-site* choice:
// Durieux et al. ("Exhaustive Exploration of the Failure-oblivious Computing
// Search Space") enumerate policy combinations over the error sites a
// workload exhibits, and Rigger et al. ("Context-aware Failure-oblivious
// Computing") pick the continuation per access context.
//
// A *site* is the stable identity of an access context: the name of the data
// unit the pointer was derived from (the allocation/local/global name), the
// innermost simulated stack frame, and whether the access is a read or a
// write. Allocation names and frame functions are deterministic in this
// runtime, so SiteId is reproducible across runs of the same workload — a
// baseline run's error log names exactly the sites a sweep can then assign
// policies to.
//
// A PolicySpec maps SiteId -> AccessPolicy with a fallback for unlisted
// sites. It is implicitly constructible from a bare AccessPolicy, so every
// pre-existing "one policy per Memory" call site reads as a uniform spec.
// The runtime-side resolver that turns the chosen AccessPolicy into a live
// PolicyHandler is PolicyTable (src/runtime/policy_table.h).

#ifndef SRC_RUNTIME_POLICY_SPEC_H_
#define SRC_RUNTIME_POLICY_SPEC_H_

#include <cstdint>
#include <map>
#include <string_view>

#include "src/runtime/policy.h"

namespace fob {

enum class AccessKind : uint8_t { kRead, kWrite };

const char* AccessKindName(AccessKind kind);

// Stable 64-bit site identity (FNV-1a over unit name, frame function and
// access kind). kInvalidSite is never produced by MakeSiteId.
using SiteId = uint64_t;
inline constexpr SiteId kInvalidSite = 0;

SiteId MakeSiteId(std::string_view unit_name, std::string_view function, AccessKind kind);

class PolicySpec {
 public:
  // Implicit on purpose: a bare AccessPolicy *is* the uniform spec, which
  // keeps the legacy single-policy constructors and call sites source
  // compatible.
  PolicySpec(AccessPolicy uniform = AccessPolicy::kFailureOblivious)  // NOLINT
      : fallback_(uniform) {}

  static PolicySpec Uniform(AccessPolicy policy) { return PolicySpec(policy); }

  // Assigns a policy to one site; returns *this for chaining.
  PolicySpec& Set(SiteId site, AccessPolicy policy) {
    overrides_[site] = policy;
    return *this;
  }

  AccessPolicy Resolve(SiteId site) const {
    auto it = overrides_.find(site);
    return it != overrides_.end() ? it->second : fallback_;
  }

  AccessPolicy fallback() const { return fallback_; }

  // True when no per-site overrides exist. Uniform specs continue every
  // invalid access through Memory's one bound fallback handler
  // (bit-identical to the pre-PolicySpec runtime); any override — even one
  // that maps to the fallback policy — resolves each invalid access's site
  // to its handler.
  bool uniform() const { return overrides_.empty(); }

  const std::map<SiteId, AccessPolicy>& overrides() const { return overrides_; }

 private:
  AccessPolicy fallback_;
  std::map<SiteId, AccessPolicy> overrides_;
};

}  // namespace fob

#endif  // SRC_RUNTIME_POLICY_SPEC_H_
