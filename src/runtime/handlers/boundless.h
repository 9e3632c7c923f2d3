// Boundless memory blocks (§5.1): out-of-bounds writes are stored in the
// shard's paged store keyed by (data unit, offset); the corresponding
// out-of-bounds reads return the stored values.
//
// The continuations are span-batched: an n-byte invalid access splits into
// at most three contiguous segments (below the unit, inside it, above it)
// and each out-of-bounds segment goes through StoreSpan/LoadSpan — one page
// resolution per up-to-256-byte run instead of one hash lookup per byte —
// while staying observably identical to the historical per-byte loop. The
// handler also implements the OOB-run batch contract (BatchesOobRuns), which
// is what lets AccessCursor hand a whole out-of-bounds-above tail of a span
// to one call; see Memory::TryOobRunRead/Write.

#ifndef SRC_RUNTIME_HANDLERS_BOUNDLESS_H_
#define SRC_RUNTIME_HANDLERS_BOUNDLESS_H_

#include "src/runtime/handlers/policy_handler.h"

namespace fob {

class BoundlessHandler : public PolicyHandler {
 public:
  using PolicyHandler::PolicyHandler;

  AccessPolicy policy() const override { return AccessPolicy::kBoundless; }

  // Growing a block materializes the bytes the program wrote past the old
  // end — they are part of the block's logical contents (this is what lets
  // Mutt's `safe_realloc(buf, p - buf)` recover the full converted string).
  void OnReallocGrow(UnitId old_unit, Addr fresh, size_t old_size,
                     size_t new_size) override;

  bool BatchesOobRuns() const override { return true; }
  void OobRunRead(Ptr p, void* dst, size_t n, const Memory::CheckResult& check) override;
  void OobRunWrite(Ptr p, const void* src, size_t n,
                   const Memory::CheckResult& check) override;

  void ContinueInvalidRead(Ptr p, void* dst, size_t n,
                           const Memory::CheckResult& check) override;
  void ContinueInvalidWrite(Ptr p, const void* src, size_t n,
                            const Memory::CheckResult& check) override;
};

}  // namespace fob

#endif  // SRC_RUNTIME_HANDLERS_BOUNDLESS_H_
