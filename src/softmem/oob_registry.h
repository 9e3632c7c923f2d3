// CRED-style out-of-bounds pointer bookkeeping.
//
// Ruwase & Lam's CRED extends Jones-Kelly by letting pointer *values* travel
// out of bounds: arithmetic that leaves an object produces an "OOB object"
// remembering the intended referent, and only dereferences are checked. Our
// fob::Ptr carries its referent unit id permanently, which subsumes the OOB
// object mechanism; this registry keeps the statistics and classification
// the OOB objects would have provided, which the error log and the §4.1
// discussion (out-of-bounds pointers used in inequality comparisons) rely on.

#ifndef SRC_SOFTMEM_OOB_REGISTRY_H_
#define SRC_SOFTMEM_OOB_REGISTRY_H_

#include <array>
#include <cstdint>

#include "src/softmem/address_space.h"
#include "src/softmem/object_table.h"

namespace fob {

// How a pointer relates to its intended referent at dereference time.
enum class PointerStatus : uint8_t {
  kInBounds,
  kNull,      // null or points into the null guard
  kOobBelow,  // before the referent's base
  kOobAbove,  // at or past the referent's end
  kDangling,  // referent retired (freed block / popped frame)
  kWild,      // referent id never issued (fabricated pointer)
};
inline constexpr size_t kPointerStatusCount = static_cast<size_t>(PointerStatus::kWild) + 1;

const char* PointerStatusName(PointerStatus status);

class OobRegistry {
 public:
  // Classifies an n-byte access at addr against its intended referent, as
  // resolved by ObjectTable::Lookup (nullptr: the id was never issued).
  static PointerStatus Classify(const DataUnit* referent, Addr addr, size_t n);

  // Records one out-of-bounds dereference attempt (for statistics).
  void Note(PointerStatus status) {
    ++total_;
    ++counts_[static_cast<size_t>(status)];
  }

  uint64_t total() const { return total_; }
  uint64_t count(PointerStatus status) const { return counts_[static_cast<size_t>(status)]; }

 private:
  uint64_t total_ = 0;
  std::array<uint64_t, kPointerStatusCount> counts_{};
};

}  // namespace fob

#endif  // SRC_SOFTMEM_OOB_REGISTRY_H_
