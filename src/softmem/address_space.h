// Sparse simulated 64-bit address space.
//
// Every byte a "compiled" program can touch lives in an AddressSpace: the
// heap, the call stack and global storage are all carved out of one of these.
// Pages are 4 KiB and allocated lazily when a region is mapped. Reads and
// writes report (rather than throw on) unmapped access so the policy layer
// (src/runtime/memory.h) can decide whether that is a simulated SIGSEGV
// (Standard compilation) or something the checker already intercepted.
//
// Addresses below kNullGuardSize are never mappable, so null pointer
// dereferences and small null-plus-offset dereferences fault like they do on
// a real OS.

#ifndef SRC_SOFTMEM_ADDRESS_SPACE_H_
#define SRC_SOFTMEM_ADDRESS_SPACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace fob {

// A simulated virtual address.
using Addr = uint64_t;

inline constexpr size_t kPageSize = 4096;
// [0, kNullGuardSize) is permanently unmapped.
inline constexpr Addr kNullGuardSize = 0x10000;

// Base address of the page containing addr.
inline constexpr Addr PageBaseOf(Addr addr) {
  return addr & ~static_cast<Addr>(kPageSize - 1);
}

class AddressSpace {
 public:
  AddressSpace() = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Maps all pages overlapping [base, base+size). New pages are zero filled.
  // Mapping an already-mapped page is a no-op (contents preserved). Attempts
  // to map inside the null guard are ignored.
  void Map(Addr base, size_t size);

  // Unmaps all pages fully contained in [base, base+size).
  void Unmap(Addr base, size_t size);

  // True iff every byte of [addr, addr+size) is mapped.
  bool IsMapped(Addr addr, size_t size) const;

  // Copies n bytes out of / into simulated memory. Returns false (and in the
  // read case leaves dst unspecified) if any byte of the range is unmapped;
  // a failed write may have written a mapped prefix, matching the byte-at-a-
  // time behaviour of a real fault.
  [[nodiscard]] bool Read(Addr addr, void* dst, size_t n) const;
  [[nodiscard]] bool Write(Addr addr, const void* src, size_t n);

  // memset over simulated memory; same unmapped semantics as Write.
  [[nodiscard]] bool Fill(Addr addr, uint8_t value, size_t n);

  size_t mapped_bytes() const { return pages_.size() * kPageSize; }
  size_t page_count() const { return pages_.size(); }

 private:
  // Direct-mapped multi-entry translation cache (a software TLB): most
  // access streams touch a small working set of pages, and real compiled
  // code pays nothing for address translation — this keeps the unchecked
  // Standard policy's cost model honest, and unlike the old 1-slot cache it
  // survives strided and multi-buffer access patterns. Page data pointers
  // are stable across map rehashes, so slots only need invalidation on
  // Unmap.
  static constexpr size_t kTranslationSlots = 64;
  struct TranslationSlot {
    Addr page = ~static_cast<Addr>(0);
    uint8_t* data = nullptr;
  };
  static size_t SlotIndex(Addr page_base) {
    return static_cast<size_t>(page_base / kPageSize) % kTranslationSlots;
  }

  uint8_t* PageData(Addr page_base);
  const uint8_t* PageData(Addr page_base) const;

  std::unordered_map<Addr, std::unique_ptr<uint8_t[]>> pages_;
  mutable std::array<TranslationSlot, kTranslationSlots> tlb_{};
};

}  // namespace fob

#endif  // SRC_SOFTMEM_ADDRESS_SPACE_H_
