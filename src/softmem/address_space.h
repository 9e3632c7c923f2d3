// Simulated 64-bit address space: a few fixed regions, one host buffer each.
//
// Every byte a "compiled" program can touch lives in an AddressSpace: the
// heap, the call stack and global storage each Map one region when a shard
// is built, and the mapped set never changes after that. A region is one
// contiguous zero-filled host buffer, so translating an address is a bounds
// compare against its region plus an offset into that buffer. Reads and
// writes report (rather than throw on) unmapped access so the policy layer
// (src/runtime/memory.h) can decide whether that is a simulated SIGSEGV
// (Standard compilation) or something the checker already intercepted.
//
// Addresses below kNullGuardSize are never mappable, so null pointer
// dereferences and small null-plus-offset dereferences fault like they do on
// a real OS.

#ifndef SRC_SOFTMEM_ADDRESS_SPACE_H_
#define SRC_SOFTMEM_ADDRESS_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Maps the pages overlapping [base, base+size) as one new zero-filled
  // region; pages inside the null guard are left out. A region must neither
  // overlap nor abut one already mapped.
  void Map(Addr base, size_t size);

  // Copies n bytes out of / into simulated memory. Returns false if any
  // byte of the range is unmapped; a range that runs past its region's end
  // copies the mapped prefix first, matching the byte-at-a-time behaviour
  // of a real fault.
  [[nodiscard]] bool Read(Addr addr, void* dst, size_t n) const;
  [[nodiscard]] bool Write(Addr addr, const void* src, size_t n);

  // memset over simulated memory; same unmapped semantics as Write.
  [[nodiscard]] bool Fill(Addr addr, uint8_t value, size_t n);

 private:
  struct Region {
    Addr base;
    size_t size;
    uint8_t* data;  // host byte of `base`
    void* mapping;  // the host mapping holding data, for munmap
    size_t mapping_bytes;
  };

  // How many bytes of [addr, addr+n) lie in addr's region, with *host set to
  // addr's host byte; 0 if addr is unmapped.
  size_t Translate(Addr addr, size_t n, uint8_t** host) const;

  std::vector<Region> regions_;
};

}  // namespace fob

#endif  // SRC_SOFTMEM_ADDRESS_SPACE_H_
