#include "src/softmem/address_space.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

namespace fob {

namespace {

// Region memory is an anonymous mapping, which the kernel zero-fills on
// first touch, so building a shard zeroes nothing up front. The buffer is
// aligned to and advised for transparent huge pages, so the pages a shard
// does touch fault in a few 2 MiB at a time rather than one 4 KiB page each.
constexpr size_t kHugePageSize = 2 << 20;

size_t RoundUpToHugePage(size_t n) { return (n + kHugePageSize - 1) & ~(kHugePageSize - 1); }

}  // namespace

AddressSpace::~AddressSpace() {
  for (const Region& region : regions_) {
    munmap(region.mapping, region.mapping_bytes);
  }
}

void AddressSpace::Map(Addr base, size_t size) {
  if (size == 0) {
    return;
  }
  Addr first = std::max(PageBaseOf(base), kNullGuardSize);
  Addr end = PageBaseOf(base + size - 1) + kPageSize;
  if (first >= end) {
    return;
  }
  for (const Region& region : regions_) {
    assert((end < region.base || first > region.base + region.size) &&
           "regions must neither overlap nor abut");
    (void)region;
  }
  Region region{first, static_cast<size_t>(end - first), nullptr, nullptr, 0};
  // One spare huge page of reservation lets data start on a huge-page
  // boundary; the unused slack is never touched, so it costs no memory.
  region.mapping_bytes = RoundUpToHugePage(region.size) + kHugePageSize;
  region.mapping = mmap(nullptr, region.mapping_bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (region.mapping == MAP_FAILED) {
    throw std::bad_alloc();
  }
  uintptr_t aligned = RoundUpToHugePage(reinterpret_cast<uintptr_t>(region.mapping));
  region.data = reinterpret_cast<uint8_t*>(aligned);
  // Advice only: where huge pages are unavailable the region still reads as
  // zeros, faulting in 4 KiB at a time.
  madvise(region.data, RoundUpToHugePage(region.size), MADV_HUGEPAGE);
  regions_.push_back(region);
}

size_t AddressSpace::Translate(Addr addr, size_t n, uint8_t** host) const {
  for (const Region& region : regions_) {
    Addr offset = addr - region.base;  // wraps past size when addr < base
    if (offset < region.size) {
      *host = region.data + offset;
      return std::min(n, static_cast<size_t>(region.size - offset));
    }
  }
  return 0;
}

bool AddressSpace::Read(Addr addr, void* dst, size_t n) const {
  uint8_t* host = nullptr;
  size_t mapped = Translate(addr, n, &host);
  if (mapped != 0) {
    std::memcpy(dst, host, mapped);
  }
  return mapped == n;
}

bool AddressSpace::Write(Addr addr, const void* src, size_t n) {
  uint8_t* host = nullptr;
  size_t mapped = Translate(addr, n, &host);
  if (mapped != 0) {
    std::memcpy(host, src, mapped);
  }
  return mapped == n;
}

bool AddressSpace::Fill(Addr addr, uint8_t value, size_t n) {
  uint8_t* host = nullptr;
  size_t mapped = Translate(addr, n, &host);
  if (mapped != 0) {
    std::memset(host, value, mapped);
  }
  return mapped == n;
}

}  // namespace fob
