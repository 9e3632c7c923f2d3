#include "src/softmem/address_space.h"

#include <algorithm>
#include <cstring>


namespace fob {

void AddressSpace::Map(Addr base, size_t size) {
  if (size == 0) {
    return;
  }
  Addr first = PageBaseOf(base);
  Addr last = PageBaseOf(base + size - 1);
  for (Addr page = first;; page += kPageSize) {
    if (page >= kNullGuardSize && pages_.find(page) == pages_.end()) {
      auto data = std::make_unique<uint8_t[]>(kPageSize);
      std::memset(data.get(), 0, kPageSize);
      pages_.emplace(page, std::move(data));
    }
    if (page == last) {
      break;
    }
  }
}

void AddressSpace::Unmap(Addr base, size_t size) {
  if (size == 0) {
    return;
  }
  Addr first = PageBaseOf(base);
  Addr last = PageBaseOf(base + size - 1);
  for (Addr page = first;; page += kPageSize) {
    // Only unmap pages fully inside the range.
    if (page >= base && page + kPageSize <= base + size) {
      // Drop the TLB slot with the page it points into: a later Map of the
      // same page allocates fresh storage, and serving reads or writes
      // through the stale cached pointer would touch freed memory.
      TranslationSlot& slot = tlb_[SlotIndex(page)];
      if (slot.page == page) {
        slot = TranslationSlot{};
      }
      pages_.erase(page);
    }
    if (page == last) {
      break;
    }
  }
}

bool AddressSpace::IsMapped(Addr addr, size_t size) const {
  if (size == 0) {
    size = 1;
  }
  Addr first = PageBaseOf(addr);
  Addr last = PageBaseOf(addr + size - 1);
  for (Addr page = first;; page += kPageSize) {
    if (pages_.find(page) == pages_.end()) {
      return false;
    }
    if (page == last) {
      break;
    }
  }
  return true;
}

uint8_t* AddressSpace::PageData(Addr page_base) {
  TranslationSlot& slot = tlb_[SlotIndex(page_base)];
  if (slot.page == page_base) {
    return slot.data;
  }
  auto it = pages_.find(page_base);
  if (it == pages_.end()) {
    return nullptr;
  }
  slot.page = page_base;
  slot.data = it->second.get();
  return it->second.get();
}

const uint8_t* AddressSpace::PageData(Addr page_base) const {
  TranslationSlot& slot = tlb_[SlotIndex(page_base)];
  if (slot.page == page_base) {
    return slot.data;
  }
  auto it = pages_.find(page_base);
  if (it == pages_.end()) {
    return nullptr;
  }
  slot.page = page_base;
  slot.data = it->second.get();
  return it->second.get();
}

bool AddressSpace::Read(Addr addr, void* dst, size_t n) const {
  uint8_t* out = static_cast<uint8_t*>(dst);
  while (n > 0) {
    Addr page = PageBaseOf(addr);
    const uint8_t* data = PageData(page);
    if (data == nullptr) {
      return false;
    }
    size_t offset = static_cast<size_t>(addr - page);
    size_t chunk = std::min(n, kPageSize - offset);
    std::memcpy(out, data + offset, chunk);
    out += chunk;
    addr += chunk;
    n -= chunk;
  }
  return true;
}

bool AddressSpace::Write(Addr addr, const void* src, size_t n) {
  const uint8_t* in = static_cast<const uint8_t*>(src);
  while (n > 0) {
    Addr page = PageBaseOf(addr);
    uint8_t* data = PageData(page);
    if (data == nullptr) {
      return false;
    }
    size_t offset = static_cast<size_t>(addr - page);
    size_t chunk = std::min(n, kPageSize - offset);
    std::memcpy(data + offset, in, chunk);
    in += chunk;
    addr += chunk;
    n -= chunk;
  }
  return true;
}

bool AddressSpace::Fill(Addr addr, uint8_t value, size_t n) {
  while (n > 0) {
    Addr page = PageBaseOf(addr);
    uint8_t* data = PageData(page);
    if (data == nullptr) {
      return false;
    }
    size_t offset = static_cast<size_t>(addr - page);
    size_t chunk = std::min(n, kPageSize - offset);
    std::memset(data + offset, value, chunk);
    addr += chunk;
    n -= chunk;
  }
  return true;
}

}  // namespace fob
