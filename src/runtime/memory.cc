#include "src/runtime/memory.h"

#include <cassert>
#include <exception>

#include "src/runtime/access_cursor.h"
#include "src/runtime/handlers/policy_handler.h"
#include "src/runtime/policy_table.h"

namespace fob {

namespace {
Memory::Config ConfigFromSpec(const PolicySpec& spec) {
  Memory::Config config;
  config.policy = spec;
  return config;
}

// The unit name an error site is keyed on: empty when the referent id was
// never issued.
std::string_view ReferentName(const Memory::CheckResult& check) {
  return check.unit != nullptr ? std::string_view(check.unit->name) : std::string_view();
}
}  // namespace

Memory::Memory(AccessPolicy policy) : Memory(PolicySpec(policy)) {}

Memory::Memory(const PolicySpec& spec) : Memory(ConfigFromSpec(spec)) {}

Memory::Memory(const Config& config) : shard_(std::make_unique<Shard>(*this, config)) {
  handler_ = &shard_->policy_table->fallback_handler();
  uniform_ = shard_->policy_table->uniform();
}

Memory::~Memory() = default;

void Memory::Rebind(const PolicySpec& spec) {
  shard_->config.policy = spec;
  shard_->policy_table->Rebind(spec);
  handler_ = &shard_->policy_table->fallback_handler();
  uniform_ = shard_->policy_table->uniform();
}

// ---- Allocation -----------------------------------------------------------

Ptr Memory::Malloc(size_t size, std::string name) {
  Addr payload = shard_->heap->Malloc(size, std::move(name));
  if (payload == 0) {
    return kNullPtr;
  }
  return Ptr(payload, shard_->heap->BlockUnit(payload));
}

PolicyHandler& Memory::ResolveAllocHandler(Ptr p, std::optional<CheckResult>& check) {
  check = CheckAccess(p, 1);
  // Free/realloc errors are logged as writes, so the site resolves with the
  // write kind — one policy governs everything that mutates a block.
  return shard_->policy_table->ResolveSite(SiteOf(*check, AccessKind::kWrite));
}

void Memory::Free(Ptr p) {
  if (p.IsNull()) {
    return;  // free(NULL) is a no-op in every libc
  }
  Heap& heap = *shard_->heap;
  std::optional<CheckResult> check;
  PolicyHandler& handler = uniform_ ? *handler_ : ResolveAllocHandler(p, check);
  if (!handler.continues_on_error()) {
    // Both non-continuing configurations die here: Standard with the
    // allocator's own abort, BoundsCheck with its terminate-on-error
    // behaviour.
    heap.Free(p.addr);
    return;
  }
  // Continuing policies treat an invalid free like an invalid write: log it
  // and discard the operation.
  if (heap.BlockSize(p.addr) == 0) {
    if (!check.has_value()) {
      check = CheckAccess(p, 1);
    }
    LogError(/*is_write=*/true, p, 0, *check);
    return;
  }
  shard_->boundless.DropUnit(heap.BlockUnit(p.addr));
  heap.Free(p.addr);
}

Ptr Memory::Realloc(Ptr p, size_t new_size) {
  if (p.IsNull()) {
    return Malloc(new_size, "realloc");
  }
  Heap& heap = *shard_->heap;
  std::optional<CheckResult> check;
  PolicyHandler& handler = uniform_ ? *handler_ : ResolveAllocHandler(p, check);
  if (!handler.continues_on_error()) {
    Addr fresh = heap.Realloc(p.addr, new_size);
    return fresh == 0 ? kNullPtr : Ptr(fresh, heap.BlockUnit(fresh));
  }
  size_t old_size = heap.BlockSize(p.addr);
  if (old_size == 0) {
    if (!check.has_value()) {
      check = CheckAccess(p, 1);
    }
    LogError(/*is_write=*/true, p, 0, *check);
    return p;  // leave the program with its pointer; best effort
  }
  UnitId old_unit = heap.BlockUnit(p.addr);
  Addr fresh = heap.Realloc(p.addr, new_size);
  if (fresh == 0) {
    return kNullPtr;
  }
  if (new_size > old_size) {
    handler.OnReallocGrow(old_unit, fresh, old_size, new_size);
  }
  shard_->boundless.DropUnit(old_unit);
  return Ptr(fresh, heap.BlockUnit(fresh));
}

Ptr Memory::AllocGlobal(size_t size, std::string name) {
  if (size == 0) {
    size = 1;
  }
  size_t reserved = (size + 15) & ~static_cast<size_t>(15);
  if (shard_->global_cursor + reserved > Shard::kGlobalBase + Shard::kGlobalBytes) {
    return kNullPtr;
  }
  Addr base = shard_->global_cursor;
  shard_->global_cursor += reserved;
  UnitId unit = shard_->table.Register(base, size, UnitKind::kGlobal, std::move(name));
  return Ptr(base, unit);
}

// ---- Frames ----------------------------------------------------------------

Memory::Frame::Frame(Memory& memory, std::string function)
    : memory_(memory), exceptions_at_entry_(std::uncaught_exceptions()) {
  memory_.shard_->stack->PushFrame(std::move(function));
}

Memory::Frame::~Frame() noexcept(false) {
  if (std::uncaught_exceptions() > exceptions_at_entry_) {
    // The simulated process is crashing through this frame; it never
    // returns, so the canary is not consulted.
    memory_.shard_->stack->PopFrameUnchecked();
    return;
  }
  memory_.shard_->stack->PopFrame();
}

Ptr Memory::Frame::Local(size_t size, std::string name) {
  Addr base = memory_.shard_->stack->AllocLocal(size, std::move(name));
  const DataUnit* unit = memory_.shard_->table.LookupByAddress(base);
  assert(unit != nullptr);
  return Ptr(base, unit->id);
}

// ---- Checked access ---------------------------------------------------------

void Memory::BumpAccess() {
  ++shard_->accesses;
  if (shard_->config.access_budget != 0 && shard_->accesses > shard_->config.access_budget) {
    throw Fault::BudgetExhausted(shard_->config.access_budget);
  }
}

Memory::CheckResult Memory::CheckAccess(Ptr p, size_t n) const {
  CheckResult result;
  result.unit = shard_->table.Lookup(p.unit);
  result.status = OobRegistry::Classify(result.unit, p.addr, n);
  result.in_bounds = result.status == PointerStatus::kInBounds;
  return result;
}

Memory::SiteSlot& Memory::ResolveSite(const CheckResult& check, AccessKind kind) const {
  if (site_cache_generation_ != shard_->log.generation()) {
    site_cache_.fill(SiteSlot{});
    site_cache_generation_ = shard_->log.generation();
  }
  UnitId unit = check.unit != nullptr ? check.unit->id : kInvalidUnit;
  uint64_t frame = shard_->stack->current_frame_serial();
  uint64_t key = (uint64_t{unit} * 0x9e3779b97f4a7c15ull) ^ (frame * 0xc2b2ae3d27d4eb4full) ^
                 static_cast<uint64_t>(kind);
  SiteSlot& slot = site_cache_[(key * 0x9e3779b97f4a7c15ull) >> (64 - kSiteCacheBits)];
  if (slot.site == kInvalidSite || slot.unit != unit || slot.frame != frame || slot.kind != kind) {
    slot = SiteSlot{unit, frame, kind,
                    MakeSiteId(ReferentName(check), shard_->stack->current_function(), kind),
                    nullptr};
  }
  return slot;
}

SiteId Memory::SiteForAccess(Ptr p, AccessKind kind) const {
  return SiteOf(CheckAccess(p, 1), kind);
}

void Memory::LogError(bool is_write, Ptr p, size_t n, const CheckResult& check) {
  shard_->oob.Note(check.status);
  AccessKind kind = is_write ? AccessKind::kWrite : AccessKind::kRead;
  SiteSlot& slot = ResolveSite(check, kind);
  if (slot.stat == nullptr) {
    slot.stat = &shard_->log.Intern(ReferentName(check), shard_->stack->current_function(), kind);
  }
  MemErrorRecord record;
  record.addr = p.addr;
  record.size = n;
  record.unit = p.unit;
  record.status = check.status;
  record.access_index = shard_->accesses;
  shard_->log.Record(*slot.stat, record);
}

PolicyHandler& Memory::InvalidAccessHandler(const CheckResult& check, AccessKind kind) {
  return uniform_ ? *handler_ : shard_->policy_table->ResolveSite(SiteOf(check, kind));
}

size_t Memory::TryOobRunRead(Ptr p, void* dst, size_t n) {
  if (n == 0 || shard_->config.access_budget != 0) {
    return 0;
  }
  CheckResult check = CheckAccess(p, 1);
  // kOobAbove through a live referent is status-constant for every later
  // byte of the run (addresses only grow), which is what makes one
  // classification stand for all n per-byte classifications.
  if (check.status != PointerStatus::kOobAbove) {
    return 0;
  }
  PolicyHandler& handler = InvalidAccessHandler(check, AccessKind::kRead);
  if (!handler.checked() || !handler.BatchesOobRuns()) {
    return 0;
  }
  for (size_t i = 0; i < n; ++i) {
    BumpAccess();
    ++shard_->translation_misses;
    LogError(/*is_write=*/false, p + static_cast<int64_t>(i), 1, check);
  }
  handler.OobRunRead(p, dst, n, check);
  return n;
}

size_t Memory::TryOobRunWrite(Ptr p, const void* src, size_t n) {
  if (n == 0 || shard_->config.access_budget != 0) {
    return 0;
  }
  CheckResult check = CheckAccess(p, 1);
  if (check.status != PointerStatus::kOobAbove) {
    return 0;
  }
  PolicyHandler& handler = InvalidAccessHandler(check, AccessKind::kWrite);
  if (!handler.checked() || !handler.BatchesOobRuns()) {
    return 0;
  }
  for (size_t i = 0; i < n; ++i) {
    BumpAccess();
    ++shard_->translation_misses;
    LogError(/*is_write=*/true, p + static_cast<int64_t>(i), 1, check);
  }
  handler.OobRunWrite(p, src, n, check);
  return n;
}

void Memory::Write(Ptr p, const void* src, size_t n) {
  BumpAccess();
  CheckResult check = CheckAccess(p, n);
  if (check.in_bounds) {
    ++shard_->translation_hits;
    bool ok = shard_->space.Write(p.addr, src, n);
    assert(ok && "in-bounds unit memory must be mapped");
    (void)ok;
    return;
  }
  ++shard_->translation_misses;
  PolicyHandler& handler = InvalidAccessHandler(check, AccessKind::kWrite);
  // Unchecked (Standard) sites get no error record — the raw access landing
  // or segfaulting IS the continuation; see StandardHandler.
  if (handler.checked()) {
    LogError(/*is_write=*/true, p, n, check);
  }
  handler.ContinueInvalidWrite(p, src, n, check);
}

void Memory::Read(Ptr p, void* dst, size_t n) {
  BumpAccess();
  CheckResult check = CheckAccess(p, n);
  if (check.in_bounds) {
    ++shard_->translation_hits;
    bool ok = shard_->space.Read(p.addr, dst, n);
    assert(ok && "in-bounds unit memory must be mapped");
    (void)ok;
    return;
  }
  ++shard_->translation_misses;
  PolicyHandler& handler = InvalidAccessHandler(check, AccessKind::kRead);
  if (handler.checked()) {
    LogError(/*is_write=*/false, p, n, check);
  }
  handler.ContinueInvalidRead(p, dst, n, check);
}

void Memory::ReadSpan(Ptr p, void* dst, size_t n) {
  AccessCursor cursor(*this);
  cursor.Read(p, dst, n);
}

void Memory::WriteSpan(Ptr p, const void* src, size_t n) {
  AccessCursor cursor(*this);
  cursor.Write(p, src, n);
}

uint8_t Memory::ReadU8(Ptr p) {
  uint8_t v = 0;
  Read(p, &v, 1);
  return v;
}

uint16_t Memory::ReadU16(Ptr p) {
  uint16_t v = 0;
  Read(p, &v, 2);
  return v;
}

uint32_t Memory::ReadU32(Ptr p) {
  uint32_t v = 0;
  Read(p, &v, 4);
  return v;
}

uint64_t Memory::ReadU64(Ptr p) {
  uint64_t v = 0;
  Read(p, &v, 8);
  return v;
}

void Memory::WriteU8(Ptr p, uint8_t v) { Write(p, &v, 1); }
void Memory::WriteU16(Ptr p, uint16_t v) { Write(p, &v, 2); }
void Memory::WriteU32(Ptr p, uint32_t v) { Write(p, &v, 4); }
void Memory::WriteU64(Ptr p, uint64_t v) { Write(p, &v, 8); }

// ---- Host bridging -----------------------------------------------------------

Ptr Memory::NewCString(std::string_view s, std::string name) {
  Ptr p = Malloc(s.size() + 1, std::move(name));
  if (p.IsNull()) {
    return p;
  }
  if (!s.empty()) {
    Write(p, s.data(), s.size());
  }
  WriteU8(p + static_cast<int64_t>(s.size()), 0);
  return p;
}

Ptr Memory::NewBytes(std::string_view bytes, std::string name) {
  Ptr p = Malloc(bytes.size(), std::move(name));
  if (p.IsNull() || bytes.empty()) {
    return p;
  }
  Write(p, bytes.data(), bytes.size());
  return p;
}

std::string Memory::ReadCString(Ptr p, size_t limit) {
  std::string out;
  AccessCursor cursor(*this);
  for (size_t i = 0; i < limit; ++i) {
    uint8_t c = cursor.ReadU8(p + static_cast<int64_t>(i));
    if (c == 0) {
      break;
    }
    out.push_back(static_cast<char>(c));
  }
  return out;
}

std::string Memory::ReadBytesAsString(Ptr p, size_t n) {
  std::string out(n, '\0');
  if (n > 0) {
    Read(p, out.data(), n);
  }
  return out;
}

std::string Memory::ReadSpanAsString(Ptr p, size_t n) {
  std::string out(n, '\0');
  if (n > 0) {
    ReadSpan(p, out.data(), n);
  }
  return out;
}

void Memory::WriteBytes(Ptr p, std::string_view bytes) {
  if (!bytes.empty()) {
    Write(p, bytes.data(), bytes.size());
  }
}

PointerStatus Memory::Classify(Ptr p, size_t n) const {
  return OobRegistry::Classify(shard_->table.Lookup(p.unit), p.addr, n);
}

}  // namespace fob
