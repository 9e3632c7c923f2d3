#include "src/softmem/stack.h"

#include <cassert>

#include "src/softmem/fault.h"

namespace fob {

namespace {
constexpr size_t kLocalAlign = 8;
constexpr std::string_view kNoFunction = "<no frame>";
}  // namespace

Stack::Stack(AddressSpace& space, ObjectTable& table, Addr low, size_t size)
    : space_(space), table_(table), low_(low), sp_(low + size) {
  assert(low >= kNullGuardSize);
  // Map a pad above the top of the stack as well: on a real process the
  // initial frames sit below argv/environ, so an overrun out of the topmost
  // frame lands in mapped memory instead of instantly faulting.
  space_.Map(low, size + kTopPad);
}

std::string_view Stack::current_function() const {
  return frames_.empty() ? kNoFunction : std::string_view(frames_.back().name);
}

void Stack::PushFrame(std::string name) {
  if (sp_ - 8 < low_) {
    throw Fault(FaultKind::kStackOverflow, "pushing frame for " + name);
  }
  FrameRecord frame;
  frame.name = std::move(name);
  frame.serial = ++last_serial_;
  frame.sp_at_entry = sp_;
  sp_ -= 8;
  frame.canary_addr = sp_;
  canary_seed_ = canary_seed_ * 6364136223846793005ull + 1442695040888963407ull;
  frame.canary_value = canary_seed_;
  bool ok = space_.Write(frame.canary_addr, &frame.canary_value, 8);
  assert(ok);
  (void)ok;
  frames_.push_back(std::move(frame));
}

Addr Stack::AllocLocal(size_t size, std::string name) {
  assert(!frames_.empty() && "AllocLocal outside any frame");
  if (size == 0) {
    size = 1;
  }
  size_t reserved = (size + kLocalAlign - 1) & ~(kLocalAlign - 1);
  if (sp_ < low_ + reserved) {
    throw Fault(FaultKind::kStackOverflow, "allocating local " + name);
  }
  sp_ -= reserved;
  FrameRecord& frame = frames_.back();
  UnitId unit = table_.Register(sp_, size, UnitKind::kStack, frame.name + "::" + std::move(name));
  frame.locals.push_back(unit);
  return sp_;
}

void Stack::RetireLocals(FrameRecord& frame) {
  for (UnitId unit : frame.locals) {
    table_.Retire(unit);
  }
}

void Stack::PopFrame() {
  assert(!frames_.empty() && "PopFrame with no frame");
  FrameRecord& frame = frames_.back();
  ++canary_checks_;
  uint64_t stored = 0;
  bool ok = space_.Read(frame.canary_addr, &stored, 8);
  assert(ok);
  (void)ok;
  if (stored != frame.canary_value) {
    // The saved "return address" was overwritten. Any overwrite is a crash;
    // an overwrite with nonzero program data is additionally the signature
    // of a code-injection attempt (attacker-controlled bytes reached the
    // return slot).
    bool injection = stored != 0;
    std::string function = frame.name;
    RetireLocals(frame);
    sp_ = frame.sp_at_entry;
    frames_.pop_back();
    throw Fault::StackSmash(function, injection);
  }
  RetireLocals(frame);
  sp_ = frame.sp_at_entry;
  frames_.pop_back();
}

void Stack::PopFrameUnchecked() {
  assert(!frames_.empty() && "PopFrameUnchecked with no frame");
  FrameRecord& frame = frames_.back();
  RetireLocals(frame);
  sp_ = frame.sp_at_entry;
  frames_.pop_back();
}

}  // namespace fob
