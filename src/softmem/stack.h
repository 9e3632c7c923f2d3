// Simulated call stack with per-frame canaries.
//
// The stack grows downward. Pushing a frame stores an 8-byte canary at the
// top of the frame — the stand-in for the function's saved return address.
// Locals are allocated below it, so a buffer overrun that writes upward
// through increasing addresses crosses other locals, then the canary, then
// the caller's frame, exactly like a classic stack-smashing attack. The
// corruption is detected when the function returns (PopFrame), at which point
// the simulated process takes a Fault: either a plain crash, or — if the
// attacker's bytes landed on the canary — a fault flagged as a possible
// code-injection opportunity.
//
// Frames must be managed through Memory::Frame (RAII) so that C++ unwinding
// from other Faults pops frames without re-checking canaries (a process that
// is already crashing does not "return" through its frames).

#ifndef SRC_SOFTMEM_STACK_H_
#define SRC_SOFTMEM_STACK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/softmem/address_space.h"
#include "src/softmem/object_table.h"

namespace fob {

class Stack {
 public:
  // Mapped (but unallocatable) bytes above the stack top, standing in for
  // the caller frames/argv/environ a real process has there.
  static constexpr size_t kTopPad = 4 * kPageSize;

  // Carves the stack out of [low, low+size+kTopPad); the stack pointer
  // starts at low+size and grows toward low.
  Stack(AddressSpace& space, ObjectTable& table, Addr low, size_t size);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Enters function `name`: pushes the canary and opens a frame.
  void PushFrame(std::string name);

  // Allocates a local buffer in the current frame (8-byte aligned, grows the
  // frame downward). Registers a stack data unit named "function::name".
  // Local memory is NOT cleared: it retains whatever bytes earlier frames
  // left there, faithfully reproducing uninitialized-local bugs. Throws
  // Fault{kStackOverflow} when the region is exhausted.
  Addr AllocLocal(size_t size, std::string name);

  // Returns from the current function. Verifies the canary and throws
  // Fault{kStackSmash} if it was overwritten; retires the frame's locals.
  void PopFrame();

  // Pops without the canary check; used when unwinding a crashing process.
  void PopFrameUnchecked();

  size_t depth() const { return frames_.size(); }
  // The innermost frame's function, or "<no frame>". A view into the frame
  // record (or into a constant), not a copy: valid until the frame pops.
  std::string_view current_function() const;
  // The innermost frame's serial, or 0 with no frame. Every pushed frame
  // gets a fresh serial that is never reused, so a serial fixes the
  // function name: callers may key caches on it instead of on the name.
  uint64_t current_frame_serial() const {
    return frames_.empty() ? 0 : frames_.back().serial;
  }
  Addr stack_pointer() const { return sp_; }
  uint64_t canary_checks() const { return canary_checks_; }

 private:
  struct FrameRecord {
    std::string name;
    uint64_t serial = 0;
    Addr canary_addr = 0;
    uint64_t canary_value = 0;
    Addr sp_at_entry = 0;
    std::vector<UnitId> locals;
  };

  void RetireLocals(FrameRecord& frame);

  AddressSpace& space_;
  ObjectTable& table_;
  Addr low_;
  Addr sp_;
  std::vector<FrameRecord> frames_;
  uint64_t canary_seed_ = 0x52455441444452aaull;  // varied per frame
  uint64_t last_serial_ = 0;
  uint64_t canary_checks_ = 0;
};

}  // namespace fob

#endif  // SRC_SOFTMEM_STACK_H_
