// Quickstart: the failure-oblivious runtime in 80 lines.
//
// Allocates a buffer that is too small, overflows it under each of the
// three compilations the paper compares, and shows what happens:
//   Standard          -> heap corruption, the process dies;
//   Bounds Check      -> the checker terminates the process;
//   Failure Oblivious -> writes discarded, reads manufactured, execution
//                        continues — with every error in the log.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "src/libc/cstring.h"
#include "src/runtime/memory.h"
#include "src/runtime/process.h"

int main() {
  using namespace fob;

  for (AccessPolicy policy : kPaperPolicies) {
    std::printf("=== %s compilation ===\n", PolicyName(policy));
    Memory memory(policy);

    RunResult result = RunAsProcess([&] {
      // A classic size miscalculation: 16 bytes for a 24-byte string.
      Ptr small = memory.Malloc(16, "greeting_buf");
      Ptr neighbor = memory.NewCString("precious data", "neighbor");
      Ptr text = memory.NewCString("a string of 24 characters");

      StrCpy(memory, small, text);  // overflows by 10 bytes

      std::printf("  after overflow: buf=\"%s\"\n",
                  memory.ReadBytesAsString(small, 16).c_str());
      std::printf("  neighbor intact? \"%s\"\n", memory.ReadCString(neighbor).c_str());

      // Reading past the end: under failure-oblivious execution these are
      // manufactured values (0, 1, 2, 0, 1, 3, ...).
      std::printf("  reads past the end:");
      for (int i = 0; i < 6; ++i) {
        std::printf(" %d", memory.ReadU8(small + 16 + i));
      }
      std::printf("\n");

      memory.Free(small);  // Standard compilation notices the corruption here
      std::printf("  free(buf) returned normally\n");
    });

    if (result.crashed()) {
      std::printf("  >>> process died: %s\n", ExitStatusName(result.status));
    } else {
      std::printf("  >>> process survived\n");
    }
    std::printf("  memory-error log: %llu entries\n",
                static_cast<unsigned long long>(memory.log().total_errors()));
    for (const MemErrorRecord& record : memory.log().recent()) {
      std::printf("    %s\n", memory.log().ToString(record).c_str());
    }
    std::printf("\n");
  }
  std::printf("Failure-oblivious computing: the program is oblivious to its failure\n"
              "to correctly access memory — and keeps serving its users.\n");
  return 0;
}
