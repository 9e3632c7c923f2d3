#include "src/runtime/shard.h"

#include "src/runtime/policy_table.h"

namespace fob {

Shard::Shard(Memory& owner, const ShardConfig& cfg)
    : config(cfg),
      policy_table(std::make_unique<PolicyTable>(owner, cfg.policy)),
      sequence(cfg.sequence),
      log(cfg.log_capacity),
      boundless(cfg.boundless_capacity) {
  heap = std::make_unique<Heap>(space, table, kHeapBase, config.heap_bytes);
  stack = std::make_unique<Stack>(space, table, kStackLow, config.stack_bytes);
  space.Map(kGlobalBase, config.global_bytes);
  global_cursor = kGlobalBase;
  global_end = kGlobalBase + config.global_bytes;
}

Shard::~Shard() = default;

}  // namespace fob
