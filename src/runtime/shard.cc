#include "src/runtime/shard.h"

#include "src/runtime/policy_table.h"

namespace fob {

Shard::Shard(Memory& owner, const ShardConfig& cfg)
    : config(cfg),
      policy_table(std::make_unique<PolicyTable>(owner, cfg.policy)),
      sequence(cfg.sequence),
      log(cfg.log_capacity),
      boundless(cfg.boundless_capacity) {
  heap = std::make_unique<Heap>(space, table, kHeapBase, kHeapBytes);
  stack = std::make_unique<Stack>(space, table, kStackLow, kStackBytes);
  space.Map(kGlobalBase, kGlobalBytes);
  global_cursor = kGlobalBase;
}

Shard::~Shard() = default;

}  // namespace fob
