// Checked-access cost vs live-object population (google-benchmark; CI
// records BENCH_check_cost.json in the perf trajectory, and the perf-smoke
// gate — tools/check_perf_smoke.py — fails the build if the checked/raw
// scalar-read ratio regresses past its bound).
//
// A Jones-Kelly checker that searches the object table by address on every
// access pays a cost that grows with the live-object population — the curve
// that explains why allocation-heavy servers (Pine, Sendmail, Mutt) see the
// paper's largest slowdowns. Here the pointer carries its referent id, so
// the checking code classifies every scalar access, under every policy,
// with an id-indexed lookup and no search. Standard differs only in what
// it does with an invalid access, so on these valid-access loops the
// checked/Standard gap should be noise:
//
//   * BM_CheckCost{Standard,FailureOblivious,MixedSpec}/N — sequential
//     scalar reads over a page-aligned window of one large block. Checked
//     cost should sit within a small constant of Standard and stay flat
//     in N.
//   * BM_CheckCostRandom{Standard,FailureOblivious}/{N,dist} — random
//     accesses over a 1 MiB arena: dist 0 is a uniform data-dependent
//     pointer chase (a Sattolo cycle, memcached-style hash probing), dist 1
//     is a Zipf(s=1.2) offset stream (hot-key skew), touching many
//     pages of the heap region at random.
//   * BM_ResidentProbeFailureOblivious/N — scalar reads scattered over the
//     packed 48-byte resident blocks themselves, ~85 to a page. The check
//     keys on the referent, not the page, so this should track
//     BM_CheckCostFailureOblivious/N; the perf-smoke gate pairs the two.
//
// Every benchmark emits the shard's access-check counters for the timed
// region as translation_hits (in bounds) / translation_misses (invalid) /
// hit_rate; all of these loops are valid, so hit_rate should read 1.
//
// Args: {live-blocks} or {live-blocks, dist}. Output unit: ns per access.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/resident.h"
#include "src/runtime/memory.h"
#include "src/softmem/address_space.h"

namespace fob {
namespace {

constexpr int kAccesses = 4096;

// Deterministic seed stream (no global RNG state; same offsets every run so
// hit-rate counters are reproducible).
uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// A page-aligned window of `bytes` inside a larger allocation, so the
// sequential and random loops start on a page boundary.
Ptr PageAlignedWindow(Memory& memory, size_t bytes, const std::string& name) {
  Ptr raw = memory.Malloc(bytes + kPageSize, name);
  Addr aligned = PageBaseOf(raw.addr + kPageSize - 1);
  return Ptr(aligned, raw.unit);
}

// Emits the timed region's access-check counter deltas into the benchmark
// JSON. Call with the counter snapshot taken just before the timing loop.
void EmitTranslationCounters(benchmark::State& state, const Memory& memory, uint64_t hits_before,
                             uint64_t misses_before) {
  double hits = static_cast<double>(memory.translation_hits() - hits_before);
  double misses = static_cast<double>(memory.translation_misses() - misses_before);
  state.counters["translation_hits"] = hits;
  state.counters["translation_misses"] = misses;
  state.counters["hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// Shared sequential loop: scalar byte reads over a page-aligned hot window
// against a resident heap of state.range(0) live blocks; only the Memory's
// policy spec differs per benchmark.
void RunByteReads(benchmark::State& state, Memory& memory, const std::string& label) {
  size_t blocks = static_cast<size_t>(state.range(0));
  std::vector<Ptr> resident = PopulateResidentHeap(memory, blocks, 48, "resident");
  Ptr buf = PageAlignedWindow(memory, kAccesses, "hot");
  uint64_t sink = 0;
  uint64_t hits_before = memory.translation_hits();
  uint64_t misses_before = memory.translation_misses();
  for (auto _ : state) {
    for (int i = 0; i < kAccesses; ++i) {
      sink += memory.ReadU8(buf + i);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kAccesses);
  EmitTranslationCounters(state, memory, hits_before, misses_before);
  std::string full_label = label;
  full_label.append(", ").append(std::to_string(blocks)).append(" live");
  state.SetLabel(full_label);
}

void BM_CheckCostStandard(benchmark::State& state) {
  Memory memory(AccessPolicy::kStandard);
  RunByteReads(state, memory, PolicyName(AccessPolicy::kStandard));
}

void BM_CheckCostFailureOblivious(benchmark::State& state) {
  Memory memory(AccessPolicy::kFailureOblivious);
  RunByteReads(state, memory, PolicyName(AccessPolicy::kFailureOblivious));
}

// The same curve through the per-site dispatch path: a mixed spec always
// runs the check, so this measures what context-aware per-site resolution
// adds on top of the uniform checked cost (it should be ~nothing for
// in-bounds traffic — sites are only resolved for invalid accesses).
void BM_CheckCostMixedSpec(benchmark::State& state) {
  PolicySpec spec(AccessPolicy::kFailureOblivious);
  spec.Set(MakeSiteId("resident", "", AccessKind::kWrite), AccessPolicy::kBoundsCheck);
  Memory memory(spec);
  RunByteReads(state, memory, "mixed spec");
}

// Shared random loop: u32 reads at random offsets inside a 1 MiB arena,
// with state.range(0) resident blocks as background population (checked
// cost should be flat in the population). dist = state.range(1): 0 uniform
// chase, 1 Zipf stream.
void RunRandomReads(benchmark::State& state, Memory& memory, const std::string& label) {
  constexpr size_t kArenaBytes = 1 << 20;
  size_t blocks = static_cast<size_t>(state.range(0));
  bool zipf = state.range(1) != 0;
  std::vector<Ptr> resident = PopulateResidentHeap(memory, blocks, 48, "resident");
  Ptr arena = PageAlignedWindow(memory, kArenaBytes, "arena");

  uint64_t sink = 0;
  uint64_t hits_before = 0;
  uint64_t misses_before = 0;
  if (!zipf) {
    // Uniform: a data-dependent pointer chase. Each u32 slot holds the index
    // of the next slot; Sattolo's algorithm builds one cycle covering every
    // slot, so the chase visits the arena uniformly with no fixed stride.
    constexpr uint32_t kSlots = kArenaBytes / 4;
    std::vector<uint32_t> next(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      next[i] = i;
    }
    uint64_t seed = 0x5eedc0de;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      uint32_t j = static_cast<uint32_t>(SplitMix64(seed) % i);
      uint32_t tmp = next[i];
      next[i] = next[j];
      next[j] = tmp;
    }
    for (uint32_t i = 0; i < kSlots; ++i) {
      memory.WriteU32(arena + static_cast<int64_t>(i) * 4, next[i]);
    }
    uint32_t cursor = 0;
    hits_before = memory.translation_hits();
    misses_before = memory.translation_misses();
    for (auto _ : state) {
      for (int i = 0; i < kAccesses; ++i) {
        cursor = memory.ReadU32(arena + static_cast<int64_t>(cursor) * 4);
      }
    }
    sink = cursor;
  } else {
    // Zipf(s = 1.2) over 16 K cache-line-strided slots: sample ranks from
    // the harmonic CDF, scatter rank -> slot with a multiplicative hash so
    // the hot ranks are spread across the arena's pages.
    constexpr size_t kSlots = kArenaBytes / 64;
    std::vector<double> cdf(kSlots);
    double total = 0;
    for (size_t r = 0; r < kSlots; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
      cdf[r] = total;
    }
    std::vector<int64_t> offsets(kAccesses);
    uint64_t seed = 0x2af5c0de;
    for (int i = 0; i < kAccesses; ++i) {
      double u = static_cast<double>(SplitMix64(seed) >> 11) * (1.0 / 9007199254740992.0) * total;
      size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      size_t slot = (rank * 2654435761ull) % kSlots;
      offsets[i] = static_cast<int64_t>(slot * 64);
    }
    hits_before = memory.translation_hits();
    misses_before = memory.translation_misses();
    for (auto _ : state) {
      for (int i = 0; i < kAccesses; ++i) {
        sink += memory.ReadU32(arena + offsets[i]);
      }
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kAccesses);
  EmitTranslationCounters(state, memory, hits_before, misses_before);
  std::string full_label = label;
  full_label.append(zipf ? ", zipf" : ", uniform chase")
      .append(", ")
      .append(std::to_string(blocks))
      .append(" live");
  state.SetLabel(full_label);
}

void BM_CheckCostRandomStandard(benchmark::State& state) {
  Memory memory(AccessPolicy::kStandard);
  RunRandomReads(state, memory, PolicyName(AccessPolicy::kStandard));
}

void BM_CheckCostRandomFailureOblivious(benchmark::State& state) {
  Memory memory(AccessPolicy::kFailureOblivious);
  RunRandomReads(state, memory, PolicyName(AccessPolicy::kFailureOblivious));
}

// Packed-block probe: scalar reads scattered across the packed resident
// blocks themselves, ~85 live 48-byte units to a page. Classification keys
// on each pointer's referent, so sharing a page costs nothing; the
// perf-smoke gate holds this within --max-ratio of
// BM_CheckCostFailureOblivious at the same population.
void BM_ResidentProbeFailureOblivious(benchmark::State& state) {
  Memory memory(AccessPolicy::kFailureOblivious);
  size_t blocks = static_cast<size_t>(state.range(0));
  std::vector<Ptr> resident = PopulateResidentHeap(memory, blocks, 48, "resident");
  uint64_t seed = 0xb10c5;
  std::vector<size_t> order(kAccesses);
  for (int i = 0; i < kAccesses; ++i) {
    order[i] = static_cast<size_t>(SplitMix64(seed) % resident.size());
  }
  uint64_t sink = 0;
  uint64_t hits_before = memory.translation_hits();
  uint64_t misses_before = memory.translation_misses();
  for (auto _ : state) {
    for (int i = 0; i < kAccesses; ++i) {
      sink += memory.ReadU8(resident[order[i]] + (i % 48));
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kAccesses);
  EmitTranslationCounters(state, memory, hits_before, misses_before);
  state.SetLabel("resident probe, " + std::to_string(blocks) + " live");
}

BENCHMARK(BM_CheckCostStandard)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_CheckCostFailureOblivious)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_CheckCostMixedSpec)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_CheckCostRandomStandard)
    ->Args({16, 0})
    ->Args({256, 0})
    ->Args({4096, 0})
    ->Args({16, 1})
    ->Args({256, 1})
    ->Args({4096, 1});
BENCHMARK(BM_CheckCostRandomFailureOblivious)
    ->Args({16, 0})
    ->Args({256, 0})
    ->Args({4096, 0})
    ->Args({16, 1})
    ->Args({256, 1})
    ->Args({4096, 1});
BENCHMARK(BM_ResidentProbeFailureOblivious)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace fob

BENCHMARK_MAIN();
