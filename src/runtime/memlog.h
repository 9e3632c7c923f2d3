// Memory-error log (§3).
//
// "To help make the errors more apparent, our compiler can optionally
//  augment the generated code to produce a log containing information about
//  the program's attempts to commit memory errors."
//
// The log is built to stay on under attack, when a request commits
// thousands of errors, so an error costs a few counter bumps and one
// fixed-size record:
//
//   * Site table. Each distinct error site — (unit name, innermost frame
//     function, access kind), identified by MakeSiteId — is interned once
//     into sites(), which holds the site's names and its exact error count.
//     Sites are few even when errors are many, so the table is unbounded and
//     a run's full error-site set survives for the search-space sweep and
//     the adaptive controller. Per-unit counts (errors_by_unit()) are
//     derived from it on demand.
//   * Records. A MemErrorRecord names its site by id and carries no
//     strings: {site, addr, size, unit, status, is_write, access_index}.
//     The `capacity` most recent records (Memory::Config::log_capacity) live
//     in a ring allocated once at construction; older ones are evicted and
//     counted in dropped(), so a multi-attack stream cannot grow a worker's
//     log without bound.
//   * Strings are built only for output: ToString(record), Summary(),
//     MemSiteStat::Label() and the echo stream (which prints exactly
//     ToString(record) per error) resolve names through the site table.
//
// The caller resolves the site once (Intern) and then records against the
// returned entry; fob::Memory caches that entry per (referent, frame, kind)
// so the steady-state error path neither hashes nor allocates. Entries stay
// valid until Clear(), which bumps generation() so such caches can tell.
//
// Per-shard logs merge deterministically: MemLog::Merge folds another log's
// aggregates, site table and ring into this one, and callers
// (Frontend::MergedLog, the harness's RunFrontendExperiment) merge in
// ascending shard-id order, so the merged view of a parallel run is
// identical no matter how the worker threads interleaved.

#ifndef SRC_RUNTIME_MEMLOG_H_
#define SRC_RUNTIME_MEMLOG_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/boundless_paged.h"
#include "src/runtime/policy_spec.h"
#include "src/softmem/address_space.h"
#include "src/softmem/object_table.h"
#include "src/softmem/oob_registry.h"

namespace fob {

// One invalid access. The unit and function names live in the owning log's
// site table under `site` (MemLog::site, MemLog::ToString).
struct MemErrorRecord {
  SiteId site = kInvalidSite;
  Addr addr = 0;
  size_t size = 0;
  UnitId unit = kInvalidUnit;  // the pointer's referent id, as dereferenced
  PointerStatus status = PointerStatus::kInBounds;
  bool is_write = false;
  uint64_t access_index = 0;
};

// One interned error site and its exact error count.
struct MemSiteStat {
  SiteId site = kInvalidSite;
  std::string unit_name;  // empty: the referent id was never issued
  std::string function;   // innermost simulated stack frame
  bool is_write = false;
  uint64_t count = 0;

  // Human-readable site label, e.g. "write capture_offsets @ try_rewrite".
  std::string Label() const;
};

class MemLog {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit MemLog(size_t capacity = kDefaultCapacity)
      : capacity_(capacity), ring_(capacity == 0 ? 1 : capacity) {}

  // The site entry for (unit name, frame function, kind), created with a
  // zero count on first sight. The reference stays valid until Clear() (or
  // until the log is assigned to or destroyed).
  // Intern only a site that is about to be recorded: sites() lists every
  // entry.
  MemSiteStat& Intern(std::string_view unit_name, std::string_view function, AccessKind kind);

  // Counts one error at `site` (an entry Intern returned on this log) and
  // keeps a record of it in the ring: addr, size, unit, status and
  // access_index from `fields`, site and is_write from the entry. The record
  // is written field by field straight into its ring slot: building it
  // whole and copying it in made the copy's wide loads wait on the narrow
  // stores that built it.
  void Record(MemSiteStat& site, const MemErrorRecord& fields) {
    ++site.count;
    ++total_;
    ++(site.is_write ? write_errors_ : read_errors_);
    MemErrorRecord& record = NextSlot();
    record.site = site.site;
    record.addr = fields.addr;
    record.size = fields.size;
    record.unit = fields.unit;
    record.status = fields.status;
    record.is_write = site.is_write;
    record.access_index = fields.access_index;
    if (echo_ != nullptr) {
      Echo(record);
    }
  }

  // Counts one error Memory::Free or Memory::Realloc logged against a bad
  // pointer (a size-0 write record, made with no access): kept apart so
  // that total_errors() - alloc_errors() is exactly the number of access
  // errors, even after their records left the ring. Bumped by those callers
  // rather than by Record, which keeps the access-error path unchanged.
  void CountAllocError() { ++alloc_errors_; }

  uint64_t total_errors() const { return total_; }
  uint64_t read_errors() const { return read_errors_; }
  uint64_t write_errors() const { return write_errors_; }
  uint64_t alloc_errors() const { return alloc_errors_; }
  // Errors per data-unit name, e.g. "prescan::buf" -> 37, summed over the
  // site table (wild accesses, which name no unit, are left out).
  std::map<std::string, uint64_t> errors_by_unit() const;
  // Errors per site id (exact: one entry per distinct site, never evicted,
  // so aggregation survives the ring bound).
  const std::map<SiteId, MemSiteStat>& sites() const { return sites_; }
  // The site a retained record occurred at.
  const MemSiteStat& site(SiteId id) const { return sites_.at(id); }
  // The retained records, oldest first (a copy of the ring).
  std::vector<MemErrorRecord> recent() const;
  // Records evicted from the bounded ring (recorded-but-no-longer-stored);
  // total_errors() == recent().size() + dropped() for an unmerged log.
  uint64_t dropped() const { return dropped_; }
  size_t capacity() const { return capacity_; }
  // Bumped by Clear(): a cached Intern result from an older generation is
  // dangling.
  uint64_t generation() const { return generation_; }

  // The operator-facing line for one record, e.g. "memory error: invalid
  // write of 1 byte at 0x... [out-of-bounds (above)] referent 'buf' in
  // parse (access #42)". `record` must be one of this log's.
  std::string ToString(const MemErrorRecord& record) const;

  // Access-check outcome counters (Shard::translation_hits/_misses: in
  // bounds vs invalid), folded in at merge points so a merged log carries
  // the whole pool's access profile alongside its error profile.
  void AddTranslationStats(uint64_t hits, uint64_t misses) {
    translation_hits_ += hits;
    translation_misses_ += misses;
  }
  uint64_t translation_hits() const { return translation_hits_; }
  uint64_t translation_misses() const { return translation_misses_; }

  // Boundless-store accounting (PagedBoundlessStore::stats()), folded in at
  // the same merge points as the translation counters. Gauges and cumulative
  // counters alike sum across shards, so a merged log's Summary shows the
  // pool-wide OOB storage profile.
  void AddBoundlessStats(const BoundlessStoreStats& stats) {
    boundless_.pages_live += stats.pages_live;
    boundless_.zero_pages_live += stats.zero_pages_live;
    boundless_.compressed_pages += stats.compressed_pages;
    boundless_.bytes_materialized += stats.bytes_materialized;
    boundless_.pages_evicted += stats.pages_evicted;
    boundless_.zero_dedup_hits += stats.zero_dedup_hits;
  }
  const BoundlessStoreStats& boundless_stats() const { return boundless_; }

  // Frontend scheduler accounting (Frontend::Stats), folded in at the same
  // merge points: requests shed at the overload watermark, whole batches
  // reassigned by the steal plan, and the high-water per-lane queue depth.
  // Shed/stolen counters sum; peak depth takes the max, so a merged log
  // reports the worst backlog any lane saw anywhere in the pool.
  void AddSchedulerStats(uint64_t shed, uint64_t stolen_batches, uint64_t peak_lane_depth) {
    shed_requests_ += shed;
    stolen_batches_ += stolen_batches;
    if (peak_lane_depth > peak_lane_depth_) {
      peak_lane_depth_ = peak_lane_depth;
    }
  }
  uint64_t shed_requests() const { return shed_requests_; }
  uint64_t stolen_batches() const { return stolen_batches_; }
  uint64_t peak_lane_depth() const { return peak_lane_depth_; }

  // Folds another shard's log into this one: aggregate counters and per-site
  // stats sum exactly; the other ring's records append in their original
  // order (evicting, and counting, the oldest beyond capacity). Merging
  // shards in ascending shard-id order is the repo's canonical deterministic
  // merge rule (see src/net/README.md).
  void Merge(const MemLog& other);

  // When set, every record is also printed to the stream as it happens.
  void set_echo(std::ostream* stream) { echo_ = stream; }

  // Administrator-facing digest: totals plus the per-buffer histogram,
  // worst offenders first. This is what the paper imagines an operator
  // reading to "detect and respond appropriately to the presence of such
  // errors" (§3).
  std::string Summary() const;

  void Clear();

 private:
  void Echo(const MemErrorRecord& record) const;
  // The ring slot for the next record. When the ring is full it is the
  // oldest record's slot, which is evicted (and counted) here. A zero-
  // capacity log hands out its one scratch slot and retains nothing.
  MemErrorRecord& NextSlot() {
    if (stored_ < capacity_) {
      size_t slot = head_ + stored_++;
      return ring_[slot >= capacity_ ? slot - capacity_ : slot];
    }
    ++dropped_;
    if (capacity_ == 0) {
      return ring_[0];
    }
    MemErrorRecord& oldest = ring_[head_];
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    return oldest;
  }

  size_t capacity_;
  // capacity_ slots (at least one, for NextSlot's scratch), allocated once.
  std::vector<MemErrorRecord> ring_;
  size_t head_ = 0;  // slot of the oldest retained record
  size_t stored_ = 0;
  uint64_t total_ = 0;
  uint64_t read_errors_ = 0;
  uint64_t write_errors_ = 0;
  uint64_t alloc_errors_ = 0;
  uint64_t dropped_ = 0;
  uint64_t generation_ = 0;
  uint64_t translation_hits_ = 0;
  uint64_t translation_misses_ = 0;
  BoundlessStoreStats boundless_;
  uint64_t shed_requests_ = 0;
  uint64_t stolen_batches_ = 0;
  uint64_t peak_lane_depth_ = 0;
  std::map<SiteId, MemSiteStat> sites_;
  std::ostream* echo_ = nullptr;
};

}  // namespace fob

#endif  // SRC_RUNTIME_MEMLOG_H_
