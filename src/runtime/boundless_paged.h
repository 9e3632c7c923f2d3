// Paged boundless memory blocks (§5.1, citing Rinard et al., ACSAC 2004).
//
// "instead of discarding invalid writes, the generated code stores the
//  values in a hash table indexed under the data unit identifier and offset.
//  Corresponding invalid reads return the appropriate stored values. This
//  variant eliminates size calculation errors — if the program logic is
//  otherwise acceptable, the program will execute acceptably."
//
// The flat realization of that sentence (src/runtime/boundless_flat.h) pays
// one hash-table entry per out-of-bounds byte and an O(total-stored-bytes)
// scan per retired unit, so an attack spraying writes across a huge address
// range thrashes the store — the unbounded-growth hazard bounded OOB
// storage exists to prevent. This store keeps the same observable
// semantics (byte-for-byte, pinned by tests/test_boundless_paged.cc) but
// organizes OOB state as sparse fixed-size pages:
//
//   * a page (kPageBytes, 256 B) materializes on the first OOB touch of its
//     (unit, page-index) slot; memory is proportional to touched pages, not
//     touched bytes or the sprayed address range;
//   * every page carries a presence bitmap, so loads distinguish bytes the
//     program actually stored from bytes that must fall back to the
//     policy's manufactured-value sequence;
//   * pages whose stored bytes are all zero share one read-only zero page
//     (no 256 B allocation) and copy-on-write materialize on the first
//     nonzero store;
//   * DropUnit walks a per-unit page index — O(pages of that unit), not
//     O(store size) — so unit churn cannot thrash the store;
//   * a bounded-capacity mode (the ACSAC cap, page-granular) evicts whole
//     cold pages under a clock policy instead of individual FIFO bytes;
//     a cold page that is fully present with a single repeated value (the
//     signature of write-once attack spray) is compressed to one byte
//     instead of discarded, so its reads keep returning the stored value;
//   * StoreSpan/LoadSpan resolve each touched page once per up-to-256-byte
//     run, which is what lets the handler's span-batched OOB path
//     (src/runtime/handlers/boundless.cc) stop paying per-byte lookups.
//
// Offsets are signed: writes below the base of a unit are as storable as
// writes past its end. Page indices are the floor division of the offset,
// so offset -1 lands in page -1, byte 255.
//
// Accounting (BoundlessStoreStats) is per shard and flows through MemLog
// merges in ascending shard-id order, like the access-check counters;
// bench_boundless pins the spray-scaling claims against the flat
// baseline.

#ifndef SRC_RUNTIME_BOUNDLESS_PAGED_H_
#define SRC_RUNTIME_BOUNDLESS_PAGED_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/softmem/object_table.h"

namespace fob {

// Per-store accounting, folded into merged MemLogs (MemLog::AddBoundlessStats)
// so a parallel run's operator-facing Summary carries the whole pool's OOB
// storage profile. Gauges (pages_live, zero_pages_live, compressed_pages)
// and cumulative counters (the rest) both sum across shards.
struct BoundlessStoreStats {
  uint64_t pages_live = 0;          // materialized pages currently held
  uint64_t zero_pages_live = 0;     // of those, still sharing the zero page
  uint64_t compressed_pages = 0;    // evicted-to-one-byte spray pages
  uint64_t bytes_materialized = 0;  // cumulative distinct OOB bytes stored
  uint64_t pages_evicted = 0;       // pages discarded by capacity pressure
  uint64_t zero_dedup_hits = 0;     // zero stores absorbed by the zero page

  bool any() const {
    return pages_live != 0 || zero_pages_live != 0 || compressed_pages != 0 ||
           bytes_materialized != 0 || pages_evicted != 0 || zero_dedup_hits != 0;
  }
};

class PagedBoundlessStore {
 public:
  static constexpr size_t kPageBytes = 256;
  static constexpr int64_t kPageShift = 8;
  static constexpr int64_t kByteMask = static_cast<int64_t>(kPageBytes) - 1;

  // capacity is in stored out-of-bounds *bytes* for compatibility with the
  // flat store's knob (ShardConfig::boundless_capacity); it is rounded up
  // to whole pages (minimum one page when nonzero). 0 = unbounded.
  explicit PagedBoundlessStore(size_t capacity_bytes = 0);

  void StoreByte(UnitId unit, int64_t offset, uint8_t value);
  // Equivalent to the StoreByte loop over [offset, offset+n), but each
  // touched page is resolved once per run instead of once per byte.
  void StoreSpan(UnitId unit, int64_t offset, const uint8_t* src, size_t n);

  // Loads touch the clock's reference bit, so they are non-const.
  std::optional<uint8_t> LoadByte(UnitId unit, int64_t offset);
  // For i in [0, n): present[i] = 1 and dst[i] = the stored byte when
  // (unit, offset+i) is stored, else present[i] = 0 (dst[i] untouched).
  // Returns the number of present bytes.
  size_t LoadSpan(UnitId unit, int64_t offset, size_t n, uint8_t* dst, uint8_t* present);

  // Drops all out-of-bounds state recorded for a unit (called when the unit
  // is retired so a recycled address cannot see a predecessor's overflow).
  // Cost is O(pages of this unit) via the per-unit page index.
  void DropUnit(UnitId unit);

  void Clear();

  // Stored out-of-bounds bytes currently retrievable (present bytes of live
  // pages plus the full extent of compressed pages).
  size_t stored_bytes() const { return stored_bytes_; }
  size_t capacity() const { return capacity_bytes_; }
  size_t capacity_pages() const { return capacity_pages_; }
  size_t pages_live() const { return pages_.size(); }
  uint64_t evictions() const { return pages_evicted_; }
  BoundlessStoreStats stats() const;

 private:
  struct PageKey {
    UnitId unit;
    int64_t index;
    bool operator==(const PageKey& other) const {
      return unit == other.unit && index == other.index;
    }
  };
  struct PageKeyHash {
    size_t operator()(const PageKey& k) const {
      uint64_t h = (static_cast<uint64_t>(k.unit) << 32) ^ static_cast<uint64_t>(k.index);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };

  struct Page {
    // Null while the page is zero-deduplicated: all stored bytes are zero
    // and reads resolve against the shared read-only zero page.
    std::unique_ptr<uint8_t[]> owned;
    std::array<uint64_t, kPageBytes / 64> present{};
    uint16_t present_count = 0;
    bool referenced = true;  // clock reference bit
    std::list<PageKey>::iterator clock_pos;  // valid only in bounded mode

    const uint8_t* data() const;
    bool Present(size_t byte) const {
      return (present[byte / 64] >> (byte % 64)) & 1u;
    }
    // Returns true if the bit was newly set.
    bool MarkPresent(size_t byte) {
      uint64_t bit = 1ull << (byte % 64);
      if (present[byte / 64] & bit) {
        return false;
      }
      present[byte / 64] |= bit;
      ++present_count;
      return true;
    }
  };

  static PageKey KeyOf(UnitId unit, int64_t offset) {
    return PageKey{unit, offset >> kPageShift};
  }

  // The page for key, materializing (or decompressing) it if needed. The
  // returned reference stays valid across rehashes; callers must run
  // MaybeEvict() after finishing their mutation.
  Page& Materialize(PageKey key);
  // Breaks the zero-page sharing: gives the page owned, zero-filled backing.
  void CopyOnWrite(Page& page);
  void MaybeEvict();
  void RemoveClockEntry(Page& page);

  size_t capacity_bytes_;
  size_t capacity_pages_;
  size_t stored_bytes_ = 0;
  uint64_t zero_pages_live_ = 0;
  uint64_t bytes_materialized_ = 0;
  uint64_t pages_evicted_ = 0;
  uint64_t zero_dedup_hits_ = 0;
  std::unordered_map<PageKey, Page, PageKeyHash> pages_;
  // Cold spray pages compressed at eviction time: fully present, one
  // repeated value. One byte of payload each; loads keep working.
  std::unordered_map<PageKey, uint8_t, PageKeyHash> compressed_;
  // Per-unit page index (live + compressed): what makes DropUnit
  // O(pages-of-unit).
  std::unordered_map<UnitId, std::unordered_set<int64_t>> unit_pages_;
  // Clock ring over live pages; maintained only in bounded mode. DropUnit
  // and eviction unlink entries eagerly (each page holds its list
  // position), so the ring cannot accumulate ghost entries under churn the
  // way the flat store's FIFO deque did.
  std::list<PageKey> clock_;
  std::list<PageKey>::iterator hand_ = clock_.end();
};

}  // namespace fob

#endif  // SRC_RUNTIME_BOUNDLESS_PAGED_H_
