#include "src/runtime/memlog.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace fob {

std::string MemSiteStat::Label() const {
  std::ostringstream os;
  os << (is_write ? "write " : "read ") << (unit_name.empty() ? "<wild>" : unit_name);
  if (!function.empty()) {
    os << " @ " << function;
  }
  return os.str();
}

MemSiteStat& MemLog::Intern(std::string_view unit_name, std::string_view function,
                            AccessKind kind) {
  SiteId id = MakeSiteId(unit_name, function, kind);
  auto [it, inserted] = sites_.try_emplace(id);
  MemSiteStat& stat = it->second;
  if (inserted) {
    stat.site = id;
    stat.unit_name = unit_name;
    stat.function = function;
    stat.is_write = kind == AccessKind::kWrite;
  }
  return stat;
}

void MemLog::Echo(const MemErrorRecord& record) const { *echo_ << ToString(record) << "\n"; }

std::vector<MemErrorRecord> MemLog::recent() const {
  std::vector<MemErrorRecord> out;
  out.reserve(stored_);
  for (size_t i = 0; i < stored_; ++i) {
    size_t slot = head_ + i;
    out.push_back(ring_[slot >= capacity_ ? slot - capacity_ : slot]);
  }
  return out;
}

std::map<std::string, uint64_t> MemLog::errors_by_unit() const {
  std::map<std::string, uint64_t> by_unit;
  for (const auto& [id, stat] : sites_) {
    if (!stat.unit_name.empty()) {
      by_unit[stat.unit_name] += stat.count;
    }
  }
  return by_unit;
}

std::string MemLog::ToString(const MemErrorRecord& record) const {
  const MemSiteStat& where = site(record.site);
  std::ostringstream os;
  os << "memory error: invalid " << (record.is_write ? "write" : "read") << " of " << record.size
     << " byte" << (record.size == 1 ? "" : "s") << " at 0x" << std::hex << record.addr
     << std::dec << " [" << PointerStatusName(record.status) << "]";
  if (!where.unit_name.empty()) {
    os << " referent '" << where.unit_name << "'";
  }
  if (!where.function.empty()) {
    os << " in " << where.function;
  }
  os << " (access #" << record.access_index << ")";
  return os.str();
}

void MemLog::Merge(const MemLog& other) {
  total_ += other.total_;
  read_errors_ += other.read_errors_;
  write_errors_ += other.write_errors_;
  dropped_ += other.dropped_;
  translation_hits_ += other.translation_hits_;
  translation_misses_ += other.translation_misses_;
  AddBoundlessStats(other.boundless_);
  AddSchedulerStats(other.shed_requests_, other.stolen_batches_, other.peak_lane_depth_);
  for (const auto& [id, stat] : other.sites_) {
    auto [it, inserted] = sites_.try_emplace(id, stat);
    if (!inserted) {
      it->second.count += stat.count;
    }
  }
  for (const MemErrorRecord& record : other.recent()) {
    NextSlot() = record;
  }
}

std::string MemLog::Summary() const {
  std::ostringstream os;
  os << "memory-error log: " << total_ << " total (" << write_errors_ << " writes, "
     << read_errors_ << " reads)\n";
  if (translation_hits_ + translation_misses_ > 0) {
    os << "  page-map fast path: " << translation_hits_ << " hits, " << translation_misses_
       << " misses\n";
  }
  if (boundless_.any()) {
    os << "  boundless store: " << boundless_.pages_live << " pages live ("
       << boundless_.zero_pages_live << " zero-dedup, " << boundless_.compressed_pages
       << " compressed), " << boundless_.bytes_materialized << " bytes materialized, "
       << boundless_.pages_evicted << " pages evicted, " << boundless_.zero_dedup_hits
       << " zero-dedup hits\n";
  }
  if (shed_requests_ + stolen_batches_ + peak_lane_depth_ > 0) {
    os << "  scheduler: " << shed_requests_ << " requests shed, " << stolen_batches_
       << " batches stolen, peak lane depth " << peak_lane_depth_ << "\n";
  }
  if (dropped_ > 0) {
    os << "  detail ring capped at " << capacity_ << ": " << dropped_
       << " older records evicted (aggregates exact)\n";
  }
  // Sort units by error count, descending.
  std::map<std::string, uint64_t> by_unit = errors_by_unit();
  std::vector<std::pair<std::string, uint64_t>> units(by_unit.begin(), by_unit.end());
  std::sort(units.begin(), units.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [name, count] : units) {
    os << "  " << count << "x  " << name << "\n";
  }
  return os.str();
}

void MemLog::Clear() {
  head_ = stored_ = 0;
  total_ = read_errors_ = write_errors_ = dropped_ = 0;
  ++generation_;
  translation_hits_ = translation_misses_ = 0;
  boundless_ = BoundlessStoreStats{};
  shed_requests_ = stolen_batches_ = peak_lane_depth_ = 0;
  sites_.clear();
}

}  // namespace fob
