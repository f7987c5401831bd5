#include "eval/index_cache.h"

namespace linrec {

ProbeRoute IndexCache::Route(const Relation& rel,
                             const std::vector<int>& positions,
                             std::size_t planned_probes,
                             std::size_t scanned_rows) {
  probe_.Assign(&rel, positions);
  auto it = entries_.find(probe_);
  if (it == entries_.end()) it = entries_.emplace(probe_, Entry{}).first;
  Entry& entry = it->second;
  const std::uint64_t version = rel.version();
  if (entry.index != nullptr && entry.index->built_at_version() == version) {
    return {entry.index.get(), false};
  }
  if (entry.version != version) {
    entry.version = version;
    entry.scanned = 0;
  }
  entry.scanned += scanned_rows;
  // Buy when the planned scans would overrun the credit:
  // scanned + planned·|R| > ratio·|R| (written so kBuyNow cannot
  // overflow). A charge-only call (no planned probe) never buys.
  const std::size_t rows = rel.size() == 0 ? 1 : rel.size();
  const std::size_t credit = kBuildScanRatio * rows;
  const bool buy =
      planned_probes != 0 &&
      (entry.scanned >= credit ||
       planned_probes > (credit - entry.scanned) / rows);
  if (!buy) return {};
  entry.index = std::make_unique<HashIndex>(rel, positions);
  ++rebuilds_;
  return {entry.index.get(), true};
}

void IndexCache::RetainOnly(
    const std::unordered_set<const Relation*>& keep) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (keep.count(it->first.rel) == 0) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace linrec
