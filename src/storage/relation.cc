#include "storage/relation.h"

#include <algorithm>
#include <atomic>

#include "common/memory.h"
#include "common/simd_kernels.h"

namespace linrec {
namespace {

/// Own cache line: bumped from every thread that first reads a mutated
/// relation's version; sharing a line with unrelated statics would make
/// those reads contend with it.
alignas(64) std::atomic<std::uint64_t> g_version_counter{0};  // lint: hot-atomic

/// Equality mask of one kLanes-row block of a strided column, on the
/// vector kernel or the scalar reference.
template <bool kSimd>
unsigned BlockEq(const Value* column, std::size_t stride, Value value) {
#if LINREC_SIMD
  if constexpr (kSimd) return simd::BlockEqMask(column, stride, value);
#endif
  return simd::BlockEqMaskScalar(column, stride, value);
}

/// Smallest power of two ≥ n (and ≥ 8).
std::size_t NextPow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::uint64_t Relation::version() const {
  // Lazy stamp: mutation only marks the version stale; the first reader
  // draws one fresh value off the shared counter. Concurrent readers of a
  // stale relation may both draw — the last store wins and both values are
  // new, so (address, version) never aliases older contents. The
  // release/acquire pair orders the version_ store before the stale_ clear:
  // a reader that observes stale_ == false is guaranteed to see the fresh
  // stamp, never the pre-mutation one.
  if (version_stale_.load(std::memory_order_acquire)) {
    version_.store(g_version_counter.fetch_add(1, std::memory_order_relaxed) +
                       1,
                   std::memory_order_relaxed);
    version_stale_.store(false, std::memory_order_release);
  }
  return version_.load(std::memory_order_relaxed);
}

// Grow the dedup table when occupancy crosses 7/8. Small tables double;
// large ones quadruple: every rehash re-probes all rows at random (the
// dominant cost of a growing closure-sized relation), and 4x growth cuts
// the total reinserted rows from ~2N to ~1.33N for a few extra bytes of
// slot space per row.
bool Relation::InsertHashed(const Value* row, std::size_t hash) {
  if (slots_.empty()) Rehash(8);
  std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (true) {
    RowId slot = slots_[i];
    if (slot == 0) break;  // empty: the row is new
    RowId id = slot - 1;
    if (hashes_[id] == hash && RowEquals(id, row)) return false;
    i = (i + 1) & mask;
  }
  assert(row_count_ < static_cast<std::size_t>(kNoRow) &&
         "relation exceeds RowId capacity");
  // Growth happens before any mutation, so a denied charge (or injected
  // allocation fault) leaves the relation exactly as it was.
  if (PoolNeedsGrowth(pool_.size() + arity_)) GrowPool(pool_.size() + arity_);
  if (hashes_.size() == hashes_.capacity()) GrowHashes(hashes_.size() + 1);
  RowId id = static_cast<RowId>(row_count_++);
  pool_.insert(pool_.end(), row, row + arity_);
  hashes_.push_back(hash);
  slots_[i] = id + 1;
  version_stale_.store(true, std::memory_order_release);
  if (row_count_ * 8 >= slots_.size() * 7) {
    Rehash(slots_.size() * (slots_.size() >= 32768 ? 4 : 2));
  }
  return true;
}

RowId Relation::FindRow(const Value* row, std::size_t hash) const {
  const std::size_t slot = FindSlot(row, hash);
  return slot == kNoSlot ? kNoRow : slots_[slot] - 1;
}

std::size_t Relation::FindSlot(const Value* row, std::size_t hash) const {
  if (slots_.empty()) return kNoSlot;
  std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (true) {
    RowId slot = slots_[i];
    if (slot == 0) return kNoSlot;
    RowId id = slot - 1;
    if (hashes_[id] == hash && RowEquals(id, row)) return i;
    i = (i + 1) & mask;
  }
}

void Relation::DeleteSlot(std::size_t i) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    // The entry at j may fill the hole at i iff i lies on its probe path,
    // i.e. its home slot is no closer to j (cyclically) than i is.
    const std::size_t home = hashes_[slots_[j] - 1] & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = 0;
}

// Pool and hash-array growth is explicit (never left to the vectors'
// internal reallocation) so the capacity delta can be charged to the active
// memory budget — and an armed allocation fault can fire — before the bytes
// are committed. These are the only growth paths a closure's result takes.
void Relation::GrowPool(std::size_t needed_values) {
  std::size_t new_cap = std::max(needed_values, pool_.capacity() * 2);
  if (new_cap < 64) new_cap = 64;
  // Round up to a whole number of kPadRows-row blocks: the scan kernels
  // load the tail as one full block, and this keeps that load inside the
  // allocation. The padding is charged like any other capacity.
  new_cap = PaddedPoolCapacity(new_cap, arity_);
  ChargeBytesOrThrow((new_cap - pool_.capacity()) * sizeof(Value),
                     FaultSite::kPoolGrowth);
  pool_.reserve(new_cap);
}

// The EraseRows scratch grows here, in step with the hash array, so its
// bytes are charged with the hashes' and EraseRows never allocates.
void Relation::GrowHashes(std::size_t needed_rows) {
  std::size_t new_cap = std::max(needed_rows, hashes_.capacity() * 2);
  if (new_cap < 16) new_cap = 16;
  const std::size_t words = (new_cap + 63) / 64;
  const std::size_t scratch_growth =
      words > erase_words_.size() ? words - erase_words_.size() : 0;
  ChargeBytesOrThrow((new_cap - hashes_.capacity()) * sizeof(std::size_t) +
                         scratch_growth * sizeof(EraseWord),
                     FaultSite::kPoolGrowth);
  hashes_.reserve(new_cap);
  if (scratch_growth != 0) {
    erase_words_.reserve(words);  // exactly the charged size
    erase_words_.resize(words);
  }
}

void Relation::Rehash(std::size_t slot_count) {
  if (slot_count > slots_.capacity()) {
    ChargeBytesOrThrow((slot_count - slots_.capacity()) * sizeof(RowId),
                       FaultSite::kRehash);
  }
  slots_.assign(slot_count, 0);
  std::size_t mask = slot_count - 1;
  // Reinsertion is a stream of independent random probes — prefetch a
  // batch ahead so their cache misses overlap (most rows land in their
  // first slot of the fresh, sparsely filled table).
  constexpr RowId kBatch = 16;
  for (RowId base = 0; base < row_count_; base += kBatch) {
    const RowId limit =
        static_cast<RowId>(std::min<std::size_t>(row_count_, base + kBatch));
    for (RowId id = base; id < limit; ++id) {
      __builtin_prefetch(slots_.data() + (hashes_[id] & mask), 1);
    }
    for (RowId id = base; id < limit; ++id) {
      std::size_t i = hashes_[id] & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }
}

void Relation::Reserve(std::size_t rows) {
  // Grow geometrically past the request: vector::reserve allocates exactly
  // what is asked, so a closure loop reserving `current + Δ` every round
  // would otherwise reallocate (and copy the whole pool) every round.
  // Reserve(0) allocates nothing: an empty pool is never scanned.
  if (rows != 0 && PoolNeedsGrowth(rows * arity_)) GrowPool(rows * arity_);
  if (rows > hashes_.capacity()) GrowHashes(rows);
  // Size the table so `rows` insertions stay under the 7/8 growth trigger.
  std::size_t needed = NextPow2(rows * 8 / 7 + 1);
  if (needed > slots_.size()) Rehash(needed);
}

void Relation::Clear() {
  row_count_ = 0;
  version_.store(0, std::memory_order_relaxed);
  version_stale_.store(false, std::memory_order_relaxed);
  pool_.clear();
  hashes_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

void Relation::TruncateRows(std::size_t rows) {
  assert(rows <= row_count_ && "can only truncate, never extend");
  if (rows == row_count_) return;
  if (rows == 0) {
    // An empty relation must report version 0 (the "two empties share a
    // stamp" rule in version()).
    Clear();
    return;
  }
  // Drop the tail rows' slots, newest first. Each is found by probing from
  // its cached hash for its own id; the deletions keep the table exact for
  // the rows still in it.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t id = row_count_; id-- > rows;) {
    std::size_t i = hashes_[id] & mask;
    while (slots_[i] != id + 1) i = (i + 1) & mask;
    DeleteSlot(i);
  }
  row_count_ = rows;
  // resize() never shrinks capacity, so the padded-capacity invariant the
  // scan kernels rely on (capacity = whole kPadRows blocks) still holds.
  pool_.resize(rows * arity_);
  hashes_.resize(rows);
  version_stale_.store(true, std::memory_order_release);
}

std::size_t Relation::EraseRows(const Relation& drop) {
  assert(drop.arity_ == arity_ && "relation arities must match");
  if (row_count_ == 0 || drop.row_count_ == 0) return 0;
  // GrowHashes keeps one scratch word per 64 rows of hash capacity.
  const std::size_t words = (row_count_ + 63) / 64;
  assert(erase_words_.size() >= words);
  EraseWord* marks = erase_words_.data();
  for (std::size_t w = 0; w < words; ++w) marks[w].doomed = 0;

  // 1. Find each doomed row, mark its id and delete its slot. Backward
  // shifting keeps the table exact for the rows still in it, so the later
  // lookups of other drop rows stay correct.
  std::size_t erased = 0;
  RowId first = static_cast<RowId>(row_count_);
  for (RowId d = 0; d < drop.row_count_; ++d) {
    const std::size_t slot = FindSlot(drop.RowData(d), drop.hashes_[d]);
    if (slot == kNoSlot) continue;
    const RowId id = slots_[slot] - 1;
    marks[id / 64].doomed |= std::uint64_t{1} << (id % 64);
    first = std::min(first, id);
    DeleteSlot(slot);
    ++erased;
  }
  if (erased == 0) return 0;

  // 2. Per-word ranks: doomed rows below each word.
  RowId doomed_below = 0;
  for (std::size_t w = 0; w < words; ++w) {
    marks[w].rank = doomed_below;
    doomed_below += static_cast<RowId>(__builtin_popcountll(marks[w].doomed));
  }

  // 3. Renumber the surviving slots in one sequential pass: a survivor's
  // new id is its old id minus the doomed ids below it.
  for (RowId& slot : slots_) {
    if (slot <= first) continue;  // empty (0), or an id below every doomed
    const RowId id = slot - 1;
    const EraseWord& word = marks[id / 64];
    const std::uint64_t below =
        word.doomed & ((std::uint64_t{1} << (id % 64)) - 1);
    slot -= word.rank + static_cast<RowId>(__builtin_popcountll(below));
  }

  // 4. Compact the pool and the cached hashes: move each run of survivors
  // between doomed rows down over the gap, in order.
  std::size_t kept = first;
  std::size_t run = first;  // start of the survivor run before `id`
  for (std::size_t w = first / 64; w < words; ++w) {
    for (std::uint64_t bits = marks[w].doomed; bits != 0; bits &= bits - 1) {
      const std::size_t id =
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      MoveRows(run, id, kept);
      kept += id - run;
      run = id + 1;
    }
  }
  MoveRows(run, row_count_, kept);
  kept += row_count_ - run;

  row_count_ = kept;
  pool_.resize(kept * arity_);
  hashes_.resize(kept);
  if (kept == 0) {
    Clear();
  } else {
    version_stale_.store(true, std::memory_order_release);
  }
  return erased;
}

void Relation::MoveRows(std::size_t begin, std::size_t end, std::size_t to) {
  if (begin >= end) return;
  std::copy(pool_.begin() + static_cast<std::ptrdiff_t>(begin * arity_),
            pool_.begin() + static_cast<std::ptrdiff_t>(end * arity_),
            pool_.begin() + static_cast<std::ptrdiff_t>(to * arity_));
  std::copy(hashes_.begin() + static_cast<std::ptrdiff_t>(begin),
            hashes_.begin() + static_cast<std::ptrdiff_t>(end),
            hashes_.begin() + static_cast<std::ptrdiff_t>(to));
}

// The mask-and-drain walk both σ scans share, parameterized on the kernel.
// Both instantiations walk the same rows in the same order and hand drain
// the same masks (each drained low bit first), so SIMD and scalar results
// are bit-identical. The SIMD tail is a full-block load masked down — safe
// because pool capacities are padded to whole blocks (GrowPool).
template <bool kSimd, typename Drain>
void Relation::DrainMatches(const int* columns, const Value* values,
                            std::size_t count, Drain&& drain) const {
  assert(count != 0 && "a keyed scan needs at least one column");
  const std::size_t rows = row_count_;
  const std::size_t stride = arity_;
  const Value* pool = pool_.data();
  auto block_mask = [&](std::size_t base) {
    const Value* block = pool + base * stride;
    unsigned mask = BlockEq<kSimd>(
        block + static_cast<std::size_t>(columns[0]), stride, values[0]);
    for (std::size_t k = 1; mask != 0 && k < count; ++k) {
      mask &= BlockEq<kSimd>(block + static_cast<std::size_t>(columns[k]),
                             stride, values[k]);
    }
    return mask;
  };
  const std::size_t full = rows / simd::kLanes * simd::kLanes;
  for (std::size_t base = 0; base < full; base += simd::kLanes) {
    if (const unsigned mask = block_mask(base); mask != 0) drain(base, mask);
  }
  if (const std::size_t tail = rows - full; tail != 0) {
    unsigned mask = 0;
    if constexpr (kSimd && LINREC_SIMD) {
      mask = block_mask(full) & ((1u << tail) - 1u);
    } else {
      // The scalar kernel never reads past the last row.
      for (std::size_t i = 0; i < tail; ++i) {
        const Value* row = pool + (full + i) * stride;
        bool match = true;
        for (std::size_t k = 0; match && k < count; ++k) {
          match = row[static_cast<std::size_t>(columns[k])] == values[k];
        }
        mask |= static_cast<unsigned>(match) << i;
      }
    }
    if (mask != 0) drain(full, mask);
  }
}

// The σ scan: a count pass sizes the output exactly, then the drain
// bulk-copies the matching rows, reusing their cached hashes (rows of a
// relation are unique, so every insert lands).
template <bool kSimd>
Relation Relation::WhereEqualsKernel(int position, Value value,
                                     ScanCounters* counters) const {
  assert(position >= 0 && static_cast<std::size_t>(position) < arity_);
  Relation out(arity_);
  const std::size_t rows = row_count_;
  if (counters != nullptr) {
    counters->rows += rows;
    counters->blocks += (rows + simd::kLanes - 1) / simd::kLanes;
  }
  if (rows == 0) return out;
  const Value* column = pool_.data() + position;
  const std::size_t stride = arity_;
  // Pass 1: count matches along one strided column.
  std::size_t matches;
#if LINREC_SIMD
  if constexpr (kSimd) {
    matches = simd::CountEqStrided(column, stride, rows, value);
  } else
#endif
  {
    matches = simd::CountEqStridedScalar(column, stride, rows, value);
  }
  if (counters != nullptr) counters->hits += matches;
  if (matches == 0) return out;
  out.Reserve(matches);
  // Pass 2: drain the blockwise equality masks into the output.
  DrainMatches<kSimd>(&position, &value, 1, [&](std::size_t base,
                                                unsigned mask) {
    while (mask != 0) {
      const std::size_t i = base + static_cast<std::size_t>(__builtin_ctz(mask));
      mask &= mask - 1;
      out.InsertHashed(pool_.data() + i * stride, hashes_[i]);
    }
  });
  return out;
}

void Relation::MatchRows(const std::vector<int>& positions, const Value* key,
                         std::vector<RowId>* ids) const {
  DrainMatches<simd::kEnabled>(
      positions.data(), key, positions.size(),
      [&](std::size_t base, unsigned mask) {
        while (mask != 0) {
          ids->push_back(
              static_cast<RowId>(base + static_cast<std::size_t>(
                                            __builtin_ctz(mask))));
          mask &= mask - 1;
        }
      });
}

Relation Relation::WhereEquals(int position, Value value,
                               ScanCounters* counters) const {
  return WhereEqualsKernel<simd::kEnabled>(position, value, counters);
}

Relation Relation::WhereEqualsScalar(int position, Value value,
                                     ScanCounters* counters) const {
  return WhereEqualsKernel<false>(position, value, counters);
}

std::size_t Relation::UnionWith(const Relation& other) {
  assert(other.arity() == arity_ && "relation arities must match");
  if (other.row_count_ > 0) Reserve(row_count_ + other.row_count_);
  std::size_t added = 0;
  for (RowId id = 0; id < other.row_count_; ++id) {
    if (InsertHashed(other.RowData(id), other.hashes_[id])) ++added;
  }
  return added;
}

std::vector<Tuple> Relation::Sorted() const {
  std::vector<Tuple> out;
  out.reserve(row_count_);
  for (RowId id = 0; id < row_count_; ++id) out.push_back(Row(id).ToTuple());
  std::sort(out.begin(), out.end());
  return out;
}

bool Relation::operator==(const Relation& other) const {
  if (arity_ != other.arity_ || row_count_ != other.row_count_) return false;
  for (RowId id = 0; id < other.row_count_; ++id) {
    if (FindRow(other.RowData(id), other.hashes_[id]) == kNoRow) return false;
  }
  return true;
}

HashIndex::HashIndex(const Relation& rel, std::vector<int> key_positions)
    : rel_(&rel),
      key_positions_(std::move(key_positions)),
      built_at_version_(rel.version()) {
  std::size_t slot_count = NextPow2(rel.size() * 8 / 7 + 1);
  slots_.assign(slot_count, 0);
  std::size_t mask = slot_count - 1;
  const RowId rows = static_cast<RowId>(rel.size());

  // Pass 1: discover groups and count their sizes. `group_of[row]` records
  // each row's group so pass 2 is a straight scatter; `repr` holds one
  // representative row per group for key comparison.
  std::vector<std::uint32_t> group_of(rows);
  std::vector<RowId> repr;
  std::vector<std::uint32_t> counts;
  auto projections_match = [&](RowId a, RowId b) {
    const Value* ra = rel_->RowData(a);
    const Value* rb = rel_->RowData(b);
    for (int p : key_positions_) {
      std::size_t i = static_cast<std::size_t>(p);
      if (ra[i] != rb[i]) return false;
    }
    return true;
  };
  for (RowId row = 0; row < rows; ++row) {
    std::size_t hash = RowKeyHash(row);
    std::size_t i = hash & mask;
    while (true) {
      std::uint32_t slot = slots_[i];
      if (slot == 0) {
        // New key: open a group. Groups never exceed row count, which the
        // table was sized for, so no grow step is needed here.
        slots_[i] = static_cast<std::uint32_t>(repr.size()) + 1;
        group_of[row] = static_cast<std::uint32_t>(repr.size());
        repr.push_back(row);
        counts.push_back(1);
        group_hashes_.push_back(hash);
        break;
      }
      std::size_t g = slot - 1;
      if (group_hashes_[g] == hash && projections_match(repr[g], row)) {
        group_of[row] = static_cast<std::uint32_t>(g);
        ++counts[g];
        break;
      }
      i = (i + 1) & mask;
    }
  }

  // Prefix-sum the counts into CSR offsets, then scatter the rows; within
  // a group insertion order is preserved.
  starts_.resize(repr.size() + 1);
  std::uint32_t total = 0;
  for (std::size_t g = 0; g < repr.size(); ++g) {
    starts_[g] = total;
    total += counts[g];
  }
  starts_[repr.size()] = total;
  row_ids_.resize(rows);
  std::vector<std::uint32_t> cursor(starts_.begin(), starts_.end() - 1);
  for (RowId row = 0; row < rows; ++row) {
    row_ids_[cursor[group_of[row]]++] = row;
  }
}

// Must produce the same value as KeyHash (= HashRange) over the projected
// key, including the seed and finalizer, so build-time and probe-time
// hashes agree.
std::size_t HashIndex::RowKeyHash(RowId row) const {
  const Value* data = rel_->RowData(row);
  std::size_t seed = kHashSeed;
  for (int p : key_positions_) {
    HashCombine(&seed, std::hash<std::int64_t>{}(
                           data[static_cast<std::size_t>(p)]));
  }
  return HashFinalize(seed);
}

RowSpan HashIndex::Lookup(const Value* key) const {
  std::size_t hash = KeyHash(key);
  std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (true) {
    std::uint32_t slot = slots_[i];
    if (slot == 0) return RowSpan{};
    std::size_t g = slot - 1;
    if (group_hashes_[g] == hash) {
      const Value* repr = rel_->RowData(row_ids_[starts_[g]]);
      bool match = true;
      for (std::size_t k = 0; k < key_positions_.size(); ++k) {
        if (repr[static_cast<std::size_t>(key_positions_[k])] != key[k]) {
          match = false;
          break;
        }
      }
      if (match) {
        return RowSpan{row_ids_.data() + starts_[g],
                       starts_[g + 1] - starts_[g]};
      }
    }
    i = (i + 1) & mask;
  }
}

}  // namespace linrec
