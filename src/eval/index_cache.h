// Version-keyed cache of hash indexes over relations.

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/thread_annotations.h"
#include "storage/relation.h"

namespace linrec {

/// Where a keyed join step's probes go (IndexCache::Route).
struct ProbeRoute {
  /// The index to probe, or null: answer each probe by column scan
  /// (Relation::MatchRows) and charge the scanned rows on the next Route.
  const HashIndex* index = nullptr;
  /// This Route call built `index` (ClosureStats::index_builds).
  bool built = false;
};

/// Caches HashIndex instances keyed by (relation identity, key positions),
/// and decides per entry whether a probe is worth an index at all.
///
/// Rent or buy. An index over R costs about kBuildScanRatio column scans
/// of R to build, and is good only until R's version moves. A step whose
/// relation has no current index therefore starts by renting: each probe
/// is a column scan, and the scanned rows are charged to the entry as
/// credit. The credit persists across Runs and rounds and resets when the
/// version moves. Once it reaches kBuildScanRatio × |R|, the next probe
/// that needs the entry buys — builds the index, as the cache always did —
/// so renting never costs more than about twice what buying up front would
/// have (the ski-rental bound). A caller that knows how many probes it is
/// about to issue (the join's depth-1 step: one per outer row) passes the
/// count, and the entry buys up front when those scans would overrun the
/// credit. So a one-row IVM delta probes a 10^5-row view with one scan
/// instead of building an index the next update invalidates, while a
/// closure round or a stable parameter relation builds once and then hits.
///
/// The table is an unordered_map whose key carries its own precomputed hash,
/// so a lookup is one O(1) probe instead of a red-black-tree walk with per-node
/// vector comparisons. The probe key is a member whose positions vector is
/// reused across calls, so a cache hit — every steady-state closure round —
/// performs zero heap allocations. (Route always mutated the cache, so this
/// adds no new thread-safety requirement; concurrent users already need
/// their own tier or an internally locked tier, as SharedIndexCache /
/// TieredIndexCache arrange.)
///
/// NOT internally synchronized: this is the per-lane / per-query tier.
/// Concurrent sharing goes through SharedIndexCache, whose mutex the
/// thread-safety analysis enforces.
///
/// The accessors are virtual so SharedIndexCache (locked) and
/// TieredIndexCache (routing) can interpose; Route runs once per (round, Δ
/// chunk, join step) plus once per scan probe, never per candidate tuple,
/// so the indirection costs nothing measurable.
class IndexCache {
 public:
  /// One index build over R costs about this many column scans of R.
  /// Measured with a Release build (AVX2) on a 4-vCPU x86-64 guest,
  /// timing a HashIndex build on column 1 of the transitive closure of a
  /// random graph against one MatchRows scan of that column (medians of
  /// 41): 6.5k rows 52 µs / 8 µs (6.3), 35.8k rows 502 / 43 µs (11.6),
  /// 68k–113k rows 0.62–1.06 ms / 77–133 µs (about 8), 365k rows
  /// 4.3 ms / 471 µs (9.2).
  /// The build is random-access (a hash probe and a scatter per row) and
  /// the scan sequential (one vector compare per four rows), so the ratio
  /// stays within about 6–12 across sizes. Ski rental needs only the
  /// order of magnitude: renting up to the credit then buying costs at
  /// most the credit plus one build, against one build for an oracle.
  static constexpr std::size_t kBuildScanRatio = 10;

  /// `planned_probes` value that buys unconditionally (Get).
  static constexpr std::size_t kBuyNow = static_cast<std::size_t>(-1);

  IndexCache() = default;
  virtual ~IndexCache() = default;
  // Movable; not copyable — the entries own their indexes.
  IndexCache(IndexCache&&) = default;
  IndexCache& operator=(IndexCache&&) = default;

  /// Rent-or-buy access to the index of `rel` on `positions`. First
  /// charges `scanned_rows` (rows the caller's column scans read since its
  /// last Route for this entry) to the entry's credit at rel's current
  /// version. Then returns the current index, building it when
  /// `planned_probes` more scans would overrun the credit; or a null
  /// index, meaning: scan. planned_probes = 0 only charges (never builds).
  /// A returned index stays valid until a Route rebuilds the same entry
  /// (i.e., after `rel` was modified).
  virtual ProbeRoute Route(const Relation& rel,
                           const std::vector<int>& positions,
                           std::size_t planned_probes,
                           std::size_t scanned_rows = 0);

  /// The index of `rel` on `positions`, built now if it is not current.
  const HashIndex& Get(const Relation& rel,
                       const std::vector<int>& positions) {
    return *Route(rel, positions, kBuyNow).index;
  }

  /// Drops every entry whose keyed relation is not in `keep`. Long-lived
  /// owners (the engine) call this after a closure so indexes built over
  /// dead temporary relations (per-iteration Δs, seeds) do not accumulate.
  virtual void RetainOnly(const std::unordered_set<const Relation*>& keep);

  /// Entries held: built indexes and rent-only credit records alike.
  virtual std::size_t entry_count() const { return entries_.size(); }
  /// Indexes built over the cache's lifetime.
  virtual std::size_t rebuilds() const { return rebuilds_; }

 private:
  struct Key {
    const Relation* rel = nullptr;
    std::vector<int> positions;
    std::size_t hash = 0;

    Key() = default;
    Key(const Relation* r, std::vector<int> p)
        : rel(r), positions(std::move(p)) {
      Rehash();
    }
    /// Rebinds in place, reusing the positions vector's capacity — the
    /// allocation-free path Route probes with.
    void Assign(const Relation* r, const std::vector<int>& p) {
      rel = r;
      positions.assign(p.begin(), p.end());
      Rehash();
    }
    void Rehash() {
      std::size_t h = std::hash<const void*>{}(rel);
      for (int x : positions) HashCombine(&h, std::hash<int>{}(x));
      hash = h;
    }
    bool operator==(const Key& o) const {
      return rel == o.rel && positions == o.positions;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const { return k.hash; }
  };
  struct Entry {
    /// Built index (possibly stale: compare built_at_version), or null.
    std::unique_ptr<HashIndex> index;
    /// The version `scanned` was charged at.
    std::uint64_t version = 0;
    /// Rows scanned in place of probing this entry's index at `version`.
    std::size_t scanned = 0;
  };

  std::unordered_map<Key, Entry, KeyHash> entries_;
  Key probe_;  // reused across Routes: hit path allocates nothing
  std::size_t rebuilds_ = 0;
};

/// The engine's long-lived cache: an IndexCache whose every access runs
/// under an internal mutex, so batch lanes (through TieredIndexCache) and
/// the engine's own eviction sweep share it safely — and the thread-safety
/// analysis can prove it, because the lock and the tier it guards live in
/// one class (inner_ is LINREC_GUARDED_BY(mu_)). The rent-or-buy credit
/// lives in the same entries, so lanes scanning one shared relation spend
/// one credit and the first lane to exhaust it builds for all.
///
/// This replaces the old arrangement — a per-batch function-local
/// std::mutex beside an unguarded engine member — where the eviction
/// sweep's safety rested on "all lanes have joined by now", an argument no
/// analyzer could check.
///
/// Returning indexes out of Route after the lock drops is safe for the
/// same reason it always was: entries are heap-owned (the map never moves
/// them), and a shared relation is quiescent while a batch runs, so no Route
/// can rebuild an entry another lane still reads (an entry's index is only
/// ever built once per version). The serial path pays one uncontended
/// lock per Route — per (round, chunk, join step) or per scan probe,
/// never per tuple; see the bench gate.
class SharedIndexCache final : public IndexCache {
 public:
  SharedIndexCache() = default;

  // Movable so Engine stays movable (tests/benches return engines from
  // factories). Moves are single-threaded by contract — nothing else can
  // hold a reference to an engine still being constructed — but the
  // source's mutex is taken anyway so the access discipline on inner_
  // holds everywhere the analysis looks. The destination gets a fresh
  // mutex (mutexes are not movable, and must not be).
  SharedIndexCache(SharedIndexCache&& other) {
    MutexLock lock(other.mu_);
    inner_ = std::move(other.inner_);
  }
  SharedIndexCache& operator=(SharedIndexCache&& other) {
    if (this != &other) {
      MutexLock mine(mu_);
      MutexLock theirs(other.mu_);
      inner_ = std::move(other.inner_);
    }
    return *this;
  }

  ProbeRoute Route(const Relation& rel, const std::vector<int>& positions,
                   std::size_t planned_probes,
                   std::size_t scanned_rows) override LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return inner_.Route(rel, positions, planned_probes, scanned_rows);
  }

  void RetainOnly(const std::unordered_set<const Relation*>& keep) override
      LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    inner_.RetainOnly(keep);
  }

  std::size_t entry_count() const override LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return inner_.entry_count();
  }
  std::size_t rebuilds() const override LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return inner_.rebuilds();
  }

 private:
  mutable Mutex mu_;
  IndexCache inner_ LINREC_GUARDED_BY(mu_);
};

/// Two-tier cache for batched multi-query execution (Engine::ExecuteBatch).
///
/// Probes over relations in `shared_relations` (the engine's parameter
/// relations, which every query of a batch reads but none mutates) route to
/// the engine's SharedIndexCache — internally locked, so an index over a
/// parameter relation is built once and reused by every query of the batch.
/// Every other probe — per-query temporaries: the Δ-carrying result, seeds,
/// phase intermediates — lands in this object's own private (lock-free)
/// tier, keeping queries isolated from each other; the private tier dies
/// with the TieredIndexCache at query end, which is also what defers
/// shared-tier eviction to the batch boundary.
class TieredIndexCache final : public IndexCache {
 public:
  TieredIndexCache(IndexCache* shared,
                   const std::unordered_set<const Relation*>* shared_relations)
      : shared_(shared), shared_relations_(shared_relations) {}

  ProbeRoute Route(const Relation& rel, const std::vector<int>& positions,
                   std::size_t planned_probes,
                   std::size_t scanned_rows) override {
    if (shared_relations_->count(&rel) != 0) {
      return shared_->Route(rel, positions, planned_probes, scanned_rows);
    }
    return IndexCache::Route(rel, positions, planned_probes, scanned_rows);
  }

 private:
  /// The engine's shared tier (a SharedIndexCache: self-locking).
  IndexCache* shared_;
  const std::unordered_set<const Relation*>* shared_relations_;
};

}  // namespace linrec
