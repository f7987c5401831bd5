#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/fault.h"
#include "common/memory.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace linrec {
namespace {

TEST(TupleTest, BasicAccess) {
  Tuple t{1, 2, 3};
  EXPECT_EQ(t.arity(), 3u);
  EXPECT_EQ(t[0], 1);
  EXPECT_EQ(t[2], 3);
}

TEST(TupleTest, EqualityAndHash) {
  Tuple a{1, 2};
  Tuple b{1, 2};
  Tuple c{2, 1};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(TupleTest, Ordering) {
  EXPECT_LT(Tuple({1, 2}), Tuple({1, 3}));
  EXPECT_LT(Tuple({1, 9}), Tuple({2, 0}));
}

TEST(TupleTest, Project) {
  Tuple t{10, 20, 30};
  EXPECT_EQ(t.Project({2, 0}), Tuple({30, 10}));
  EXPECT_EQ(t.Project({}), Tuple({}));
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({2, 1}));
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, VersionBumpsOnNewTuplesOnly) {
  Relation r(1);
  auto v0 = r.version();
  r.Insert({7});
  auto v1 = r.version();
  EXPECT_GT(v1, v0);
  r.Insert({7});
  EXPECT_EQ(r.version(), v1);
}

TEST(RelationTest, UnionWith) {
  Relation a(1), b(1);
  a.Insert({1});
  b.Insert({1});
  b.Insert({2});
  EXPECT_EQ(a.UnionWith(b), 1u);
  EXPECT_EQ(a.size(), 2u);
}

TEST(RelationTest, SortedIsDeterministic) {
  Relation r(2);
  r.Insert({3, 1});
  r.Insert({1, 2});
  r.Insert({1, 1});
  auto sorted = r.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], Tuple({1, 1}));
  EXPECT_EQ(sorted[2], Tuple({3, 1}));
}

TEST(RelationTest, EqualityIsSetEquality) {
  Relation a(1), b(1);
  a.Insert({1});
  a.Insert({2});
  b.Insert({2});
  b.Insert({1});
  EXPECT_EQ(a, b);
  b.Insert({3});
  EXPECT_NE(a, b);
}

TEST(RelationTest, FlatLayoutRowAccess) {
  // Rows live contiguously in insertion order; Row/RowData expose them.
  Relation r(3);
  r.Insert({1, 2, 3});
  r.Insert({4, 5, 6});
  const Value first[] = {1, 2, 3};
  EXPECT_EQ(r.Row(0), TupleView(first, 3));
  EXPECT_EQ(r.Row(1)[2], 6);
  EXPECT_EQ(r.RowData(1)[0], 4);
  // Adjacent rows are arity-strided within one pool.
  EXPECT_EQ(r.RowData(0) + 3, r.RowData(1));
}

TEST(RelationTest, InsertRowIsDeduplicatingHotPath) {
  Relation r(2);
  const Value a[] = {7, 8};
  const Value b[] = {7, 9};
  EXPECT_TRUE(r.InsertRow(a));
  EXPECT_FALSE(r.InsertRow(a));
  EXPECT_TRUE(r.InsertRow(b));
  EXPECT_TRUE(r.ContainsRow(a));
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, IterationYieldsViewsInInsertionOrder) {
  Relation r(1);
  for (Value v : {5, 3, 9, 3, 5, 1}) r.Insert({v});
  std::vector<Value> seen;
  for (TupleView t : r) seen.push_back(t[0]);
  EXPECT_EQ(seen, (std::vector<Value>{5, 3, 9, 1}));
}

TEST(RelationTest, DedupSurvivesTableGrowth) {
  // Push far past the initial table size so several rehashes happen, then
  // verify dedup and membership still hold for every row.
  Relation r(2);
  for (Value i = 0; i < 5000; ++i) r.Insert({i, i * 31});
  EXPECT_EQ(r.size(), 5000u);
  for (Value i = 0; i < 5000; ++i) {
    EXPECT_FALSE(r.Insert({i, i * 31}));
  }
  EXPECT_EQ(r.size(), 5000u);
  EXPECT_FALSE(r.Contains({1, 1}));
}

TEST(RelationTest, ReserveDoesNotChangeContents) {
  Relation r(2);
  r.Insert({1, 2});
  auto v = r.version();
  r.Reserve(1000);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.version(), v);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
}

TEST(RelationTest, VersionIsGloballyUniqueAcrossObjects) {
  // Two distinct relations never share a nonzero version even when their
  // contents coincide: versions come from a process-global counter.
  Relation a(1), b(1);
  a.Insert({1});
  b.Insert({1});
  EXPECT_NE(a.version(), 0u);
  EXPECT_NE(a.version(), b.version());
  // A copy shares content, so sharing the stamp is sound.
  Relation c = a;
  EXPECT_EQ(c.version(), a.version());
}

TEST(RelationTest, ZeroArityRelation) {
  Relation r(0);
  EXPECT_TRUE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.Insert(Tuple{}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Tuple{}));
}

TEST(TupleViewTest, ComparesByContents) {
  const Value a[] = {1, 2};
  const Value b[] = {1, 2};
  const Value c[] = {1, 3};
  EXPECT_EQ(TupleView(a, 2), TupleView(b, 2));
  EXPECT_NE(TupleView(a, 2), TupleView(c, 2));
  EXPECT_LT(TupleView(a, 2), TupleView(c, 2));
  EXPECT_EQ(TupleView(a, 2).ToTuple(), Tuple({1, 2}));
}

TEST(HashIndexTest, LookupReturnsRowIds) {
  Relation r(2);
  r.Insert({1, 10});
  r.Insert({1, 20});
  r.Insert({2, 30});
  HashIndex index(r, {0});
  RowSpan bucket = index.Lookup(Tuple({1}));
  ASSERT_EQ(bucket.count, 2u);
  EXPECT_EQ(r.Row(bucket[0])[1], 10);
  EXPECT_EQ(r.Row(bucket[1])[1], 20);
  EXPECT_TRUE(index.Lookup(Tuple({9})).empty());
}

TEST(HashIndexTest, AllocationFreeSpanLookup) {
  Relation r(3);
  r.Insert({1, 2, 3});
  r.Insert({1, 2, 4});
  r.Insert({1, 3, 5});
  HashIndex index(r, {0, 1});
  const Value key[] = {1, 2};
  RowSpan bucket = index.Lookup(key);
  EXPECT_EQ(bucket.count, 2u);
  const Value missing[] = {1, 9};
  EXPECT_TRUE(index.Lookup(missing).empty());
}

TEST(HashIndexTest, CorrectUnderRelationGrowth) {
  // Build an index over a large relation (many internal rehashes during
  // the fill) and verify every key's bucket is exact.
  Relation r(2);
  for (Value i = 0; i < 2000; ++i) r.Insert({i % 50, i});
  HashIndex index(r, {0});
  for (Value k = 0; k < 50; ++k) {
    const Value key[] = {k};
    RowSpan bucket = index.Lookup(key);
    EXPECT_EQ(bucket.count, 40u);
    for (RowId row : bucket) EXPECT_EQ(r.Row(row)[0], k);
  }
  EXPECT_EQ(index.distinct_keys(), 50u);
}

TEST(RelationTest, ClearKeepsCapacityAndResetsContents) {
  Relation r(2);
  for (Value i = 0; i < 100; ++i) r.Insert({i, i + 1});
  EXPECT_EQ(r.size(), 100u);
  r.Clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.version(), 0u);
  EXPECT_FALSE(r.Contains({1, 2}));
  // Reusable after clearing: fresh contents, fresh (nonzero) version.
  r.Insert({7, 8});
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({7, 8}));
  EXPECT_NE(r.version(), 0u);
}

TEST(RelationTest, WhereEqualsFiltersOneColumn) {
  Relation r(3);
  for (Value i = 0; i < 200; ++i) r.Insert({i % 5, i, i * 2});
  Relation filtered = r.WhereEquals(0, 3);
  EXPECT_EQ(filtered.size(), 40u);
  for (TupleView t : filtered) EXPECT_EQ(t[0], 3);
  // Every matching row made it (spot check).
  EXPECT_TRUE(filtered.Contains({3, 3, 6}));
  EXPECT_TRUE(filtered.Contains({3, 198, 396}));
  // No matches and empty input both yield empty relations of the arity.
  EXPECT_TRUE(r.WhereEquals(1, -1).empty());
  Relation empty(3);
  EXPECT_TRUE(empty.WhereEquals(2, 0).empty());
  EXPECT_EQ(empty.WhereEquals(2, 0).arity(), 3u);
}

// The σ scan loads its tail block whole, and for arity 2 that load reaches
// one value past the rounded row count. Around the 32-row growth boundary
// every column of every small arity must scan cleanly (ASan flags an
// over-read) and agree with the scalar kernel, whichever path filled the
// pool: row inserts, a Reserve up front, or a copy.
TEST(RelationTest, WhereEqualsTailStaysInsideThePool) {
  for (std::size_t arity = 1; arity <= 3; ++arity) {
    for (Value rows = 33; rows <= 40; ++rows) {
      Relation inserted(arity);
      Relation reserved(arity);
      reserved.Reserve(static_cast<std::size_t>(rows));
      for (Value i = 0; i < rows; ++i) {
        std::vector<Value> values;
        for (std::size_t c = 0; c < arity; ++c) {
          values.push_back(i + 1000 * static_cast<Value>(c));
        }
        const Tuple t(std::move(values));
        inserted.Insert(t);
        reserved.Insert(t);
      }
      const Relation copied = inserted;
      const Relation* fills[] = {&inserted, &reserved, &copied};
      for (const Relation* r : fills) {
        for (std::size_t c = 0; c < arity; ++c) {
          const int column = static_cast<int>(c);
          const Value last = rows - 1 + 1000 * static_cast<Value>(c);
          SCOPED_TRACE(testing::Message() << "arity=" << arity
                                          << " rows=" << rows
                                          << " column=" << column);
          EXPECT_EQ(r->WhereEquals(column, last).size(), 1u);
          EXPECT_EQ(r->WhereEquals(column, last),
                    r->WhereEqualsScalar(column, last));
          EXPECT_TRUE(r->WhereEquals(column, -1).empty());
        }
      }
    }
  }
}

/// Rows in insertion order (Sorted() would hide reordering).
std::vector<Tuple> RowsInOrder(const Relation& r) {
  std::vector<Tuple> out;
  for (TupleView t : r) out.push_back(t.ToTuple());
  return out;
}

TEST(RelationTest, EraseRowsKeepsSurvivorOrder) {
  Relation r(2);
  for (Value i = 0; i < 100; ++i) r.Insert({i, i * 7});
  Relation drop(2);
  for (Value i = 0; i < 100; i += 3) drop.Insert({i, i * 7});
  drop.Insert({500, 500});  // absent from r: ignored
  EXPECT_EQ(r.EraseRows(drop), 34u);
  std::vector<Tuple> expected;
  for (Value i = 0; i < 100; ++i) {
    if (i % 3 != 0) expected.push_back(Tuple({i, i * 7}));
  }
  EXPECT_EQ(RowsInOrder(r), expected);
}

TEST(RelationTest, EraseRowsKeepsContainsAndRowHashConsistent) {
  Relation r(3);
  for (Value i = 0; i < 300; ++i) r.Insert({i % 17, i, -i});
  Relation drop(3);
  for (Value i = 0; i < 300; i += 2) drop.Insert({i % 17, i, -i});
  ASSERT_EQ(r.EraseRows(drop), 150u);
  ASSERT_EQ(r.size(), 150u);
  for (RowId id = 0; id < r.size(); ++id) {
    EXPECT_EQ(r.RowHash(id), HashRow(r.RowData(id), 3)) << id;
    EXPECT_EQ(r.RowIdOf(r.RowData(id)), id);
  }
  for (Value i = 0; i < 300; ++i) {
    EXPECT_EQ(r.Contains({i % 17, i, -i}), i % 2 == 1) << i;
  }
  // The dedup table is exact after the erase: erased rows insert anew,
  // surviving rows stay duplicates.
  EXPECT_TRUE(r.Insert({0, 0, 0}));
  EXPECT_FALSE(r.Insert({1, 1, -1}));
  EXPECT_EQ(r.RowIdOf(Tuple({0, 0, 0}).data()), 150u);
  EXPECT_EQ(r.RowIdOf(Tuple({0, 2, -2}).data()), Relation::kNoRow);
}

TEST(RelationTest, EraseRowsChangesTheVersion) {
  Relation r(1);
  for (Value i = 0; i < 10; ++i) r.Insert({i});
  const std::uint64_t before = r.version();
  Relation absent(1);
  absent.Insert({42});
  EXPECT_EQ(r.EraseRows(absent), 0u);
  EXPECT_EQ(r.version(), before);  // nothing erased: contents unchanged
  Relation some(1);
  some.Insert({3});
  EXPECT_EQ(r.EraseRows(some), 1u);
  EXPECT_NE(r.version(), before);
  EXPECT_NE(r.version(), 0u);
  const Relation all = r;
  EXPECT_EQ(r.EraseRows(all), 9u);  // erasing everything: the empty stamp
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.version(), 0u);
}

// The scan-tail invariant (see WhereEqualsTailStaysInsideThePool) must
// survive the compaction: erase down into the 33-40-row window and scan
// every column.
TEST(RelationTest, EraseRowsKeepsTheWhereEqualsTailInsideThePool) {
  for (std::size_t arity = 1; arity <= 3; ++arity) {
    for (Value rows = 33; rows <= 40; ++rows) {
      Relation r(arity);
      Relation drop(arity);
      for (Value i = 0; i < 48; ++i) {
        std::vector<Value> values;
        for (std::size_t c = 0; c < arity; ++c) {
          values.push_back(i + 1000 * static_cast<Value>(c));
        }
        const Tuple t(std::move(values));
        r.Insert(t);
        // Erase from the front so the survivors shift down.
        if (i < 48 - rows) drop.Insert(t);
      }
      ASSERT_EQ(r.EraseRows(drop), static_cast<std::size_t>(48 - rows));
      for (std::size_t c = 0; c < arity; ++c) {
        const int column = static_cast<int>(c);
        const Value last = 47 + 1000 * static_cast<Value>(c);
        SCOPED_TRACE(testing::Message() << "arity=" << arity
                                        << " rows=" << rows
                                        << " column=" << column);
        EXPECT_EQ(r.WhereEquals(column, last).size(), 1u);
        EXPECT_EQ(r.WhereEquals(column, last),
                  r.WhereEqualsScalar(column, last));
        EXPECT_TRUE(r.WhereEquals(column, 0 + 1000 * static_cast<Value>(c))
                        .empty());  // row 0 was erased
      }
    }
  }
}

TEST(RelationTest, EraseRowsCannotBeDeniedByTheBudget) {
  Relation r(2);
  for (Value i = 0; i < 1000; ++i) r.Insert({i, i + 1});
  Relation drop(2);
  for (Value i = 0; i < 1000; i += 5) drop.Insert({i, i + 1});
  // A budget with no headroom and an armed growth fault: any allocation
  // the erase made would throw.
  QueryBudget exhausted(/*limit_bytes=*/1);
  ScopedQueryBudget scope(&exhausted);
  EXPECT_THROW(ChargeBytesOrThrow(64, FaultSite::kPoolGrowth),
               ResourceExhaustedError);
  ScopedFault fault(FaultSite::kRehash, 1);
  std::size_t erased = 0;
  EXPECT_NO_THROW(erased = r.EraseRows(drop));
  EXPECT_EQ(erased, 200u);
  EXPECT_EQ(r.size(), 800u);
}

/// Checks `r` after an erase: its rows are exactly `expected`, in order;
/// every survivor is found at its own id by Contains/RowIdOf and keeps its
/// cached hash; no row of `erased` is found; and the σ scan over every
/// column (full blocks and the tail) matches the scalar reference.
void ExpectErasedExactly(const Relation& r, const std::vector<Tuple>& expected,
                         const std::vector<Tuple>& erased) {
  ASSERT_EQ(RowsInOrder(r), expected);
  for (RowId id = 0; id < r.size(); ++id) {
    EXPECT_EQ(r.RowIdOf(r.RowData(id)), id);
    EXPECT_TRUE(r.Contains(r.Row(id)));
    EXPECT_EQ(r.RowHash(id), HashRow(r.RowData(id), r.arity())) << id;
  }
  for (const Tuple& t : erased) {
    EXPECT_FALSE(r.Contains(t));
    EXPECT_EQ(r.RowIdOf(t.data()), Relation::kNoRow);
  }
  for (std::size_t c = 0; c < r.arity(); ++c) {
    const int column = static_cast<int>(c);
    for (const Tuple* t : {expected.empty() ? nullptr : &expected.back(),
                           erased.empty() ? nullptr : &erased.back()}) {
      if (t == nullptr) continue;
      EXPECT_EQ(RowsInOrder(r.WhereEquals(column, (*t)[c])),
                RowsInOrder(r.WhereEqualsScalar(column, (*t)[c])));
    }
  }
}

/// Erases from a 203-row relation (not a whole number of scan blocks or
/// bitmap words) the rows whose index `doomed` selects.
template <typename Doomed>
void EraseShape(Doomed doomed) {
  Relation r(2);
  Relation drop(2);
  std::vector<Tuple> kept;
  std::vector<Tuple> erased;
  for (Value i = 0; i < 203; ++i) {
    const Tuple t({i % 13, i * 31});
    r.Insert(t);
    if (doomed(i)) {
      drop.Insert(t);
      erased.push_back(t);
    } else {
      kept.push_back(t);
    }
  }
  EXPECT_EQ(r.EraseRows(drop), erased.size());
  ExpectErasedExactly(r, kept, erased);
}

TEST(RelationTest, EraseRowsShapes) {
  {
    SCOPED_TRACE("first row");
    EraseShape([](Value i) { return i == 0; });
  }
  {
    SCOPED_TRACE("last row");
    EraseShape([](Value i) { return i == 202; });
  }
  {
    SCOPED_TRACE("all rows");
    EraseShape([](Value) { return true; });
  }
  {
    SCOPED_TRACE("no rows");
    EraseShape([](Value) { return false; });
  }
  {
    SCOPED_TRACE("alternating rows");
    EraseShape([](Value i) { return i % 2 == 1; });
  }
  {
    SCOPED_TRACE("a run across bitmap words");
    EraseShape([](Value i) { return i >= 60 && i < 140; });
  }
}

// Erase-then-insert cycles while the relation grows through several dedup
// table sizes: each erase keeps the table (no rehash), so every cycle
// checks that the kept table still finds exactly the survivors, and that
// inserts after an erase land at the end with fresh ids.
TEST(RelationTest, EraseThenInsertCyclesAcrossTableGrowth) {
  Relation r(2);
  std::vector<Tuple> expected;
  std::vector<Tuple> erased;
  Value next = 0;
  for (int cycle = 0; cycle < 12; ++cycle) {
    // Grow by more than is erased, so the table grows across cycles.
    for (int k = 0; k < 50 + cycle * 40; ++k, ++next) {
      const Tuple t({next % 7, next});
      ASSERT_TRUE(r.Insert(t));
      expected.push_back(t);
    }
    Relation drop(2);
    std::vector<Tuple> kept;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if ((i + static_cast<std::size_t>(cycle)) % 3 == 0) {
        drop.Insert(expected[i]);
        erased.push_back(expected[i]);
      } else {
        kept.push_back(expected[i]);
      }
    }
    ASSERT_EQ(r.EraseRows(drop), drop.size());
    expected = std::move(kept);
    SCOPED_TRACE(testing::Message() << "cycle " << cycle);
    ExpectErasedExactly(r, expected, erased);
    // An erased row inserts anew at the end; a survivor stays a duplicate.
    ASSERT_FALSE(r.Insert(expected.front()));
  }
  // Re-inserting every erased row restores them, appended after the
  // survivors in re-insertion order.
  for (const Tuple& t : erased) {
    EXPECT_TRUE(r.Insert(t));
    EXPECT_EQ(r.RowIdOf(t.data()), r.size() - 1);
  }
}

TEST(RelationTest, TruncateRowsKeepsTheTableExact) {
  Relation r(2);
  for (Value i = 0; i < 500; ++i) r.Insert({i, -i});
  r.TruncateRows(321);
  ASSERT_EQ(r.size(), 321u);
  for (Value i = 0; i < 500; ++i) {
    EXPECT_EQ(r.RowIdOf(Tuple({i, -i}).data()),
              i < 321 ? static_cast<RowId>(i) : Relation::kNoRow);
  }
  EXPECT_TRUE(r.Insert({400, -400}));
  EXPECT_EQ(r.RowIdOf(Tuple({400, -400}).data()), 321u);
  r.TruncateRows(0);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.version(), 0u);
  EXPECT_FALSE(r.Contains({1, -1}));
}

// MatchRows is the keyed probe a HashIndex answers: the same row ids, in
// the same (insertion) order, for one or several key columns, across the
// scan tail.
TEST(RelationTest, MatchRowsListsWhatTheIndexBucketLists) {
  for (Value rows = 29; rows <= 36; ++rows) {
    Relation r(3);
    for (Value i = 0; i < rows; ++i) r.Insert({i % 3, i % 5, i});
    for (const std::vector<int>& positions :
         std::vector<std::vector<int>>{{0}, {1}, {0, 1}, {1, 0}}) {
      const HashIndex index(r, positions);
      for (Value a = 0; a < 4; ++a) {
        for (Value b = 0; b < 6; ++b) {
          const Value key[2] = {a, b};
          std::vector<RowId> ids = {999};  // appended to, not replaced
          r.MatchRows(positions, key, &ids);
          const RowSpan span = index.Lookup(key);
          ASSERT_EQ(ids.size(), span.count + 1);
          EXPECT_TRUE(std::equal(span.begin(), span.end(), ids.begin() + 1));
        }
      }
    }
  }
}

TEST(RelationTest, PartitionViewCoversRowRanges) {
  Relation r(2);
  for (Value i = 0; i < 10; ++i) r.Insert({i, i});
  PartitionView all = r.View(0, 10);
  EXPECT_EQ(all.size(), 10u);
  PartitionView tail = r.View(7, 10);
  EXPECT_EQ(tail.size(), 3u);
  EXPECT_FALSE(tail.empty());
  EXPECT_TRUE(r.View(4, 4).empty());
  EXPECT_EQ(tail.relation, &r);
}

TEST(DatabaseTest, GetOrCreateAndFind) {
  Database db;
  Relation& e = db.GetOrCreate("edge", 2);
  e.Insert({1, 2});
  ASSERT_NE(db.Find("edge"), nullptr);
  EXPECT_EQ(db.Find("edge")->size(), 1u);
  EXPECT_EQ(db.Find("missing"), nullptr);
}

TEST(DatabaseTest, GetCheckedArityMismatch) {
  Database db;
  db.GetOrCreate("e", 2);
  auto ok = db.GetChecked("e", 2);
  EXPECT_TRUE(ok.ok());
  auto bad = db.GetChecked("e", 3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto missing = db.GetChecked("x", 1);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, NamesSorted) {
  Database db;
  db.GetOrCreate("zeta", 1);
  db.GetOrCreate("alpha", 1);
  auto names = db.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
}

}  // namespace
}  // namespace linrec
