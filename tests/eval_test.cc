#include "eval/apply.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "eval/selection.h"

namespace linrec {
namespace {

Database EdgeDb(std::initializer_list<std::pair<Value, Value>> edges) {
  Database db;
  Relation& e = db.GetOrCreate("e", 2);
  for (auto [u, v] : edges) e.Insert({u, v});
  return db;
}

TEST(ApplyRuleTest, SimpleJoin) {
  // p(X,Y) :- p(X,Z), e(Z,Y) applied to q = {(0,1)} over e = {(1,2),(2,3)}.
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  ASSERT_TRUE(lr.ok());
  Database db = EdgeDb({{1, 2}, {2, 3}});
  Relation input(2);
  input.Insert({0, 1});

  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->size(), 1u);
  EXPECT_TRUE(out->Contains({0, 2}));
}

TEST(ApplyRuleTest, CountsDerivationsIncludingDuplicates) {
  // Two e-paths deriving the same head tuple.
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,W), f(W,Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  Relation& e = db.GetOrCreate("e", 2);
  e.Insert({1, 10});
  e.Insert({1, 20});
  Relation& f = db.GetOrCreate("f", 2);
  f.Insert({10, 5});
  f.Insert({20, 5});
  Relation input(2);
  input.Insert({0, 1});

  ClosureStats stats;
  Result<Relation> out = ApplySum({*lr}, db, input, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);        // only (0,5)
  EXPECT_EQ(stats.derivations, 2u);  // derived twice
}

TEST(ApplyRuleTest, RepeatedVariableInAtom) {
  // Self-loop detection: p(X) :- p(X), e(Y,Y).
  auto lr = ParseLinearRule("p(X) :- p(X), e(Y,Y).");
  ASSERT_TRUE(lr.ok());
  Database db = EdgeDb({{1, 2}, {3, 3}});
  Relation input(1);
  input.Insert({9});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);  // the (3,3) loop exists
}

TEST(ApplyRuleTest, RepeatedVariableNoMatch) {
  auto lr = ParseLinearRule("p(X) :- p(X), e(Y,Y).");
  ASSERT_TRUE(lr.ok());
  Database db = EdgeDb({{1, 2}, {2, 3}});
  Relation input(1);
  input.Insert({9});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(ApplyRuleTest, ConstantsInBody) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y), anchor(X, 7).");
  ASSERT_TRUE(lr.ok());
  Database db = EdgeDb({{1, 2}});
  Relation& anchor = db.GetOrCreate("anchor", 2);
  anchor.Insert({0, 7});
  anchor.Insert({5, 8});
  Relation input(2);
  input.Insert({0, 1});
  input.Insert({5, 1});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);  // only X=0 passes anchor(X,7)
  EXPECT_TRUE(out->Contains({0, 2}));
}

TEST(ApplyRuleTest, MissingPredicateMeansEmpty) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), nothere(Z,Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  Relation input(2);
  input.Insert({0, 1});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(ApplyRuleTest, UnboundHeadVariableRejected) {
  auto rule = ParseRule("p(X,Y) :- q(X).");
  ASSERT_TRUE(rule.ok());
  Database db;
  db.GetOrCreate("q", 1).Insert({1});
  Relation out(2);
  Status st = ApplyRule(*rule, db, {}, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ApplyRuleTest, ArityMismatchRejected) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  db.GetOrCreate("e", 3).Insert({1, 2, 3});
  Relation input(2);
  input.Insert({0, 1});
  Result<Relation> out = ApplySum({*lr}, db, input);
  EXPECT_FALSE(out.ok());
}

TEST(ApplyRuleTest, CartesianProductWhenDisconnected) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,W), a(X), b(Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  db.GetOrCreate("a", 1).Insert({0});
  Relation& b = db.GetOrCreate("b", 1);
  b.Insert({1});
  b.Insert({2});
  Relation input(2);
  input.Insert({0, 9});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(SelectionTest, FiltersByPosition) {
  Relation r(2);
  r.Insert({1, 2});
  r.Insert({1, 3});
  r.Insert({2, 3});
  Relation out = ApplySelection(r, Selection{0, 1});
  EXPECT_EQ(out.size(), 2u);
  out = ApplySelection(r, Selection{1, 3});
  EXPECT_EQ(out.size(), 2u);
  out = ApplySelection(r, Selection{0, 9});
  EXPECT_TRUE(out.empty());
}

// A step whose key binds every position of its atom is a membership test:
// it probes the relation's own dedup table. Against the index path — the
// same rows behind a free extra column, so the step keys on a strict
// subset and builds a HashIndex — it yields the same rows in the same
// order with the same probe and scan counters, and caches no index.
TEST(ApplyRuleTest, FullyBoundAtomProbesTheDedupTable) {
  Database db;
  Relation& e = db.GetOrCreate("e", 2);
  Relation& f = db.GetOrCreate("f", 2);
  Relation& g = db.GetOrCreate("g", 3);
  for (Value i = 0; i < 40; ++i) {
    e.Insert({i, i + 1});
    if (i % 3 != 0) {
      f.Insert({i, i + 1});
      g.Insert({i, i + 1, 0});
    }
  }
  ApplyOptions e_first;
  e_first.first_atom = 0;
  auto run = [&](const std::string& text, IndexCache* cache,
                 ClosureStats* stats) {
    auto rule = ParseRule(text);
    EXPECT_TRUE(rule.ok()) << rule.status();
    Relation out(2);
    Status s = ApplyRule(*rule, db, e_first, &out, stats, cache);
    EXPECT_TRUE(s.ok()) << s;
    std::vector<Tuple> rows;
    for (TupleView t : out) rows.push_back(t.ToTuple());
    return rows;
  };
  IndexCache member_cache, index_cache;
  ClosureStats member, indexed;
  const std::vector<Tuple> member_rows =
      run("h(X,Y) :- e(X,Y), f(X,Y).", &member_cache, &member);
  const std::vector<Tuple> indexed_rows =
      run("h(X,Y) :- e(X,Y), g(X,Y,W).", &index_cache, &indexed);

  EXPECT_EQ(member_rows.size(), 26u);
  EXPECT_EQ(member_rows, indexed_rows);
  EXPECT_EQ(member.derivations, indexed.derivations);
  EXPECT_EQ(member.probes_issued, indexed.probes_issued);
  EXPECT_EQ(member.probes_issued, 40u);  // one per e row
  EXPECT_EQ(member.rows_scanned, indexed.rows_scanned);
  EXPECT_EQ(member_cache.entry_count(), 0u);
  EXPECT_EQ(index_cache.entry_count(), 1u);
}

TEST(IndexCacheTest, ReusesUntilVersionChanges) {
  Relation r(2);
  r.Insert({1, 2});
  IndexCache cache;
  const HashIndex& i1 = cache.Get(r, {0});
  const HashIndex& i2 = cache.Get(r, {0});
  EXPECT_EQ(&i1, &i2);
  EXPECT_EQ(cache.rebuilds(), 1u);
  r.Insert({3, 4});
  cache.Get(r, {0});
  EXPECT_EQ(cache.rebuilds(), 2u);
}

}  // namespace
}  // namespace linrec
