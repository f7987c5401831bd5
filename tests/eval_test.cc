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

/// A 1000-row "view" v(X, Z) in which every 10th row has Z = 7, and a
/// one-row delta d(7, 9): the IVM delta-rule shape — one probe of v on its
/// second column per delta row.
struct ScanProbeFixture {
  Database db;
  Relation delta{2};
  ApplyOptions options;
  Rule rule = *ParseRule("h(X, Y) :- d(Z, Y), v(X, Z).");

  ScanProbeFixture() {
    Relation& v = db.GetOrCreate("v", 2);
    for (Value i = 0; i < 1000; ++i) v.Insert({i, i % 10 == 3 ? 7 : i + 1000});
    delta.Insert({7, 9});
    options.overrides[0] = &delta;
    options.first_atom = 0;
  }
  const Relation& view() const { return *db.Find("v"); }
  std::vector<Tuple> Run(IndexCache* cache, ClosureStats* stats) {
    Relation out(2);
    Status status = ApplyRule(rule, db, options, &out, stats, cache);
    EXPECT_TRUE(status.ok()) << status;
    std::vector<Tuple> rows;
    for (TupleView t : out) rows.push_back(t.ToTuple());
    return rows;
  }
};

// A probe answered by column scan yields what the index probe yields: the
// same rows in the same order, with the same derivation, probe and
// candidate-row counters. Only scan_probes / index_builds tell them apart.
TEST(IndexCacheTest, ScanProbedStepMatchesTheIndexStep) {
  ScanProbeFixture f;
  IndexCache renting;
  IndexCache bought;
  bought.Get(f.view(), {1});  // index built up front: every probe hits it
  ClosureStats scanned;
  ClosureStats indexed;
  const std::vector<Tuple> scan_rows = f.Run(&renting, &scanned);
  const std::vector<Tuple> index_rows = f.Run(&bought, &indexed);
  EXPECT_EQ(scan_rows.size(), 100u);
  EXPECT_EQ(scan_rows, index_rows);
  EXPECT_EQ(scanned.derivations, indexed.derivations);
  EXPECT_EQ(scanned.probes_issued, indexed.probes_issued);
  EXPECT_EQ(scanned.rows_scanned, indexed.rows_scanned);
  EXPECT_EQ(scanned.scan_probes, 1u);
  EXPECT_EQ(scanned.index_builds, 0u);
  EXPECT_EQ(indexed.scan_probes, 0u);
  EXPECT_EQ(renting.rebuilds(), 0u);
}

// Rent or buy: one-probe Runs over an unchanged view scan until the scans
// have spent the credit (kBuildScanRatio scans of the view); the next Run
// that probes builds the index, exactly once, and later Runs hit it. A
// new version resets the credit, so the next one-probe Run scans again.
TEST(IndexCacheTest, BuildsOnceWhenTheScanCreditIsSpent) {
  ScanProbeFixture f;
  IndexCache cache;
  const std::size_t renting_runs = IndexCache::kBuildScanRatio;
  for (std::size_t run = 0; run < renting_runs; ++run) {
    ClosureStats stats;
    f.Run(&cache, &stats);
    EXPECT_EQ(stats.scan_probes, 1u) << run;
    EXPECT_EQ(cache.rebuilds(), 0u) << run;
  }
  ClosureStats buying;
  f.Run(&cache, &buying);
  EXPECT_EQ(buying.scan_probes, 0u);
  EXPECT_EQ(buying.index_builds, 1u);
  EXPECT_EQ(cache.rebuilds(), 1u);
  for (int run = 0; run < 5; ++run) {
    ClosureStats stats;
    f.Run(&cache, &stats);
    EXPECT_EQ(stats.index_builds, 0u);
  }
  EXPECT_EQ(cache.rebuilds(), 1u);

  f.db.GetOrCreate("v", 2).Insert({5000, 5001});
  ClosureStats after_update;
  f.Run(&cache, &after_update);
  EXPECT_EQ(after_update.scan_probes, 1u);
  EXPECT_EQ(cache.rebuilds(), 1u);
}

// A Run whose probe count is known up front buys when those scans would
// overrun the credit: kBuildScanRatio + 1 delta rows build the index at
// once. An unknown count (a depth-2 step) rents until the credit is
// spent, then switches to the index mid-Run — with the same answer and
// the same probe counts either way.
TEST(IndexCacheTest, PlannedProbesBuyUpFrontAndRentingSwitchesMidRun) {
  ScanProbeFixture f;
  f.delta.Clear();
  for (std::size_t i = 0; i <= IndexCache::kBuildScanRatio; ++i) {
    f.delta.Insert({7, static_cast<Value>(i)});
  }
  IndexCache cache;
  ClosureStats planned;
  const std::vector<Tuple> planned_rows = f.Run(&cache, &planned);
  EXPECT_EQ(planned.scan_probes, 0u);
  EXPECT_EQ(planned.index_builds, 1u);

  // Depth 2: d is scanned, u(Y) — a membership test, taken before v as
  // the smaller relation — passes every d row, then v is probed: its probe
  // count is not known when the Run starts.
  Relation& u = f.db.GetOrCreate("u", 1);
  for (TupleView t : f.delta) u.Insert({t[1]});
  f.rule = *ParseRule("h(X, Y) :- d(Z, Y), u(Y), v(X, Z).");
  IndexCache renting;
  ClosureStats mid_run;
  const std::vector<Tuple> mid_run_rows = f.Run(&renting, &mid_run);
  EXPECT_EQ(mid_run_rows, planned_rows);
  EXPECT_EQ(mid_run.scan_probes, IndexCache::kBuildScanRatio);
  EXPECT_EQ(mid_run.index_builds, 1u);  // the last probe bought
  EXPECT_EQ(mid_run.probes_issued, 2 * planned.probes_issued);  // + u's
  EXPECT_EQ(mid_run.rows_scanned,
            planned.rows_scanned + f.delta.size());  // + u's hits
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
