#include "eval/fixpoint.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "eval/joint.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

LinearRule TC() {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  EXPECT_TRUE(lr.ok());
  return *lr;
}

TEST(SemiNaiveTest, TransitiveClosureOfChain) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(5);  // 0->1->2->3->4
  Relation q(2);
  for (int i = 0; i < 5; ++i) q.Insert({i, i});  // identity seed

  ClosureStats stats;
  Result<Relation> out = SemiNaiveClosure({TC()}, db, q, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  // All pairs (i,j) with i <= j: 15.
  EXPECT_EQ(out->size(), 15u);
  EXPECT_TRUE(out->Contains({0, 4}));
  EXPECT_FALSE(out->Contains({4, 0}));
  EXPECT_EQ(stats.result_size, 15u);
  EXPECT_GE(stats.iterations, 4u);
}

TEST(SemiNaiveTest, CycleTerminates) {
  Database db;
  db.GetOrCreate("e", 2) = CycleGraph(4);
  Relation q(2);
  q.Insert({0, 0});
  Result<Relation> out = SemiNaiveClosure({TC()}, db, q);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 4u);  // (0, j) for all j
}

TEST(SemiNaiveTest, EmptySeedGivesEmptyResult) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(5);
  Relation q(2);
  ClosureStats stats;
  Result<Relation> out = SemiNaiveClosure({TC()}, db, q, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(SemiNaiveTest, MultipleRules) {
  // Two operators: forward and backward edges.
  auto r1 = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto r2 = ParseLinearRule("p(X,Y) :- p(X,Z), f(Z,Y).");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  Database db;
  db.GetOrCreate("e", 2).Insert({0, 1});
  db.GetOrCreate("f", 2).Insert({1, 2});
  Relation q(2);
  q.Insert({9, 0});
  Result<Relation> out = SemiNaiveClosure({*r1, *r2}, db, q);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Contains({9, 1}));
  EXPECT_TRUE(out->Contains({9, 2}));
  EXPECT_EQ(out->size(), 3u);
}

TEST(NaiveMatchesSemiNaive, OnRandomGraph) {
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(30, 60, 7);
  Relation q(2);
  for (int i = 0; i < 30; ++i) q.Insert({i, i});
  ClosureStats naive_stats;
  ClosureStats semi_stats;
  Result<Relation> naive = NaiveClosure({TC()}, db, q, &naive_stats);
  Result<Relation> semi = SemiNaiveClosure({TC()}, db, q, &semi_stats);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(*naive, *semi);
  // Naive rederives everything each round.
  EXPECT_GE(naive_stats.derivations, semi_stats.derivations);
}

TEST(SemiNaiveTest, DuplicateAccounting) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(4);
  Relation q(2);
  for (int i = 0; i < 4; ++i) q.Insert({i, i});
  ClosureStats stats;
  Result<Relation> out = SemiNaiveClosure({TC()}, db, q, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.duplicates,
            stats.derivations - (stats.result_size - q.size()));

  // A record shared across calls accumulates each call's own duplicates
  // (derivations it made minus rows it added), never the running totals.
  Database g;
  g.GetOrCreate("e", 2) = RandomGraph(60, 150, 5);
  Relation lo(2), hi(2);
  for (int i = 0; i < 60; ++i) (i < 30 ? lo : hi).Insert({i, i});

  ClosureStats once;
  ASSERT_TRUE(SemiNaiveClosure({TC()}, g, lo, &once).ok());
  ASSERT_GT(once.duplicates, 0u);
  ClosureStats twice;
  ASSERT_TRUE(SemiNaiveClosure({TC()}, g, lo, &twice).ok());
  ASSERT_TRUE(SemiNaiveClosure({TC()}, g, lo, &twice).ok());
  EXPECT_EQ(twice.duplicates, 2 * once.duplicates);

  Result<JointWorkload> w = MakeAlternatingReachability(40, 90, 7);
  ASSERT_TRUE(w.ok());
  ClosureStats joint_once;
  ASSERT_TRUE(JointSemiNaiveClosure(w->members, w->rules, w->db, w->seeds,
                                    &joint_once)
                  .ok());
  ASSERT_GT(joint_once.duplicates, 0u);
  ClosureStats joint_twice;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(JointSemiNaiveClosure(w->members, w->rules, w->db, w->seeds,
                                      &joint_twice)
                    .ok());
  }
  EXPECT_EQ(joint_twice.duplicates, 2 * joint_once.duplicates);

  Result<Relation> closed = SemiNaiveClosure({TC()}, g, lo);
  ASSERT_TRUE(closed.ok());
  ClosureStats resume_alone;
  Result<Relation> resumed =
      SemiNaiveResume({TC()}, g, *closed, hi, &resume_alone);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resume_alone.duplicates,
            resume_alone.derivations - (resumed->size() - closed->size() -
                                        hi.size()));
  ClosureStats shared = once;  // a closure already in the record
  ASSERT_TRUE(SemiNaiveResume({TC()}, g, *closed, hi, &shared).ok());
  EXPECT_EQ(shared.duplicates, once.duplicates + resume_alone.duplicates);

  // The in-place continuation counts the rows it appended past the seed.
  Relation extended = *closed;
  const RowId begin = static_cast<RowId>(extended.size());
  for (TupleView t : hi) extended.Insert(t);
  const std::size_t seeded = extended.size();
  ClosureStats extend_stats;
  ASSERT_TRUE(
      SemiNaiveExtend({TC()}, g, &extended, begin, &extend_stats).ok());
  EXPECT_EQ(extend_stats.duplicates,
            extend_stats.derivations - (extended.size() - seeded));
}

TEST(SemiNaiveTest, MismatchedArityRejected) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  Relation q(3);
  q.Insert({1, 2, 3});
  EXPECT_FALSE(SemiNaiveClosure({*lr}, db, q).ok());
}

TEST(SemiNaiveTest, MixedHeadPredicatesRejected) {
  auto r1 = ParseLinearRule("p(X) :- p(X), a(X).");
  auto r2 = ParseLinearRule("r(X) :- r(X), a(X).");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  Database db;
  Relation q(1);
  q.Insert({1});
  EXPECT_FALSE(SemiNaiveClosure({*r1, *r2}, db, q).ok());
}

TEST(PowerSumTest, CollectsBoundedPowers) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(10);
  Relation q(2);
  q.Insert({0, 0});
  // Σ_{m=0}^{3} A^m q = {(0,0),(0,1),(0,2),(0,3)}.
  Result<Relation> out = PowerSum({TC()}, db, q, 3);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 4u);
  EXPECT_TRUE(out->Contains({0, 3}));
  EXPECT_FALSE(out->Contains({0, 4}));
}

TEST(PowerSumTest, ZeroPowerIsIdentity) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(3);
  Relation q(2);
  q.Insert({0, 0});
  Result<Relation> out = PowerSum({TC()}, db, q, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, q);
}

TEST(PowerSumTest, StopsEarlyWhenPowersDie) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(3);  // 0->1->2
  Relation q(2);
  q.Insert({0, 0});
  Result<Relation> out = PowerSum({TC()}, db, q, 100);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

}  // namespace
}  // namespace linrec
