// Execution equivalence across strategies: every evaluation route — naive,
// semi-naive, the decomposed product, the power sum, the resumed closure
// and the engine's automatic choice — must produce the identical closure on
// the workload suite. This is the paper's core claim (the theorems rewrite
// the *computation*, never the *result*) and the regression net for the
// flat storage layer and the round executor.

#include <gtest/gtest.h>

#include "algebra/closure.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "eval/fixpoint.h"
#include "workload/databases.h"
#include "workload/graphs.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto r = ParseLinearRule(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

/// Asserts naive == semi-naive == engine-auto on (rules, db, q) and returns
/// the agreed closure (as sorted tuples, so failures print deterministic
/// diffs).
std::vector<Tuple> ExpectAllStrategiesAgree(
    const std::vector<LinearRule>& rules, Database db, const Relation& q) {
  auto naive = NaiveClosure(rules, db, q);
  auto semi = SemiNaiveClosure(rules, db, q);
  EXPECT_TRUE(naive.ok()) << naive.status();
  EXPECT_TRUE(semi.ok()) << semi.status();
  EXPECT_EQ(*naive, *semi);

  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  auto engine_out = engine.Execute(prepared->Bind().BindSeed(q));
  EXPECT_TRUE(engine_out.ok()) << engine_out.status();
  EXPECT_EQ(*semi, engine_out->relation());
  return semi->Sorted();
}

TEST(StrategyEquivalence, TransitiveClosureChain) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(24);
  Relation q(2);
  for (int i = 0; i < 24; ++i) q.Insert({i, i});
  auto sorted = ExpectAllStrategiesAgree({LR("p(X,Y) :- p(X,Z), e(Z,Y).")},
                                         std::move(db), q);
  EXPECT_EQ(sorted.size(), 24u * 25u / 2u);
}

TEST(StrategyEquivalence, TransitiveClosureGrid) {
  Database db;
  db.GetOrCreate("e", 2) = GridGraph(5, 5);
  Relation q(2);
  for (int i = 0; i < 25; ++i) q.Insert({i, i});
  ExpectAllStrategiesAgree({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}, std::move(db),
                           q);
}

TEST(StrategyEquivalence, TransitiveClosureRandom) {
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(60, 150, /*seed=*/7);
  Relation q(2);
  for (int i = 0; i < 60; i += 3) q.Insert({i, i});
  ExpectAllStrategiesAgree({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}, std::move(db),
                           q);
}

TEST(StrategyEquivalence, SameGenerationDecomposedMatchesDirect) {
  SameGenerationWorkload w =
      MakeSameGeneration(/*layers=*/4, /*width=*/10, /*fanout=*/2,
                         /*seed=*/42);
  std::vector<LinearRule> rules = SameGenerationRules();

  auto direct = SemiNaiveClosure(rules, w.db, w.q);
  ASSERT_TRUE(direct.ok()) << direct.status();

  // The two rules commute, so each may form its own group (Theorem 3.1).
  std::vector<std::vector<LinearRule>> groups = {{rules[0]}, {rules[1]}};
  auto decomposed = DecomposedClosure(groups, w.db, w.q);
  ASSERT_TRUE(decomposed.ok()) << decomposed.status();
  EXPECT_EQ(*direct, *decomposed);
}

TEST(StrategyEquivalence, DecomposedThreeGroups) {
  // Three mutually commuting chase operators over disjoint columns-by-value
  // ranges: each rule advances along its own edge relation. All groups
  // commute pairwise, so the product of their closures must equal the
  // direct closure.
  Database db;
  db.GetOrCreate("e1", 2) = ChainGraph(8);
  Relation shifted(2);
  for (TupleView t : ChainGraph(8)) shifted.Insert({t[0] + 100, t[1] + 100});
  db.GetOrCreate("e2", 2) = shifted;
  Relation far(2);
  for (TupleView t : ChainGraph(8)) far.Insert({t[0] + 200, t[1] + 200});
  db.GetOrCreate("e3", 2) = far;

  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e1(Z,Y)."),
                                   LR("p(X,Y) :- p(X,Z), e2(Z,Y)."),
                                   LR("p(X,Y) :- p(X,Z), e3(Z,Y).")};
  Relation q(2);
  q.Insert({0, 0});
  q.Insert({0, 100});
  q.Insert({0, 200});

  auto direct = SemiNaiveClosure(rules, db, q);
  ASSERT_TRUE(direct.ok()) << direct.status();

  std::vector<std::vector<LinearRule>> groups = {{rules[0]}, {rules[1]},
                                                 {rules[2]}};
  auto out = DecomposedClosure(groups, db, q);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*direct, *out);
}

// --- Semi-naive determinism suite -----------------------------------------
//
// The serial rounds are deterministic: repeated runs produce the identical
// closure, in the identical row order, with identical counters, and each
// route agrees with an independent one.

TEST(SemiNaiveDeterminism, RepeatRunsAgreeWithNaive_TcRandom) {
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(200, 600, /*seed=*/7);
  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Relation q(2);
  for (int i = 0; i < 200; i += 4) q.Insert({i, i});

  auto naive = NaiveClosure(rules, db, q);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ClosureStats reference_stats;
  auto reference = SemiNaiveClosure(rules, db, q, &reference_stats);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(*naive, *reference);
  for (int run = 0; run < 3; ++run) {
    ClosureStats stats;
    auto out = SemiNaiveClosure(rules, db, q, &stats);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*reference, *out) << "run=" << run;
    EXPECT_EQ(stats.derivations, reference_stats.derivations) << "run=" << run;
    EXPECT_EQ(stats.iterations, reference_stats.iterations);
    for (RowId r = 0; r < out->size(); ++r) {
      ASSERT_TRUE(out->Row(r) == reference->Row(r))
          << "run=" << run << " row " << r;
    }
  }
}

TEST(SemiNaiveDeterminism, RepeatRunsAgreeWithNaive_SameGen) {
  SameGenerationWorkload w =
      MakeSameGeneration(/*layers=*/5, /*width=*/24, /*fanout=*/2,
                         /*seed=*/99);
  std::vector<LinearRule> rules = SameGenerationRules();

  auto naive = NaiveClosure(rules, w.db, w.q);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ClosureStats reference_stats;
  auto reference = SemiNaiveClosure(rules, w.db, w.q, &reference_stats);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(*naive, *reference);
  for (int run = 0; run < 3; ++run) {
    ClosureStats stats;
    auto out = SemiNaiveClosure(rules, w.db, w.q, &stats);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*reference, *out) << "run=" << run;
    EXPECT_EQ(stats.derivations, reference_stats.derivations) << "run=" << run;
  }
}

TEST(SemiNaiveDeterminism, ResumeMatchesClosureOfTheUnion) {
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(150, 450, /*seed=*/21);
  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};

  Relation q1(2);
  for (int i = 0; i < 150; i += 10) q1.Insert({i, i});
  auto closed = SemiNaiveClosure(rules, db, q1);
  ASSERT_TRUE(closed.ok()) << closed.status();

  Relation extra(2);
  for (int i = 5; i < 150; i += 10) extra.Insert({i, i});
  Relation both = q1;
  both.UnionWith(extra);
  auto reference = SemiNaiveClosure(rules, db, both);
  ASSERT_TRUE(reference.ok()) << reference.status();
  auto out = SemiNaiveResume(rules, db, *closed, extra);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*reference, *out);
}

TEST(SemiNaiveDeterminism, EngineWorkerOptionLeavesExecuteUnchanged) {
  // parallel_workers sizes batch lanes only: a single Execute on an
  // 8-worker engine and on a serial engine agree on tc_random.
  auto build_engine = [](int workers) {
    Database db;
    db.GetOrCreate("e", 2) = RandomGraph(200, 600, /*seed=*/7);
    EngineOptions options;
    options.parallel_workers = workers;
    return Engine(std::move(db), options);
  };
  Relation q(2);
  for (int i = 0; i < 200; i += 4) q.Insert({i, i});
  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};

  Engine serial_engine = build_engine(1);
  Engine parallel_engine = build_engine(8);
  auto serial_prepared = serial_engine.Prepare(Query::Closure(rules));
  auto parallel_prepared = parallel_engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(serial_prepared.ok()) << serial_prepared.status();
  ASSERT_TRUE(parallel_prepared.ok()) << parallel_prepared.status();
  auto serial = serial_engine.Execute(serial_prepared->Bind().BindSeed(q));
  auto parallel =
      parallel_engine.Execute(parallel_prepared->Bind().BindSeed(q));
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(serial->relation(), parallel->relation());
}

TEST(SemiNaiveDeterminism, NaiveAndPowerSumMatchSemiNaive) {
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(120, 360, /*seed=*/3);
  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Relation q(2);
  for (int i = 0; i < 120; i += 6) q.Insert({i, i});

  auto semi = SemiNaiveClosure(rules, db, q);
  ASSERT_TRUE(semi.ok()) << semi.status();
  auto naive = NaiveClosure(rules, db, q);
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_EQ(*semi, *naive);

  // A shortest path visits each of the 120 nodes at most once, so the
  // power sum up to A^120 already holds the whole closure.
  auto power = PowerSum(rules, db, q, 120);
  ASSERT_TRUE(power.ok()) << power.status();
  EXPECT_EQ(*semi, *power);
}

TEST(StrategyEquivalence, SimdAndScalarScansAgreeOnEveryStrategysClosure) {
  // The σ scan must be kernel-independent on every strategy's output: the
  // vectorized WhereEquals and the scalar reference kernel see the same
  // pool layout the closure produced and must pick the same rows in the
  // same order. (The cross-build half of the guarantee — a LINREC_SIMD=OFF
  // binary producing identical closures — is this same suite under the CI
  // simd-off job.)
  SameGenerationWorkload w =
      MakeSameGeneration(/*layers=*/4, /*width=*/8, /*fanout=*/2, /*seed=*/9);
  std::vector<LinearRule> rules = SameGenerationRules();

  auto check = [](const Relation& closure) {
    ASSERT_GT(closure.size(), 0u);
    const Value probe = closure.Row(0)[0];
    for (Value v : {probe, Value{-1}}) {
      Relation simd = closure.WhereEquals(0, v);
      Relation scalar = closure.WhereEqualsScalar(0, v);
      ASSERT_EQ(simd.size(), scalar.size());
      for (std::size_t r = 0; r < simd.size(); ++r) {
        ASSERT_TRUE(simd.Row(static_cast<RowId>(r)) ==
                    scalar.Row(static_cast<RowId>(r)))
            << "row " << r << " differs between kernels";
      }
    }
  };

  auto naive = NaiveClosure(rules, w.db, w.q);
  ASSERT_TRUE(naive.ok()) << naive.status();
  check(*naive);

  auto semi = SemiNaiveClosure(rules, w.db, w.q);
  ASSERT_TRUE(semi.ok()) << semi.status();
  check(*semi);

  auto power = PowerSum(rules, w.db, w.q, /*max_power=*/64);
  ASSERT_TRUE(power.ok()) << power.status();
  check(*power);

  std::vector<std::vector<LinearRule>> groups = {{rules[0]}, {rules[1]}};
  auto decomposed = DecomposedClosure(groups, w.db, w.q);
  ASSERT_TRUE(decomposed.ok()) << decomposed.status();
  check(*decomposed);
}

TEST(StrategyEquivalence, SemiNaiveResumeMatchesFromScratch) {
  // Resuming from a closed part plus extra seeds must equal closing the
  // union from scratch.
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(16);
  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};

  Relation q1(2);
  q1.Insert({0, 0});
  auto closed = SemiNaiveClosure(rules, db, q1);
  ASSERT_TRUE(closed.ok()) << closed.status();

  Relation extra(2);
  extra.Insert({5, 5});
  extra.Insert({0, 3});  // already derivable: must not disturb anything

  Relation both = q1;
  both.UnionWith(extra);
  auto scratch = SemiNaiveClosure(rules, db, both);
  ASSERT_TRUE(scratch.ok()) << scratch.status();

  auto resumed = SemiNaiveResume(rules, db, *closed, extra);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(*scratch, *resumed);
}

}  // namespace
}  // namespace linrec
