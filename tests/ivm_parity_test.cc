// IVM parity suite: the delta engine must be observationally equal to
// recomputation. Apply(Δ) on a materialized view yields the relation a
// from-scratch evaluation over the updated inputs would; Retract undoes
// it (DRed); Apply-then-Retract of the same delta round-trips to the
// exact pre-update bytes; a fault injected mid-Apply rolls back to the
// exact pre-call bytes. All of it across strategies.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "ivm/view.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto r = ParseLinearRule(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

/// Rows in INSERTION order — the byte-level observable of a relation
/// (Sorted() would hide reordering).
std::vector<Tuple> Rows(const Relation& rel) {
  std::vector<Tuple> out;
  out.reserve(rel.size());
  for (TupleView t : rel) {
    out.emplace_back(std::vector<Value>(t.data(), t.data() + t.arity()));
  }
  return out;
}

Relation IdentitySeed(int nodes) {
  Relation q(2);
  for (int i = 0; i < nodes; ++i) q.Insert({i, i});
  return q;
}

/// Splits `edges` into a base part and `batches` update batches of
/// `batch_size` rows each (deterministic: insertion order).
struct EdgeStream {
  Relation base{2};
  std::vector<Relation> batches;
};
EdgeStream SplitEdges(const Relation& edges, int batches, int batch_size) {
  EdgeStream s;
  const std::size_t updates =
      static_cast<std::size_t>(batches) * static_cast<std::size_t>(batch_size);
  const std::size_t base_count = edges.size() - updates;
  std::size_t i = 0;
  for (TupleView t : edges) {
    if (i < base_count) {
      s.base.Insert(t);
    } else {
      const std::size_t b = (i - base_count) / batch_size;
      if (s.batches.size() <= b) s.batches.emplace_back(2);
      s.batches[b].Insert(t);
    }
    ++i;
  }
  return s;
}

/// The oracle: from-scratch closure of `rules` over edge relation `e`.
Relation Recompute(const std::vector<LinearRule>& rules, const Relation& e,
                   const Relation& q) {
  Database db;
  db.GetOrCreate("e", 2) = e;
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  auto out = engine.Execute(prepared->Bind().BindSeed(q));
  EXPECT_TRUE(out.ok()) << out.status();
  return out->relation();
}

/// Materializes tc over the base edges, Applies each update batch, and
/// checks the maintained view equals the from-scratch closure after
/// every batch.
void RunApplyParity(std::vector<LinearRule> rules) {
  const int nodes = 40;
  EdgeStream s = SplitEdges(RandomGraph(nodes, 140, /*seed=*/11),
                            /*batches=*/4, /*batch_size=*/10);
  const Relation q = IdentitySeed(nodes);

  Database db;
  db.GetOrCreate("e", 2) = s.base;
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  Relation all_edges = s.base;
  for (const Relation& batch : s.batches) {
    DeltaInsert delta;
    delta.param_inserts.emplace("e", batch);
    auto outcome = engine.Apply(*view, delta);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    all_edges.UnionWith(batch);

    const Relation* maintained = engine.db().Find("tc");
    ASSERT_NE(maintained, nullptr);
    EXPECT_EQ(*maintained, Recompute(rules, all_edges, q));
    // The database copy of the input tracked the stream.
    EXPECT_EQ(*engine.db().Find("e"), all_edges);
  }
  EXPECT_EQ(view->applies(), s.batches.size());
}

TEST(IvmApply, MatchesRecompute) {
  RunApplyParity({LR("p(X,Y) :- p(X,Z), e(Z,Y).")});
}

TEST(IvmApply, MatchesRecomputeTwoRules) {
  // Left- and right-linear rules over the same input: both read "e", so
  // one parameter delta seeds delta runs of both.
  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y)."),
                                   LR("p(X,Y) :- e(X,Z), p(Z,Y).")};
  RunApplyParity(rules);
}

TEST(IvmApply, SeedInsertsExtendTheClosure) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(12);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // Seed only half the nodes; the rest arrive as seed deltas.
  Relation q(2);
  for (int i = 0; i < 6; ++i) q.Insert({i, i});
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  DeltaInsert delta;
  delta.seed_inserts.emplace_back(2);
  for (int i = 6; i < 12; ++i) delta.seed_inserts[0].Insert({i, i});
  auto outcome = engine.Apply(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->added, outcome->appended[0].second -
                                outcome->appended[0].first);

  EXPECT_EQ(*engine.db().Find("tc"),
            Recompute(rules, ChainGraph(12), IdentitySeed(12)));
  // The maintained seed absorbed the delta.
  EXPECT_EQ(view->seed(), IdentitySeed(12));
}

TEST(IvmApply, IdempotentOnDuplicateDelta) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(10);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view =
      engine.Materialize(prepared->Bind().BindSeed(IdentitySeed(10)), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();
  const std::vector<Tuple> before = Rows(*engine.db().Find("tc"));

  // Re-inserting tuples the input already holds derives nothing new and
  // leaves the view byte-identical (stale deltas are sound).
  DeltaInsert delta;
  Relation dup(2);
  dup.Insert({3, 4});
  dup.Insert({7, 8});
  delta.param_inserts.emplace("e", std::move(dup));
  auto outcome = engine.Apply(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->added, 0u);
  EXPECT_EQ(Rows(*engine.db().Find("tc")), before);
}

/// Retract parity: delete a batch of edges from a maintained view and
/// compare against the from-scratch closure over the remaining edges.
void RunRetractParity() {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  const int nodes = 36;
  const Relation edges = RandomGraph(nodes, 120, /*seed=*/23);
  const Relation q = IdentitySeed(nodes);

  Database db;
  db.GetOrCreate("e", 2) = edges;
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  // Delete every fifth edge — dense enough that some damaged tuples have
  // alternative derivations (the re-derive half of DRed does real work).
  Relation remaining(2), dropped(2);
  std::size_t i = 0;
  for (TupleView t : edges) {
    if (i++ % 5 == 0) {
      dropped.Insert(t);
    } else {
      remaining.Insert(t);
    }
  }
  DeltaDelete delta;
  delta.param_deletes.emplace("e", dropped);
  auto outcome = engine.Retract(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  EXPECT_EQ(*engine.db().Find("tc"), Recompute(rules, remaining, q));
  EXPECT_EQ(*engine.db().Find("e"), remaining);
  EXPECT_EQ(view->retracts(), 1u);
}

TEST(IvmRetract, MatchesRecompute) { RunRetractParity(); }

/// Retract commits in place: the survivors keep their rows, in order, and
/// re-derived tuples are never moved — the view after the call is the
/// pre-delete view minus exactly `removed`. The damaged part is a dense
/// random graph; with `bystander` a 200-edge chain beside it holds most of
/// the view, so the suspects are a small cone (re-derived by the guarded
/// joins) instead of most of the view (re-derived from the survivors).
void RunRetractKeepsOrder(bool bystander) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  const int nodes = 36;
  Relation edges = RandomGraph(nodes, 120, /*seed=*/23);
  Relation q = IdentitySeed(nodes);
  if (bystander) {
    for (Value v = 1000; v < 1200; ++v) edges.Insert({v, v + 1});
    for (Value v = 1000; v <= 1200; ++v) q.Insert({v, v});
  }

  Database db;
  db.GetOrCreate("e", 2) = edges;
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();
  const std::vector<Tuple> before = Rows(*engine.db().Find("tc"));

  // Every seventh edge of the random part.
  Relation remaining(2), dropped(2);
  std::size_t i = 0;
  for (TupleView t : edges) {
    (t[0] < nodes && i++ % 7 == 0 ? dropped : remaining).Insert(t);
  }
  DeltaDelete delta;
  delta.param_deletes.emplace("e", dropped);
  auto outcome = engine.Retract(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_GT(outcome->removed_count, 0u);
  ASSERT_GT(outcome->rederived, 0u);  // some suspects stayed

  std::vector<Tuple> expected;
  for (const Tuple& t : before) {
    if (!outcome->removed[0].Contains(t)) expected.push_back(t);
  }
  EXPECT_EQ(Rows(*engine.db().Find("tc")), expected)
      << "bystander=" << bystander;
  EXPECT_EQ(*engine.db().Find("tc"), Recompute(rules, remaining, q))
      << "bystander=" << bystander;
}

TEST(IvmRetract, RetractKeepsSurvivorOrder) {
  for (bool bystander : {false, true}) {
    RunRetractKeepsOrder(bystander);
  }
}

/// Retract's work is bounded by the suspects, not the view: a long chain's
/// closure (~20k tuples) beside a 3-cycle whose edge is deleted (a suspect
/// cone of 9 tuples). Every row the call's joins examine is counted in
/// stats.rows_scanned, which must stay below the closure size — a pass over
/// the survivors alone would exceed it.
TEST(IvmRetract, RetractWorkScalesWithSuspects) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  const int chain = 200;
  Relation edges = ChainGraph(chain);
  edges.Insert({1000, 1001});
  edges.Insert({1001, 1002});
  edges.Insert({1002, 1000});
  Relation q = IdentitySeed(chain);
  for (Value v : {1000, 1001, 1002}) q.Insert({v, v});

  Database db;
  db.GetOrCreate("e", 2) = edges;
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();
  const std::size_t closure = engine.db().Find("tc")->size();
  ASSERT_EQ(closure, static_cast<std::size_t>(chain * (chain + 1) / 2 + 9));

  Relation cut(2);
  cut.Insert({1002, 1000});
  DeltaDelete delta;
  delta.param_deletes.emplace("e", cut);
  auto outcome = engine.Retract(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->removed_count, 3u);  // (1001,1000) (1002,1000) (1002,1001)
  EXPECT_LT(outcome->stats.rows_scanned, closure);
  EXPECT_LT(outcome->stats.rows_scanned * 20, closure);

  Relation remaining = edges;
  remaining.EraseRows(cut);
  EXPECT_EQ(*engine.db().Find("tc"), Recompute(rules, remaining, q));
}

/// The round-trip property (satellite): Apply(Δ) then Retract(Δ) must
/// restore the EXACT pre-update state — same tuples, same insertion
/// order, same seed — across worker counts. The inserted edges are fresh
/// (absent before), so DRed removes precisely what Apply added and the
/// survivor prefix is the untouched original closure.
void RunRoundTrip() {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  const int nodes = 30;
  EdgeStream s = SplitEdges(RandomGraph(nodes, 100, /*seed=*/5),
                            /*batches=*/1, /*batch_size=*/12);
  const Relation q = IdentitySeed(nodes);

  Database db;
  db.GetOrCreate("e", 2) = s.base;
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  const std::vector<Tuple> closed_before = Rows(*engine.db().Find("tc"));
  const std::vector<Tuple> edges_before = Rows(*engine.db().Find("e"));
  const std::vector<Tuple> seed_before = Rows(view->seed());

  DeltaInsert ins;
  ins.param_inserts.emplace("e", s.batches[0]);
  auto applied = engine.Apply(*view, ins);
  ASSERT_TRUE(applied.ok()) << applied.status();

  DeltaDelete del;
  del.param_deletes.emplace("e", s.batches[0]);
  auto retracted = engine.Retract(*view, del);
  ASSERT_TRUE(retracted.ok()) << retracted.status();

  // Byte-identical round trip: contents AND insertion order.
  EXPECT_EQ(Rows(*engine.db().Find("tc")), closed_before);
  EXPECT_EQ(Rows(*engine.db().Find("e")), edges_before);
  EXPECT_EQ(Rows(view->seed()), seed_before);
  // And what Retract removed is exactly what Apply added.
  EXPECT_EQ(retracted->removed_count, applied->added);
}

TEST(IvmRoundTrip, ApplyThenRetractRestoresExactBytes) {
  RunRoundTrip();
}

TEST(IvmJoint, ApplyAndRetractMatchRecompute) {
  // Alternating-color reachability: a genuine two-member SCC. Insert new
  // red edges (which are also reach_red seed tuples), compare against a
  // from-scratch joint closure, then retract them and compare again.
  auto w = MakeAlternatingReachability(30, 60, /*seed=*/9);
  ASSERT_TRUE(w.ok()) << w.status();

  // Hold back the last 8 red edges as the update.
  const Relation& red_all = *w->db.Find("red");
  Relation red_base(2), red_new(2);
  std::size_t i = 0;
  for (TupleView t : red_all) {
    (i++ + 8 >= red_all.size() ? red_new : red_base).Insert(t);
  }

  Database db;
  db.GetOrCreate("red", 2) = red_base;
  db.GetOrCreate("blue", 2) = *w->db.Find("blue");
  Engine engine(std::move(db));
  auto prepared =
      engine.Prepare(Query::JointClosure(w->members, w->rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // Seeds mirror the workload's convention: reach_red = red, reach_blue =
  // blue — restricted to the base edges.
  std::vector<Relation> seeds = {red_base, *w->db.Find("blue")};
  auto view = engine.Materialize(prepared->Bind().BindSeeds(std::move(seeds)),
                                 {"reach_red", "reach_blue"});
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_TRUE(view->joint());

  const std::vector<Tuple> red_closed_before =
      Rows(*engine.db().Find("reach_red"));
  const std::vector<Tuple> blue_closed_before =
      Rows(*engine.db().Find("reach_blue"));

  // Oracle over the FULL edge set.
  Database full;
  full.GetOrCreate("red", 2) = red_all;
  full.GetOrCreate("blue", 2) = *w->db.Find("blue");
  Engine oracle(std::move(full));
  auto oracle_prepared =
      oracle.Prepare(Query::JointClosure(w->members, w->rules));
  ASSERT_TRUE(oracle_prepared.ok()) << oracle_prepared.status();
  std::vector<Relation> full_seeds = {red_all, *w->db.Find("blue")};
  auto oracle_out = oracle.Execute(
      oracle_prepared->Bind().BindSeeds(std::move(full_seeds)));
  ASSERT_TRUE(oracle_out.ok()) << oracle_out.status();

  // Apply: new red edges are both a parameter delta and a reach_red seed
  // delta.
  DeltaInsert ins;
  ins.seed_inserts.emplace_back(red_new);
  ins.seed_inserts.emplace_back(2);
  ins.param_inserts.emplace("red", red_new);
  auto applied = engine.Apply(*view, ins);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*engine.db().Find("reach_red"), oracle_out->relations[0]);
  EXPECT_EQ(*engine.db().Find("reach_blue"), oracle_out->relations[1]);

  // Retract the same delta: the pre-apply closure returns. The inserted
  // edges gave some ORIGINAL tuples alternative derivations, so DRed
  // suspects and re-derives them — in place, so the row order returns too.
  DeltaDelete del;
  del.seed_deletes.emplace_back(red_new);
  del.seed_deletes.emplace_back(2);
  del.param_deletes.emplace("red", red_new);
  auto retracted = engine.Retract(*view, del);
  ASSERT_TRUE(retracted.ok()) << retracted.status();
  Relation red_expected(2), blue_expected(2);
  for (const Tuple& t : red_closed_before) red_expected.Insert(t);
  for (const Tuple& t : blue_closed_before) blue_expected.Insert(t);
  EXPECT_EQ(*engine.db().Find("reach_red"), red_expected);
  EXPECT_EQ(*engine.db().Find("reach_blue"), blue_expected);
  EXPECT_EQ(Rows(*engine.db().Find("reach_red")), red_closed_before);
  EXPECT_EQ(Rows(*engine.db().Find("reach_blue")), blue_closed_before);
  EXPECT_EQ(*engine.db().Find("red"), red_base);
  EXPECT_EQ(view->seed(0), red_base);
}

/// A joint view whose suspects are a small cone: one alternating-color
/// reachability component beside a larger one (nodes shifted by 1000)
/// that no delete touches. Deleting red edges retracts through the
/// guarded joins on both members; the view must match a from-scratch joint
/// closure and keep its surviving rows in place, serially and on real
/// worker threads.
void RunJointConeRetract() {
  auto w = MakeAlternatingReachability(40, 120, /*seed=*/9);
  ASSERT_TRUE(w.ok()) << w.status();
  auto bystander = MakeAlternatingReachability(70, 240, /*seed=*/4);
  ASSERT_TRUE(bystander.ok()) << bystander.status();
  Relation red = *w->db.Find("red");
  Relation blue = *w->db.Find("blue");
  for (TupleView t : *bystander->db.Find("red")) {
    red.Insert({t[0] + 1000, t[1] + 1000});
  }
  for (TupleView t : *bystander->db.Find("blue")) {
    blue.Insert({t[0] + 1000, t[1] + 1000});
  }
  Relation cut(2), red_left(2);
  std::size_t i = 0;
  for (TupleView t : red) {
    (t[0] < 1000 && i++ % 9 == 0 ? cut : red_left).Insert(t);
  }

  Database db;
  db.GetOrCreate("red", 2) = red;
  db.GetOrCreate("blue", 2) = blue;
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::JointClosure(w->members, w->rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view = engine.Materialize(prepared->Bind().BindSeeds({red, blue}),
                                 {"reach_red", "reach_blue"});
  ASSERT_TRUE(view.ok()) << view.status();
  const std::vector<Tuple> red_before = Rows(*engine.db().Find("reach_red"));
  const std::vector<Tuple> blue_before =
      Rows(*engine.db().Find("reach_blue"));

  DeltaDelete del;
  del.seed_deletes.emplace_back(cut);
  del.seed_deletes.emplace_back(2);
  del.param_deletes.emplace("red", cut);
  auto retracted = engine.Retract(*view, del);
  ASSERT_TRUE(retracted.ok()) << retracted.status();
  ASSERT_GT(retracted->removed_count, 0u);
  ASSERT_GT(retracted->rederived, 0u);

  Database left;
  left.GetOrCreate("red", 2) = red_left;
  left.GetOrCreate("blue", 2) = blue;
  Engine oracle(std::move(left));
  auto oracle_prepared =
      oracle.Prepare(Query::JointClosure(w->members, w->rules));
  ASSERT_TRUE(oracle_prepared.ok()) << oracle_prepared.status();
  auto oracle_out =
      oracle.Execute(oracle_prepared->Bind().BindSeeds({red_left, blue}));
  ASSERT_TRUE(oracle_out.ok()) << oracle_out.status();
  EXPECT_EQ(*engine.db().Find("reach_red"), oracle_out->relations[0]);
  EXPECT_EQ(*engine.db().Find("reach_blue"), oracle_out->relations[1]);

  const std::vector<Tuple>* before[] = {&red_before, &blue_before};
  const char* names[] = {"reach_red", "reach_blue"};
  for (std::size_t m = 0; m < 2; ++m) {
    std::vector<Tuple> expected;
    for (const Tuple& t : *before[m]) {
      if (!retracted->removed[m].Contains(t)) expected.push_back(t);
    }
    EXPECT_EQ(Rows(*engine.db().Find(names[m])), expected)
        << "member=" << m;
  }
  EXPECT_EQ(view->seed(0), red_left);
}

TEST(IvmJoint, ConeRetractMatchesRecomputeAndKeepsOrder) {
  RunJointConeRetract();
}

TEST(IvmFault, MidApplyAbortRollsBackToExactBytes) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(14);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view =
      engine.Materialize(prepared->Bind().BindSeed(IdentitySeed(14)), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  const std::vector<Tuple> closed_before = Rows(*engine.db().Find("tc"));
  const std::vector<Tuple> edges_before = Rows(*engine.db().Find("e"));
  const std::vector<Tuple> seed_before = Rows(view->seed());

  Relation batch(2);
  batch.Insert({13, 0});  // closes the chain into a cycle: a large delta

  // Both injection points: before the resume (hit 1) and at commit
  // (hit 2). Each must leave the view, the input, and the maintained
  // seed byte-identical — contents and insertion order.
  for (std::uint64_t nth : {1u, 2u}) {
    ScopedFault fault(FaultSite::kIvmApply, nth);
    DeltaInsert delta;
    delta.param_inserts.emplace("e", batch);
    auto outcome = engine.Apply(*view, delta);
    ASSERT_FALSE(outcome.ok()) << "fault hit " << nth << " did not fire";
    EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
    EXPECT_EQ(Rows(*engine.db().Find("tc")), closed_before) << nth;
    EXPECT_EQ(Rows(*engine.db().Find("e")), edges_before) << nth;
    EXPECT_EQ(Rows(view->seed()), seed_before) << nth;
    EXPECT_EQ(view->applies(), 0u);
  }

  // Disarmed, the identical Apply succeeds and matches recompute.
  DeltaInsert delta;
  delta.param_inserts.emplace("e", batch);
  auto outcome = engine.Apply(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  Relation all = ChainGraph(14);
  all.UnionWith(batch);
  EXPECT_EQ(*engine.db().Find("tc"), Recompute(rules, all, IdentitySeed(14)));
}

TEST(IvmValidation, RejectsMalformedDeltas) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(6);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view =
      engine.Materialize(prepared->Bind().BindSeed(IdentitySeed(6)), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();
  const std::vector<Tuple> before = Rows(*engine.db().Find("tc"));

  // Wrong-arity parameter delta.
  {
    DeltaInsert delta;
    Relation bad(3);
    bad.Insert({1, 2, 3});
    delta.param_inserts.emplace("e", std::move(bad));
    auto outcome = engine.Apply(*view, delta);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  }
  // Inserting into the derived member itself.
  {
    DeltaInsert delta;
    Relation bad(2);
    bad.Insert({1, 2});
    delta.param_inserts.emplace("tc", std::move(bad));
    auto outcome = engine.Apply(*view, delta);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  }
  // Wrong seed_inserts shape.
  {
    DeltaInsert delta;
    delta.seed_inserts.emplace_back(2);
    delta.seed_inserts.emplace_back(2);
    auto outcome = engine.Apply(*view, delta);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  }
  // Default-constructed view.
  {
    MaterializedView dangling;
    DeltaInsert delta;
    auto outcome = engine.Apply(dangling, delta);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  }
  // Nothing moved.
  EXPECT_EQ(Rows(*engine.db().Find("tc")), before);
  EXPECT_EQ(view->applies(), 0u);
}

TEST(IvmMaterialize, RejectsSelectedQueries) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(6);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(
      Query::Closure({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}).Select(Selection{0, 3}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Relation q(2);
  q.Insert({3, 3});
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace linrec
