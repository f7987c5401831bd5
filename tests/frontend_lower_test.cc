// Frontend lowering tests: the structural program digest, SCC
// condensation into compiled units (singleton, mutual-recursion, and
// non-recursive), per-session ProgramInstance evaluation — lazy
// materialization, fact-driven invalidation, the σ-bind fast path, goal
// filtering — and cancellation at round boundaries.

#include "frontend/lower.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/parser.h"

namespace linrec {
namespace {

std::vector<Rule> Rules(const std::string& text) {
  Result<Program> parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed->rules;
}

Atom Goal(const std::string& text) {
  Result<Program> parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->queries.size(), 1u);
  return parsed->queries.front();
}

const char* kTcRules =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";

/// Installs the TC program plus the chain 1→2→…→n over `edge`.
void SetupChain(ProgramInstance& instance, Planner& planner, int n) {
  Result<CompiledProgram> compiled = CompileProgram(Rules(kTcRules), planner);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  instance.SetProgram(
      std::make_shared<const CompiledProgram>(std::move(compiled).value()));
  for (int i = 1; i < n; ++i) {
    Atom fact;
    fact.predicate = "edge";
    fact.terms = {Term::MakeConst(i), Term::MakeConst(i + 1)};
    ASSERT_TRUE(instance.AddFact(fact).ok());
  }
}

TEST(ProgramDigestTest, InvariantUnderRulePermutation) {
  std::vector<Rule> forward = Rules(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
      "reach(Y) :- tc(1, Y).\n");
  std::vector<Rule> shuffled = forward;
  std::rotate(shuffled.begin(), shuffled.begin() + 1, shuffled.end());
  EXPECT_EQ(ProgramDigest(forward), ProgramDigest(shuffled));

  std::vector<Rule> different = Rules(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n");  // right- vs left-linear
  EXPECT_NE(ProgramDigest(forward), ProgramDigest(different));
}

TEST(CompileProgramTest, CondensesIntoDependencyOrderedUnits) {
  Planner planner;
  // reach depends on tc; tc is recursive; edge is base (no unit).
  Result<CompiledProgram> compiled = CompileProgram(
      Rules("reach(Y) :- tc(1, Y).\n"
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"),
      planner);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_EQ(compiled->units.size(), 2u);
  const std::size_t tc = compiled->unit_of.at("tc");
  const std::size_t reach = compiled->unit_of.at("reach");
  EXPECT_LT(tc, reach);  // dependency-first
  EXPECT_TRUE(compiled->units[tc].closure.has_value());
  EXPECT_FALSE(compiled->units[tc].joint);
  EXPECT_FALSE(compiled->units[reach].closure.has_value());
  EXPECT_EQ(compiled->units[tc].arities.front(), 2u);
  EXPECT_EQ(compiled->plan_explanations.size(), 1u);
}

TEST(CompileProgramTest, MutualRecursionBecomesOneJointUnit) {
  Planner planner;
  Result<CompiledProgram> compiled = CompileProgram(
      Rules("odd(X, Y) :- even(X, Z), step(Z, Y).\n"
            "even(X, Y) :- start(X, Y).\n"
            "even(X, Y) :- odd(X, Z), step(Z, Y).\n"),
      planner);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_EQ(compiled->units.size(), 1u);
  EXPECT_TRUE(compiled->units[0].joint);
  EXPECT_EQ(compiled->units[0].members.size(), 2u);
  EXPECT_EQ(compiled->unit_of.at("odd"), compiled->unit_of.at("even"));
  EXPECT_NE(compiled->member_of.at("odd"), compiled->member_of.at("even"));
}

TEST(CompileProgramTest, RejectsNonLinearAndInconsistentArity) {
  Planner planner;
  Result<CompiledProgram> nonlinear = CompileProgram(
      Rules("p(X, Y) :- p(X, Z), p(Z, Y).\n"), planner);
  EXPECT_EQ(nonlinear.status().code(), StatusCode::kInvalidArgument);

  Result<CompiledProgram> arity = CompileProgram(
      Rules("p(X, Y) :- q(X, Y).\n"
            "p(X) :- r(X).\n"),
      planner);
  EXPECT_EQ(arity.status().code(), StatusCode::kInvalidArgument);

  // Base-rule equalities are eliminated at compile time, so a malformed
  // equality atom fails the compile rather than the first query.
  Result<CompiledProgram> equality = CompileProgram(
      Rules("p(X) :- r(X), eq(X, X, X).\n"), planner);
  EXPECT_EQ(equality.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProgramInstanceTest, EvaluatesAndCachesThenInvalidatesOnNewFact) {
  Planner planner;
  ProgramInstance instance;
  SetupChain(instance, planner, 4);  // chain 1→2→3→4

  Result<QueryResult> out = instance.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->relation().size(), 6u);
  const std::size_t after_first = instance.derivations();
  EXPECT_GT(after_first, 0u);

  // Cached: re-evaluation derives nothing new.
  out = instance.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(instance.derivations(), after_first);

  // A new base fact grows the fixpoint on the next evaluation.
  Atom fact;
  fact.predicate = "edge";
  fact.terms = {Term::MakeConst(4), Term::MakeConst(5)};
  ASSERT_TRUE(instance.AddFact(fact).ok());
  out = instance.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->relation().size(), 10u);
  EXPECT_GT(instance.derivations(), after_first);
}

TEST(ProgramInstanceTest, RejectsBadFactsAndUnknownGoals) {
  Planner planner;
  ProgramInstance instance;
  SetupChain(instance, planner, 3);

  Atom derived;
  derived.predicate = "tc";
  derived.terms = {Term::MakeConst(1), Term::MakeConst(2)};
  EXPECT_EQ(instance.AddFact(derived).code(), StatusCode::kInvalidArgument);

  Atom nonground;
  nonground.predicate = "edge";
  nonground.terms = {Term::MakeVar(0), Term::MakeConst(2)};
  EXPECT_EQ(instance.AddFact(nonground).code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(instance.EvalQuery(Goal("?- nope(X, Y)."), planner).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(instance.EvalQuery(Goal("?- tc(X, Y, Z)."), planner).status().code(),
            StatusCode::kInvalidArgument);

  ProgramInstance empty;
  EXPECT_EQ(empty.EvalQuery(Goal("?- tc(X, Y)."), planner).status().code(),
            StatusCode::kInvalidArgument);  // no program loaded
}

TEST(ProgramInstanceTest, AddFactsBatchMatchesOneByOneAndKeepsPrefix) {
  Planner planner;
  ProgramInstance one_by_one;
  SetupChain(one_by_one, planner, 6);  // AddFact per edge 1→2→…→6

  std::vector<Atom> edges;
  for (int i = 1; i < 6; ++i) {
    Atom fact;
    fact.predicate = "edge";
    fact.terms = {Term::MakeConst(i), Term::MakeConst(i + 1)};
    edges.push_back(fact);
  }
  ProgramInstance batched;
  SetupChain(batched, planner, 1);  // program only
  ASSERT_TRUE(batched.AddFacts(edges).ok());
  Result<QueryResult> expected =
      one_by_one.EvalQuery(Goal("?- tc(X, Y)."), planner);
  Result<QueryResult> got = batched.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->relation().size(), 15u);
  EXPECT_EQ(got->relation().Sorted(), expected->relation().Sorted());

  // An invalid fact mid-batch: the facts before it stay, the rest do not,
  // and its error is returned.
  Atom derived;
  derived.predicate = "tc";
  derived.terms = {Term::MakeConst(9), Term::MakeConst(9)};
  std::vector<Atom> partial = {edges[0], edges[1], derived, edges[2]};
  ProgramInstance prefix;
  SetupChain(prefix, planner, 1);
  EXPECT_EQ(prefix.AddFacts(partial).code(), StatusCode::kInvalidArgument);
  Result<QueryResult> kept = prefix.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->relation().size(), 3u);  // chain 1→2→3 only
  EXPECT_TRUE(kept->relation().Contains({1, 3}));
  EXPECT_FALSE(kept->relation().Contains({3, 4}));
}

TEST(ProgramInstanceTest, SigmaFastPathMatchesMaterializedAnswer) {
  Planner planner;

  // Fast path: point query before anything is materialized.
  ProgramInstance fresh;
  SetupChain(fresh, planner, 6);
  Result<QueryResult> fast = fresh.EvalQuery(Goal("?- tc(2, Y)."), planner);
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_EQ(fast->relation().size(), 4u);  // 2→{3,4,5,6}

  // Reference: full materialization then filter.
  ProgramInstance reference;
  SetupChain(reference, planner, 6);
  Result<QueryResult> full =
      reference.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(full.ok());
  Atom goal = Goal("?- tc(2, Y).");
  Relation filtered = MatchGoal(full->relation(), goal);
  EXPECT_EQ(fast->relation().Sorted(), filtered.Sorted());

  // The σ cone derives strictly less than the full fixpoint.
  EXPECT_LT(fresh.derivations(), reference.derivations());
}

TEST(ProgramInstanceTest, BatchedGoalsAlignWithPerGoalOutcomes) {
  Planner planner;
  ProgramInstance instance;
  SetupChain(instance, planner, 5);
  const std::vector<Atom> goals = {Goal("?- tc(1, Y)."), Goal("?- tc(3, Y)."),
                                   Goal("?- nope(X)."), Goal("?- tc(X, X).")};
  std::vector<Result<QueryResult>> out = instance.EvalQueries(goals, planner);
  ASSERT_EQ(out.size(), 4u);
  ASSERT_TRUE(out[0].ok());
  EXPECT_EQ(out[0]->relation().size(), 4u);
  ASSERT_TRUE(out[1].ok());
  EXPECT_EQ(out[1]->relation().size(), 2u);
  EXPECT_EQ(out[2].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(out[3].ok());
  EXPECT_EQ(out[3]->relation().size(), 0u);
}

TEST(ProgramInstanceTest, CancellationStopsClosureAtRoundBoundary) {
  Planner planner;
  ProgramInstance instance;
  SetupChain(instance, planner, 8);
  const CancellationToken expired =
      CancellationToken::WithTimeout(std::chrono::milliseconds(0));
  Result<QueryResult> out =
      instance.EvalQuery(Goal("?- tc(X, Y)."), planner, &expired);
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);

  // The instance still answers once the deadline pressure is gone.
  out = instance.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->relation().size(), 28u);
}

TEST(MatchGoalTest, FiltersConstantsAndRepeatedVariables) {
  Relation rows(2);
  rows.Insert({1, 1});
  rows.Insert({1, 2});
  rows.Insert({2, 2});
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(X, Y).")).size(), 3u);
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(1, Y).")).size(), 2u);
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(X, 2).")).size(), 2u);
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(X, X).")).size(), 2u);
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(2, 1).")).size(), 0u);
}

/// The scalar reference MatchGoal is checked against: walk every row in
/// order, keep it when each constant matches its column and each repeated
/// variable agrees across its columns, stop at `row_limit` kept rows.
std::vector<Tuple> ReferenceMatch(const Relation& rows, const Atom& goal,
                                  std::size_t row_limit) {
  std::vector<Tuple> out;
  for (TupleView row : rows) {
    if (out.size() >= row_limit) break;
    bool keep = true;
    for (std::size_t i = 0; i < goal.terms.size(); ++i) {
      const Term& t = goal.terms[i];
      if (t.is_const()) {
        keep = keep && row[i] == t.constant();
        continue;
      }
      for (std::size_t j = 0; j < i; ++j) {
        const Term& earlier = goal.terms[j];
        if (earlier.is_var() && earlier.var() == t.var()) {
          keep = keep && row[i] == row[j];
        }
      }
    }
    if (keep) out.push_back(row.ToTuple());
  }
  return out;
}

// MatchGoal resolves its constants with the column scan; over every goal
// shape the served filter takes, it returns the reference's rows in the
// reference's order, including under the row cap. 1003 rows: the scan
// ends in a partial block.
TEST(MatchGoalTest, ColumnScanMatchesTheScalarReferenceOverGoalShapes) {
  Relation rows(3);
  for (Value i = 0; i < 1003; ++i) rows.Insert({i % 7, i % 5, (i * 3) % 5});
  const char* goals[] = {
      "?- p(3, Y, Z).",  // a constant at column 0
      "?- p(X, 4, Z).",  // a constant at column 1
      "?- p(2, 4, Z).",  // two constants
      "?- p(6, Y, Y).",  // a constant with a repeated variable
      "?- p(X, Y, X).",  // a repeated variable alone
      "?- p(9, Y, Z).",  // a constant that matches nothing
  };
  for (const char* text : goals) {
    const Atom goal = Goal(text);
    for (std::size_t row_limit : {static_cast<std::size_t>(SIZE_MAX),
                                  static_cast<std::size_t>(5),
                                  static_cast<std::size_t>(0)}) {
      SCOPED_TRACE(testing::Message() << text << " row_limit=" << row_limit);
      const Relation matched = MatchGoal(rows, goal, row_limit);
      std::vector<Tuple> got;
      for (TupleView t : matched) got.push_back(t.ToTuple());
      const std::vector<Tuple> want = ReferenceMatch(rows, goal, row_limit);
      EXPECT_EQ(got, want);
      if (row_limit == SIZE_MAX && std::string(text) != "?- p(9, Y, Z).") {
        EXPECT_FALSE(want.empty());
      }
    }
  }
}

TEST(PlannerTest, SharedPlannerCountsOneMissPerStructure) {
  Planner planner;
  const std::size_t before = planner.plan_cache_misses();
  {
    Result<CompiledProgram> a = CompileProgram(Rules(kTcRules), planner);
    ASSERT_TRUE(a.ok());
  }
  const std::size_t after_first = planner.plan_cache_misses();
  EXPECT_EQ(after_first, before + 1);  // one closure structure
  {
    Result<CompiledProgram> b = CompileProgram(Rules(kTcRules), planner);
    ASSERT_TRUE(b.ok());
  }
  EXPECT_EQ(planner.plan_cache_misses(), after_first);  // hit on recompile
  EXPECT_GT(planner.plan_cache_hits(), 0u);
}

}  // namespace
}  // namespace linrec
