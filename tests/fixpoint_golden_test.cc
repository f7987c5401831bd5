// Golden parity for the closure entry points. On fixed inputs built from a
// self-contained generator (no <random> distributions, whose output differs
// between standard libraries), every entry point's result is pinned:
//   - an order-SENSITIVE digest of the rows in insertion order plus the
//     Theorem 3.1 counters (iterations, derivations, index probes, rows
//     scanned) — the serial rounds are deterministic, so any change to
//     rule order, Δ ranges or round structure shows up here;
//   - an order-independent digest of the relation itself.
// A refactor of the round machinery must leave every value unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "eval/joint.h"

namespace linrec {
namespace {

/// splitmix64: a fixed, library-independent pseudo-random sequence.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// `edges` distinct directed edges without self-loops over `nodes` nodes.
Relation Graph(int nodes, int edges, std::uint64_t seed) {
  SplitMix rng{seed};
  Relation out(2);
  while (out.size() < static_cast<std::size_t>(edges)) {
    const auto n = static_cast<std::uint64_t>(nodes);
    Value u = static_cast<Value>(rng.Next() % n);
    Value v = static_cast<Value>(rng.Next() % n);
    if (u != v) out.Insert({u, v});
  }
  return out;
}

Relation Identity(int lo, int hi) {
  Relation out(2);
  for (int i = lo; i < hi; ++i) out.Insert({i, i});
  return out;
}

std::uint64_t Mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

/// FNV-1a over (member, row values) in insertion order.
std::uint64_t OrderedDigest(const std::vector<Relation>& rels) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t m = 0; m < rels.size(); ++m) {
    feed(m);
    feed(rels[m].size());
    for (TupleView t : rels[m]) {
      for (Value v : t) feed(static_cast<std::uint64_t>(v));
    }
  }
  return h;
}

/// Sum of per-row mixes: independent of insertion order.
std::uint64_t UnorderedDigest(const std::vector<Relation>& rels) {
  std::uint64_t sum = 0;
  for (std::size_t m = 0; m < rels.size(); ++m) {
    for (TupleView t : rels[m]) {
      std::uint64_t h = Mix(m + 1);
      for (Value v : t) h = Mix(h ^ static_cast<std::uint64_t>(v));
      sum += h;
    }
  }
  return sum;
}

struct Inputs {
  std::vector<LinearRule> rules;
  Database db;
  Relation q{2};
  Relation closed{2};  // closure of the identity on nodes [0, 100)
  Relation extra{2};   // identity on [90, 200): overlaps `closed`
  std::vector<std::string> members;
  std::vector<JointRule> joint_rules;
  std::vector<Relation> joint_seeds;
  std::vector<Relation> joint_closed;  // closure of {blue, ∅}
};

const Inputs& GetInputs() {
  static const Inputs* inputs = [] {
    auto* in = new Inputs;
    for (const char* text : {"p(X,Y) :- p(X,Z), e(Z,Y).",
                             "p(X,Y) :- p(X,Z), f(Z,Y).",
                             "p(X,Y) :- p(X,Z), e(Z,W), W = Y."}) {
      Result<LinearRule> lr = ParseLinearRule(text);
      EXPECT_TRUE(lr.ok()) << lr.status();
      in->rules.push_back(*lr);
    }
    in->db.GetOrCreate("e", 2) = Graph(200, 300, 11);
    in->db.GetOrCreate("f", 2) = Graph(200, 100, 13);
    in->q = Identity(0, 200);
    Result<Relation> closed =
        SemiNaiveClosure(in->rules, in->db, Identity(0, 100));
    EXPECT_TRUE(closed.ok()) << closed.status();
    in->closed = *closed;
    in->extra = Identity(90, 200);

    in->members = {"reach_blue", "reach_red"};
    Result<Rule> red =
        ParseRule("reach_red(X,Z) :- reach_blue(X,Y), red(Y,Z).");
    Result<Rule> blue =
        ParseRule("reach_blue(X,Z) :- reach_red(X,Y), blue(Y,Z).");
    EXPECT_TRUE(red.ok() && blue.ok());
    in->joint_rules = {JointRule{*red, 1, 0, 0}, JointRule{*blue, 0, 0, 1}};
    in->db.GetOrCreate("red", 2) = Graph(150, 300, 17);
    in->db.GetOrCreate("blue", 2) = Graph(150, 300, 19);
    in->joint_seeds = {*in->db.Find("blue"), *in->db.Find("red")};
    Result<std::vector<Relation>> joint_closed = JointSemiNaiveClosure(
        in->members, in->joint_rules, in->db,
        {in->joint_seeds[0], Relation(2)});
    EXPECT_TRUE(joint_closed.ok()) << joint_closed.status();
    in->joint_closed = *joint_closed;
    return in;
  }();
  return *inputs;
}

using Run = std::function<Result<std::vector<Relation>>(const Inputs&,
                                                         ClosureStats*)>;

std::vector<Relation> One(Relation r) {
  std::vector<Relation> out;
  out.push_back(std::move(r));
  return out;
}

Result<std::vector<Relation>> Lift(Result<Relation> r) {
  if (!r.ok()) return r.status();
  return One(std::move(r).value());
}

struct Case {
  const char* name;
  Run run;
};

std::vector<Case> Cases() {
  return {
      {"SemiNaiveClosure",
       [](const Inputs& in, ClosureStats* s) {
         return Lift(SemiNaiveClosure(in.rules, in.db, in.q, s));
       }},
      {"NaiveClosure",
       [](const Inputs& in, ClosureStats* s) {
         return Lift(NaiveClosure(in.rules, in.db, in.q, s));
       }},
      {"PowerSum",
       [](const Inputs& in, ClosureStats* s) {
         return Lift(PowerSum(in.rules, in.db, in.q, 5, s));
       }},
      {"SemiNaiveResume",
       [](const Inputs& in, ClosureStats* s) {
         return Lift(
             SemiNaiveResume(in.rules, in.db, in.closed, in.extra, s));
       }},
      {"SemiNaiveExtend",
       [](const Inputs& in, ClosureStats* s) -> Result<std::vector<Relation>> {
         Relation result = in.closed;
         const RowId begin = static_cast<RowId>(result.size());
         for (TupleView t : in.extra) result.Insert(t);
         Status st = SemiNaiveExtend(in.rules, in.db, &result, begin, s);
         if (!st.ok()) return st;
         return One(std::move(result));
       }},
      {"JointSemiNaiveClosure",
       [](const Inputs& in, ClosureStats* s) {
         return JointSemiNaiveClosure(in.members, in.joint_rules, in.db,
                                      in.joint_seeds, s);
       }},
      {"JointNaiveClosure",
       [](const Inputs& in, ClosureStats* s) {
         return JointNaiveClosure(in.members, in.joint_rules, in.db,
                                  in.joint_seeds, s);
       }},
      {"JointSemiNaiveExtend",
       [](const Inputs& in, ClosureStats* s) -> Result<std::vector<Relation>> {
         std::vector<Relation> rels = in.joint_closed;
         std::vector<RowId> begin;
         for (const Relation& r : rels) {
           begin.push_back(static_cast<RowId>(r.size()));
         }
         for (TupleView t : in.joint_seeds[1]) rels[1].Insert(t);
         Status st = JointSemiNaiveExtend(in.members, in.joint_rules, in.db,
                                          &rels, begin, s);
         if (!st.ok()) return st;
         return rels;
       }},
  };
}

struct Golden {
  const char* name;
  std::uint64_t ordered;
  std::uint64_t unordered;
  std::size_t iterations;
  std::size_t derivations;
  std::size_t probes_issued;
  std::size_t rows_scanned;
};

// One row per Cases() entry, same order.
constexpr Golden kGolden[] = {
    {"SemiNaiveClosure", 0x7acebd289b49f1d5ULL, 0x7b94a4e1b745b5a4ULL, 21,
     89300, 78030, 167330},
    {"NaiveClosure", 0x7acebd289b49f1d5ULL, 0x7b94a4e1b745b5a4ULL, 21,
     1241825, 1094271, 2336096},
    {"PowerSum", 0x3fe621c47b864008ULL, 0xd5f0ede6722672c7ULL, 5, 18041,
     16215, 34256},
    {"SemiNaiveResume", 0x738b31f50beeba55ULL, 0x7b94a4e1b745b5a4ULL, 21,
     46325, 40464, 86789},
    {"SemiNaiveExtend", 0x738b31f50beeba55ULL, 0x7b94a4e1b745b5a4ULL, 21,
     46325, 40464, 86789},
    {"JointSemiNaiveClosure", 0x2b5bdbed3ba7325ULL, 0x87d07442cdc3ed34ULL, 15,
     70096, 34201, 104297},
    {"JointNaiveClosure", 0x2b5bdbed3ba7325ULL, 0x87d07442cdc3ed34ULL, 15,
     707420, 343453, 1050873},
    {"JointSemiNaiveExtend", 0x9a3013132033bee5ULL, 0x87d07442cdc3ed34ULL, 15,
     9807, 4785, 14592},
};

void ExpectCounters(const Golden& g, const ClosureStats& stats) {
  EXPECT_EQ(stats.iterations, g.iterations) << g.name;
  EXPECT_EQ(stats.derivations, g.derivations) << g.name;
  EXPECT_EQ(stats.probes_issued, g.probes_issued) << g.name;
  EXPECT_EQ(stats.rows_scanned, g.rows_scanned) << g.name;
}

TEST(FixpointGoldenTest, SerialRowsInOrderAndCounters) {
  const Inputs& in = GetInputs();
  const std::vector<Case> cases = Cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Golden& g = kGolden[i];
    ASSERT_EQ(std::string(cases[i].name), g.name);
    ClosureStats stats;
    Result<std::vector<Relation>> out = cases[i].run(in, &stats);
    ASSERT_TRUE(out.ok()) << g.name << ": " << out.status();
    EXPECT_EQ(OrderedDigest(*out), g.ordered) << g.name;
    EXPECT_EQ(UnorderedDigest(*out), g.unordered) << g.name;
    ExpectCounters(g, stats);
  }
}

TEST(FixpointGoldenTest, EmptySeedRounds) {
  // Every Δ-driven loop stops before its first round on an empty seed.
  // PowerSum runs its fixed power loop, which breaks after the first
  // (empty) power.
  const Inputs& in = GetInputs();
  const Relation empty(2);
  ClosureStats semi, naive, power, joint_semi, joint_naive;
  ASSERT_TRUE(SemiNaiveClosure(in.rules, in.db, empty, &semi).ok());
  ASSERT_TRUE(NaiveClosure(in.rules, in.db, empty, &naive).ok());
  ASSERT_TRUE(PowerSum(in.rules, in.db, empty, 5, &power).ok());
  const std::vector<Relation> no_seeds = {Relation(2), Relation(2)};
  ASSERT_TRUE(JointSemiNaiveClosure(in.members, in.joint_rules, in.db,
                                    no_seeds, &joint_semi)
                  .ok());
  ASSERT_TRUE(JointNaiveClosure(in.members, in.joint_rules, in.db, no_seeds,
                                &joint_naive)
                  .ok());
  EXPECT_EQ(semi.iterations, 0u);
  EXPECT_EQ(naive.iterations, 0u);
  EXPECT_EQ(power.iterations, 1u);
  EXPECT_EQ(joint_semi.iterations, 0u);
  EXPECT_EQ(joint_naive.iterations, 0u);
  for (const ClosureStats* s :
       {&semi, &naive, &power, &joint_semi, &joint_naive}) {
    EXPECT_EQ(s->derivations, 0u);
    EXPECT_EQ(s->duplicates, 0u);
    EXPECT_EQ(s->result_size, 0u);
  }
}

}  // namespace
}  // namespace linrec
