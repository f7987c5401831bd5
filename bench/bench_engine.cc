// bench_engine — the repo's perf trajectory harness.
//
// The repo's one benchmark driver, and self-contained (it needs only the
// linrec library): runs a fixed strategy × workload matrix through
// linrec::Engine, times each cell, and writes machine-readable results to
// BENCH_engine.json (path overridable via argv[1]). CI runs this in
// Release mode, uploads the JSON as an artifact, and diffs it against the
// previous push's artifact (bench/bench_diff.py), so every commit leaves a
// comparable perf record and large regressions fail the build.
//
// The figure of merit is derivations/sec: Theorem 3.1 counts work in tuple
// derivations, so throughput in derivations normalizes across strategies
// that do different amounts of total work. Every row also records its
// duplicate derivations, so the same_gen_decomposed / same_gen_direct pair
// carries the Theorem 3.1 comparison (B*C* rederives no more than (B+C)*),
// and the separable_select pair times σ pushed into a separable closure
// against closure-then-select (Theorem 4.1). Rows that exist to measure one
// strategy exit non-zero when the planner stops choosing it. Each row
// records the worker count it ran with: 1 for every closure (its rounds
// are serial), more only for the batched σ sweep, whose queries run on
// parallel lanes. The `meta` block records the host (hardware threads,
// compiler, git sha) so cross-machine comparisons are interpretable — lane
// counts above `hardware_concurrency` add no real parallelism.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "eval/apply.h"
#include "eval/index_cache.h"
#include "eval/stats.h"
#include "server/server.h"
#include "workload/databases.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

struct BenchResult {
  std::string workload;
  std::string strategy;
  int n = 0;
  int workers = 0;
  int reps = 0;
  double wall_ms_mean = 0.0;
  double wall_ms_min = 0.0;
  std::size_t derivations = 0;  // per repetition
  std::size_t duplicates = 0;   // per repetition
  double derivations_per_sec = 0.0;
  std::size_t result_size = 0;
  /// Measured same-binary run-to-run spread where it exceeds the default
  /// regression gate (fractional drop; 0 = workload is quieter than the
  /// gate). bench_diff.py widens the row's threshold to this value, so a
  /// noisy workload's own variance never reads as a regression.
  double noise_margin = 0.0;
};

LinearRule TC(const char* edge) {
  std::string text = std::string("p(X,Y) :- p(X,Z), ") + edge + "(Z,Y).";
  return *ParseLinearRule(text);
}

[[noreturn]] void Fatal(const char* what, const Status& status) {
  std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

/// The value of `r`, or exit(1) naming `what`: a failed setup or query
/// makes the record meaningless, so the driver never writes a partial one.
template <typename T>
T OrDie(Result<T> r, const char* what) {
  if (!r.ok()) Fatal(what, r.status());
  return std::move(r).value();
}

/// Times `r->reps` calls of `once` (after one untimed warmup) and fills
/// the row's timing fields. `once` executes the query, fills
/// r->derivations / r->duplicates / r->result_size, and returns wall
/// milliseconds.
void TimeInto(BenchResult* r, const std::function<double()>& once) {
  once();  // warmup: builds parameter-relation indexes, touches the pages
  double total = 0.0;
  double best = 1e300;
  for (int i = 0; i < r->reps; ++i) {
    double ms = once();
    total += ms;
    best = std::min(best, ms);
  }
  r->wall_ms_mean = total / r->reps;
  r->wall_ms_min = best;
  r->derivations_per_sec =
      r->wall_ms_mean > 0.0
          ? static_cast<double>(r->derivations) / (r->wall_ms_mean / 1000.0)
          : 0.0;
}

/// Times `reps` executions of `bound` and fills a BenchResult row. Each
/// repetition resets the engine stats so `derivations` and `duplicates` are
/// per-execution; `result_size` sums every closed relation (one unless the
/// query is joint). One query's rounds always run on one thread.
BenchResult Run(const std::string& workload, const std::string& strategy,
                int n, Engine& engine, const BoundQuery& bound, int reps) {
  BenchResult r;
  r.workload = workload;
  r.strategy = strategy;
  r.n = n;
  r.workers = 1;
  r.reps = reps;
  const std::string what = StrCat(workload, "/", strategy);
  TimeInto(&r, [&]() -> double {
    engine.ResetStats();
    auto start = std::chrono::steady_clock::now();
    QueryResult out = OrDie(engine.Execute(bound), what.c_str());
    auto end = std::chrono::steady_clock::now();
    r.derivations = engine.stats().derivations;
    r.duplicates = engine.stats().duplicates;
    r.result_size = 0;
    for (const Relation& rel : out.relations) r.result_size += rel.size();
    return std::chrono::duration<double, std::milli>(end - start).count();
  });
  return r;
}

BenchResult RunQuery(const std::string& workload, int n, Engine& engine,
                     const Query& query, int reps) {
  PreparedQuery prepared =
      OrDie(engine.Prepare(query), ("planning " + workload).c_str());
  BoundQuery bound = prepared.Bind();
  if (query.has_seed()) bound.BindSeed(query.shared_seed());
  return Run(workload, StrategyName(prepared.plan().strategy), n, engine,
             bound, reps);
}

/// Exits non-zero unless the planner chose `want` for row `r`: the row
/// exists to measure that strategy, and a silent fallback would record the
/// wrong theorem's numbers.
void ExpectStrategy(const BenchResult& r, Strategy want) {
  if (r.strategy != StrategyName(want)) {
    std::fprintf(stderr, "FATAL %s: planner chose %s, expected %s\n",
                 r.workload.c_str(), r.strategy.c_str(), StrategyName(want));
    std::exit(1);
  }
}

/// Seed relation {(i,i) : i ∈ 0..n-1 step `stride`}.
Relation SelfLoops(int n, int stride) {
  Relation q(2);
  for (int i = 0; i < n; i += stride) q.Insert({i, i});
  return q;
}

/// Best-effort git revision: CI exports GITHUB_SHA; local runs shell out.
std::string GitSha() {
  if (const char* sha = std::getenv("GITHUB_SHA")) return sha;
  std::string out;
  if (std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      out = buf;
      while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
      }
    }
    ::pclose(p);
  }
  return out.empty() ? "unknown" : out;
}

std::string Compiler() {
#if defined(__clang_version__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void WriteJson(const std::vector<BenchResult>& results, const char* path,
               std::size_t plan_cache_hits, std::size_t plan_cache_misses) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open %s for writing\n", path);
    std::exit(1);
  }
  // Plan-cache hit rate of the one-shot σ-sweep: N distinct selection
  // constants over one structure must be (N-1)/N hits — the digest
  // excludes the σ value. bench_diff.py gates an absolute drop, so a
  // planner change that re-keys plans on the value fails CI.
  const std::size_t lookups = plan_cache_hits + plan_cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(plan_cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  std::fprintf(f, "{\n  \"schema\": \"linrec-bench-engine/v3\",\n");
  // single_core_host: on a 1-thread host every workers>1 row measures the
  // parallel machinery's overhead, not scaling — bench_diff.py skips those
  // comparisons when either side sets this.
  std::fprintf(f,
               "  \"meta\": {\"git_sha\": \"%s\", "
               "\"default_parallel_workers\": %d, "
               "\"hardware_concurrency\": %u, "
               "\"single_core_host\": %s, \"compiler\": \"%s\", "
               "\"plan_cache_hits\": %zu, \"plan_cache_misses\": %zu, "
               "\"plan_cache_hit_rate\": %.4f},\n",
               GitSha().c_str(), ResolveWorkers(0),
               std::thread::hardware_concurrency(),
               std::thread::hardware_concurrency() <= 1 ? "true" : "false",
               Compiler().c_str(), plan_cache_hits, plan_cache_misses,
               hit_rate);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"strategy\": \"%s\", \"n\": %d, "
        "\"workers\": %d, \"reps\": %d, \"wall_ms_mean\": %.3f, "
        "\"wall_ms_min\": %.3f, \"derivations\": %zu, "
        "\"duplicates\": %zu, \"derivations_per_sec\": %.1f, "
        "\"result_size\": %zu, \"noise_margin\": %.2f}%s\n",
        r.workload.c_str(), r.strategy.c_str(), r.n, r.workers, r.reps,
        r.wall_ms_mean, r.wall_ms_min, r.derivations, r.duplicates,
        r.derivations_per_sec, r.result_size, r.noise_margin,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  std::vector<BenchResult> results;

  // --- Transitive closure over a chain: deep recursion, no duplicates. ---
  {
    const int n = 512;
    Database db;
    db.GetOrCreate("e", 2) = ChainGraph(n);
    Engine engine(std::move(db));
    Query q = Query::Closure({TC("e")}).From(SelfLoops(n, 1));
    results.push_back(RunQuery("tc_chain", n, engine, q, 3));
    // Naive is O(rounds × full relation): keep it small.
    Database db2;
    db2.GetOrCreate("e", 2) = ChainGraph(96);
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine2(std::move(db2), serial);
    Query naive_small =
        Query::Closure({TC("e")}).From(SelfLoops(96, 1)).Force(
            Strategy::kNaive);
    results.push_back(RunQuery("tc_chain", 96, engine2, naive_small, 3));
  }

  // --- Governed transitive closure: tc_chain with a (never-denying)
  // memory budget attached, so the row-by-row diff against tc_chain — and
  // the bench_diff gate once this row has a baseline — bounds the cost of
  // budget accounting. Charging happens only at pool-growth/rehash sites,
  // so the expected overhead is noise-level. ---
  {
    const int n = 512;
    Database db;
    db.GetOrCreate("e", 2) = ChainGraph(n);
    Engine engine(std::move(db));
    Query q = Query::Closure({TC("e")}).From(SelfLoops(n, 1));
    PreparedQuery prepared =
        OrDie(engine.Prepare(q), "planning governed_tc_chain");
    MemoryBudget global(/*limit_bytes=*/std::size_t{1} << 40);
    QueryBudget budget(/*limit_bytes=*/std::size_t{1} << 40, &global);
    BoundQuery bound =
        prepared.Bind().BindSeed(q.shared_seed()).WithBudget(&budget);
    results.push_back(Run("governed_tc_chain",
                          StrategyName(prepared.plan().strategy), n, engine,
                          bound, 3));
  }

  // --- Transitive closure over a random sparse graph. ---
  {
    const int n = 1024;
    Database db;
    db.GetOrCreate("e", 2) = RandomGraph(n, n * 3, /*seed=*/17);
    Engine engine(std::move(db));
    Query q = Query::Closure({TC("e")}).From(SelfLoops(n, 8));
    results.push_back(RunQuery("tc_random", n, engine, q, 3));
    // The random-graph closure is the suite's noisiest workload: identical
    // binaries have measured 0.54-1.0x run to run (dedup-heavy rounds,
    // allocator- and cache-layout-sensitive). Let the diff gate at the
    // measured spread instead of crying wolf at the default 20%.
    results.back().noise_margin = 0.50;
  }

  // --- Transitive closure over a grid: duplicate derivations dominate. ---
  {
    const int side = 14;
    Database db;
    db.GetOrCreate("e", 2) = GridGraph(side, side);
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine(std::move(db), serial);
    Query q = Query::Closure({TC("e")}).From(SelfLoops(side * side, 1));
    results.push_back(RunQuery("tc_grid", side, engine, q, 3));
  }

  // --- Mutual recursion: alternating-edge reachability, the joint SCC
  // fixpoint (one Δ row-range per member predicate). ---
  {
    const int nodes = 96;
    JointWorkload w =
        OrDie(MakeAlternatingReachability(nodes, nodes * 4, /*seed=*/29),
              "mutual workload");
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine(std::move(w.db), serial);
    PreparedQuery prepared =
        OrDie(engine.Prepare(Query::JointClosure(w.members, w.rules)
                                 .FromSeeds(w.seeds)),
              "planning mutual_alt_reach");
    results.push_back(Run("mutual_alt_reach",
                          StrategyName(prepared.plan().strategy), nodes,
                          engine, prepared.Bind().BindSeeds(w.seeds), 3));
  }

  // --- Same-generation pair: the planner decomposes into B*C* (Thm 3.1). ---
  {
    const int width = 48;
    SameGenerationWorkload w =
        MakeSameGeneration(/*layers=*/6, width, /*fanout=*/2, /*seed=*/99);
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine(std::move(w.db), serial);
    Relation seed = w.q;
    Query auto_q = Query::Closure(SameGenerationRules()).From(seed);
    results.push_back(
        RunQuery("same_gen_decomposed", width, engine, auto_q, 3));
    ExpectStrategy(results.back(), Strategy::kDecomposed);
    Query direct = Query::Closure(SameGenerationRules())
                       .From(seed)
                       .Force(Strategy::kSemiNaive);
    results.push_back(RunQuery("same_gen_direct", width, engine, direct, 3));
  }

  // --- σ over a separable closure (Thm 4.1 / Alg 4.1): the planner pushes
  // σ into the seed of the same-generation pair (position 0 is
  // 1-persistent in the down rule), so the separable row only closes the
  // selected node's cone; the semi-naive row computes the whole closure and
  // selects after. Same answer, so equal result_size. ---
  {
    const int width = 64;
    SameGenerationWorkload w =
        MakeSameGeneration(/*layers=*/6, width, /*fanout=*/2, /*seed=*/5);
    const Selection sigma{0, w.q.Sorted().front()[0]};
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine(std::move(w.db), serial);
    Query pushed =
        Query::Closure(SameGenerationRules()).From(w.q).Select(sigma);
    // ~1 ms a run: more reps keep the mean inside the default 20% gate.
    results.push_back(
        RunQuery("separable_select", width, engine, pushed, 20));
    ExpectStrategy(results.back(), Strategy::kSeparable);
    Query after = pushed;
    after.Force(Strategy::kSemiNaive);
    results.push_back(RunQuery("separable_select", width, engine, after, 5));
  }

  // --- The full serving path: LOAD + query through the linrecd front
  // door (src/server). Every rep is a fresh session against one shared
  // Server, so after the first rep the program is a registry hit and the
  // closure a plan-cache hit — the row tracks the per-connection cost a
  // warmed server pays: parse, seed, closure, goal filter, and reply
  // formatting. Gated by bench_diff.py like every other workload. ---
  {
    const int n = 160;
    std::string program =
        "tc(X, Y) :- edge(X, Y).\n"
        "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";
    for (int i = 1; i < n; ++i) {
      program += StrCat("edge(", i, ", ", i + 1, ").\n");
    }
    Server server;
    BenchResult r;
    r.workload = "server_tc_chain";
    r.strategy = "served";
    r.n = n;
    r.workers = 1;
    r.reps = 3;
    std::size_t result_rows = 0;
    TimeInto(&r, [&]() -> double {
      auto session = server.NewSession();
      std::vector<std::string> replies;
      auto start = std::chrono::steady_clock::now();
      server.HandleLine(*session, "LOAD", &replies);
      server.HandleLine(*session, program, &replies);
      server.HandleLine(*session, "END", &replies);
      server.SubmitQueryLines(*session, {"?- tc(X, Y)."}, &replies);
      auto end = std::chrono::steady_clock::now();
      if (replies.size() < 3 || replies[0].rfind("OK loaded", 0) != 0 ||
          replies[1].rfind("RESULT tc/2", 0) != 0) {
        std::fprintf(stderr, "FATAL server_tc_chain: %s\n",
                     replies.empty() ? "no reply" : replies.front().c_str());
        std::exit(1);
      }
      r.derivations = session->instance().derivations();
      r.duplicates = session->instance().totals().duplicates;
      result_rows = replies.size() - 3;  // minus OK, RESULT header, "."
      return std::chrono::duration<double, std::milli>(end - start).count();
    });
    r.result_size = result_rows;
    results.push_back(r);
  }

  // --- update_stream: incremental view maintenance vs recompute on a
  // live insert stream. One materialized tc closure over a random base
  // graph; kBatches batches of fresh edges arrive; the ivm_apply row
  // extends the view in place with Engine::Apply (delta rules + the
  // semi-naive resume), the ivm_retract row deletes the same batches back
  // out with Engine::Retract (DRed), and the recompute row re-executes the
  // full closure after every batch. derivations := maintained tuples —
  // the rows the stream added to the view, which the retractions remove
  // again, identical for every strategy by construction — so
  // derivations_per_sec is maintained-tuples/sec and the ivm_apply :
  // recompute ratio is the IVM speedup the acceptance bar gates (>= 5x).
  // Setup (engine, base materialization, and for ivm_retract the
  // inserts) is untimed: the rows measure steady-state update cost only.
  // ---
  {
    const int nodes = 192;
    const int kBatches = 8;
    const int kBatchEdges = 12;
    const Relation stream = RandomGraph(
        nodes, nodes * 3 + kBatches * kBatchEdges, /*seed=*/33);
    Relation base(2);
    std::vector<Relation> batches(kBatches, Relation(2));
    {
      const std::size_t base_count =
          stream.size() -
          static_cast<std::size_t>(kBatches) * kBatchEdges;
      std::size_t i = 0;
      for (TupleView t : stream) {
        if (i < base_count) {
          base.Insert(t);
        } else {
          batches[(i - base_count) / kBatchEdges].Insert(t);
        }
        ++i;
      }
    }
    const Relation seed = SelfLoops(nodes, 1);
    EngineOptions serial;
    serial.parallel_workers = 1;

    // Filled by ivm_apply; checked by ivm_retract, reused by recompute.
    std::size_t maintained = 0;

    {
      BenchResult r;
      r.workload = "update_stream";
      r.strategy = "ivm_apply";
      r.n = nodes;
      r.workers = 1;
      r.reps = 5;
      std::size_t view_rows = 0;
      TimeInto(&r, [&]() -> double {
        Database db;
        db.GetOrCreate("e", 2) = base;
        Engine engine(std::move(db), serial);
        PreparedQuery prepared =
            OrDie(engine.Prepare(Query::Closure({TC("e")})),
                  "planning update_stream");
        MaterializedView view =
            OrDie(engine.Materialize(prepared.Bind().BindSeed(seed), {"tc"}),
                  "materializing update_stream");
        std::size_t added = 0;
        auto start = std::chrono::steady_clock::now();
        for (const Relation& batch : batches) {
          DeltaInsert delta;
          delta.param_inserts.emplace("e", batch);
          added += OrDie(engine.Apply(view, delta), "update_stream apply")
                       .added;
        }
        auto end = std::chrono::steady_clock::now();
        maintained = added;
        r.derivations = added;
        view_rows = engine.db().Find("tc")->size();
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      r.result_size = view_rows;
      // Measured: ~5 ms walls on the single-core record host swing well
      // past the default 20% gate run-to-run (within-run mean/min spread
      // alone is ~30%); same widened margin as tc_random.
      r.noise_margin = 0.50;
      results.push_back(r);
    }

    {
      BenchResult r;
      r.workload = "update_stream";
      r.strategy = "ivm_retract";
      r.n = nodes;
      r.workers = 1;
      r.reps = 5;
      std::size_t view_rows = 0;
      TimeInto(&r, [&]() -> double {
        Database db;
        db.GetOrCreate("e", 2) = base;
        Engine engine(std::move(db), serial);
        PreparedQuery prepared =
            OrDie(engine.Prepare(Query::Closure({TC("e")})),
                  "planning update_stream");
        MaterializedView view =
            OrDie(engine.Materialize(prepared.Bind().BindSeed(seed), {"tc"}),
                  "materializing update_stream");
        for (const Relation& batch : batches) {
          DeltaInsert delta;
          delta.param_inserts.emplace("e", batch);
          OrDie(engine.Apply(view, delta), "update_stream apply");
        }
        std::size_t removed = 0;
        auto start = std::chrono::steady_clock::now();
        for (const Relation& batch : batches) {
          DeltaDelete delta;
          delta.param_deletes.emplace("e", batch);
          removed += OrDie(engine.Retract(view, delta), "update_stream retract")
                         .removed_count;
        }
        auto end = std::chrono::steady_clock::now();
        // Retracting every batch must remove exactly what applying them
        // added: anything else is a wrong view, not a slow one.
        if (removed != maintained) {
          std::fprintf(stderr,
                       "FATAL update_stream/ivm_retract: removed %zu tuples, "
                       "ivm_apply added %zu\n",
                       removed, maintained);
          std::exit(1);
        }
        r.derivations = removed;
        view_rows = engine.db().Find("tc")->size();
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      r.result_size = view_rows;
      // Same measured spread and margin as ivm_apply.
      r.noise_margin = 0.50;
      results.push_back(r);
    }

    {
      BenchResult r;
      r.workload = "update_stream";
      r.strategy = "recompute";
      r.n = nodes;
      r.workers = 1;
      r.reps = 3;
      std::size_t view_rows = 0;
      TimeInto(&r, [&]() -> double {
        Database db;
        db.GetOrCreate("e", 2) = base;
        Engine engine(std::move(db), serial);
        PreparedQuery prepared =
            OrDie(engine.Prepare(Query::Closure({TC("e")})),
                  "planning update_stream");
        // The non-incremental consumer still pays the baseline closure
        // before the stream starts; keep it untimed like Materialize.
        OrDie(engine.Execute(prepared.Bind().BindSeed(seed)),
              "update_stream baseline");
        auto start = std::chrono::steady_clock::now();
        for (const Relation& batch : batches) {
          engine.db().FindMutable("e")->UnionWith(batch);
          view_rows = OrDie(engine.Execute(prepared.Bind().BindSeed(seed)),
                            "update_stream recompute")
                          .relation()
                          .size();
        }
        auto end = std::chrono::steady_clock::now();
        r.derivations = maintained;
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      r.result_size = view_rows;
      r.noise_margin = 0.50;
      results.push_back(r);
    }
  }

  // --- scan_sigma: the σ columnar-scan kernel in isolation, SIMD vs the
  // scalar reference (Relation::WhereEquals vs WhereEqualsScalar — in a
  // -DLINREC_SIMD=OFF build both rows run the scalar kernel and the ratio
  // is 1). Arity-2 pool, 1/64 selectivity so the strided count + mask
  // passes dominate the matched-row copies. derivations := rows scanned by
  // the count pass, so derivations/sec is scan throughput and the
  // SIMD/scalar row ratio is the kernel speedup the acceptance bar gates.
  {
    const int n = 1 << 16;
    const int inner = 32;  // scans per timed repetition
    Relation rel(2);
    for (int i = 0; i < n; ++i) rel.Insert({i & 63, i});
    const Value needle = 7;
    auto scan_row = [&](const char* strategy, bool simd_kernel) {
      BenchResult r;
      r.workload = "scan_sigma";
      r.strategy = strategy;
      r.n = n;
      r.workers = 1;
      r.reps = 5;
      TimeInto(&r, [&]() -> double {
        auto start = std::chrono::steady_clock::now();
        std::size_t hits = 0;
        for (int it = 0; it < inner; ++it) {
          Relation out = simd_kernel ? rel.WhereEquals(0, needle)
                                     : rel.WhereEqualsScalar(0, needle);
          hits += out.size();
        }
        auto end = std::chrono::steady_clock::now();
        r.derivations = static_cast<std::size_t>(n) * inner;
        r.result_size = hits / inner;
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      results.push_back(r);
    };
    scan_row("simd", true);
    scan_row("scalar", false);
  }

  // --- probe_chain: the join cursor's probe pipeline in isolation — one
  // semi-naive-style round (RunPartition over the full Δ) of
  // p(X,Y) :- p(X,Z), e(Z,Y) against a random graph, repeated on a warmed
  // CompiledRule + IndexCache with the output pool Clear()ed between
  // rounds (steady-state: zero allocations, all time in probes and
  // emits). derivations counts body matches, as everywhere else. ---
  {
    const int nodes = 4096;
    Database db;
    db.GetOrCreate("e", 2) = RandomGraph(nodes, nodes * 4, /*seed=*/7);
    Relation delta = RandomGraph(nodes, nodes * 4, /*seed=*/7);
    LinearRule lr = TC("e");
    ApplyOptions options;
    options.overrides[lr.recursive_atom_index()] = &delta;
    options.first_atom = lr.recursive_atom_index();
    CompiledRule compiled =
        OrDie(CompileRule(lr.rule(), db, options), "compiling probe_chain");
    IndexCache cache;
    Relation out(2);
    const int inner = 16;  // rounds per timed repetition
    BenchResult r;
    r.workload = "probe_chain";
    r.strategy = "kernel";
    r.n = nodes;
    r.workers = 1;
    r.reps = 5;
    TimeInto(&r, [&]() -> double {
      ClosureStats stats;
      auto start = std::chrono::steady_clock::now();
      for (int it = 0; it < inner; ++it) {
        out.Clear();
        Status s = compiled.RunPartition(
            delta.View(0, static_cast<RowId>(delta.size())), &out, &stats,
            &cache);
        if (!s.ok()) Fatal("probe_chain", s);
      }
      auto end = std::chrono::steady_clock::now();
      r.derivations = stats.derivations;
      r.result_size = out.size();
      return std::chrono::duration<double, std::milli>(end - start).count();
    });
    results.push_back(r);
  }

  // --- σ-sweep over one prepared plan: N selection constants against the
  // separable same-generation query. Three calling conventions on the same
  // work: the one-shot API (Plan + Execute per constant — each a plan-cache
  // hit after the first, since the digest excludes the σ value), the
  // prepared API run serially (plan once, bind N times), and the prepared
  // API batched onto the shared worker pool (queries concurrent, rounds
  // serial, one shared read-side IndexCache). The one-shot engine's
  // hit/miss counters feed the JSON meta block: a planner change that
  // leaks the σ value back into the digest collapses the hit rate, which
  // bench_diff.py gates. ---
  std::size_t sweep_cache_hits = 0;
  std::size_t sweep_cache_misses = 0;
  {
    const int width = 32;
    const int sweep = 48;
    SameGenerationWorkload w =
        MakeSameGeneration(/*layers=*/7, width, /*fanout=*/2, /*seed=*/77);
    // The first `sweep` seed nodes are the selection constants.
    std::vector<Value> constants;
    for (const Tuple& t : w.q.Sorted()) {
      constants.push_back(t[0]);
      if (static_cast<int>(constants.size()) == sweep) break;
    }
    const Selection sigma0{0, 0};  // position fixed; value swept

    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine one_shot(w.db, serial);
    auto one_shot_seed = std::make_shared<const Relation>(w.q);
    {
      BenchResult r;
      r.workload = "batch_sigma_sweep";
      r.strategy = "one_shot";
      r.n = sweep;
      r.workers = 1;
      r.reps = 3;
      TimeInto(&r, [&]() -> double {
        one_shot.ResetStats();
        auto start = std::chrono::steady_clock::now();
        std::size_t total = 0;
        for (Value v : constants) {
          PreparedQuery prepared = OrDie(
              one_shot.Prepare(Query::Closure(SameGenerationRules())
                                   .Select(Selection{sigma0.position, v})),
              "batch_sigma_sweep/one_shot");
          total += OrDie(one_shot.Execute(
                             prepared.Bind().BindSeed(one_shot_seed)),
                         "batch_sigma_sweep/one_shot")
                       .relation()
                       .size();
        }
        auto end = std::chrono::steady_clock::now();
        r.derivations = one_shot.stats().derivations;
        r.duplicates = one_shot.stats().duplicates;
        r.result_size = total;
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      results.push_back(r);
    }
    sweep_cache_hits = one_shot.plan_cache_hits();
    sweep_cache_misses = one_shot.plan_cache_misses();

    auto sweep_prepared = [&](Engine& engine, const char* strategy,
                              int workers, bool batched) {
      PreparedQuery prepared =
          OrDie(engine.Prepare(Query::Closure(SameGenerationRules())
                                   .SelectPosition(sigma0.position)),
                "preparing batch_sigma_sweep");
      auto seed = std::make_shared<const Relation>(w.q);
      std::vector<BoundQuery> batch;
      for (Value v : constants) {
        batch.push_back(prepared.Bind(v).BindSeed(seed));
      }
      BenchResult r;
      r.workload = "batch_sigma_sweep";
      r.strategy = strategy;
      r.n = sweep;
      r.workers = workers;
      r.reps = 3;
      const std::string what = StrCat("batch_sigma_sweep/", strategy);
      TimeInto(&r, [&]() -> double {
        engine.ResetStats();
        auto start = std::chrono::steady_clock::now();
        std::size_t total = 0;
        if (batched) {
          for (const QueryResult& qr :
               OrDie(engine.ExecuteBatch(batch), what.c_str())) {
            total += qr.relation().size();
          }
        } else {
          for (const BoundQuery& bound : batch) {
            total += OrDie(engine.Execute(bound), what.c_str())
                         .relation()
                         .size();
          }
        }
        auto end = std::chrono::steady_clock::now();
        r.derivations = engine.stats().derivations;
        r.duplicates = engine.stats().duplicates;
        r.result_size = total;
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      results.push_back(r);
    };

    Engine prepared_serial(w.db, serial);
    sweep_prepared(prepared_serial, "prepared_serial", 1, false);
    EngineOptions batched_options;
    batched_options.parallel_workers = 8;
    Engine prepared_batch(std::move(w.db), batched_options);
    sweep_prepared(prepared_batch, "prepared_batch", 8, true);
  }

  WriteJson(results, out_path, sweep_cache_hits, sweep_cache_misses);
  std::printf("%-22s %-12s %6s %3s %12s %12s %16s %10s %12s\n",
              "workload", "strategy", "n", "w", "wall_ms", "wall_ms_min",
              "derivs/sec", "dups", "result");
  for (const BenchResult& r : results) {
    std::printf("%-22s %-12s %6d %3d %12.3f %12.3f %16.1f %10zu %12zu\n",
                r.workload.c_str(), r.strategy.c_str(), r.n, r.workers,
                r.wall_ms_mean, r.wall_ms_min, r.derivations_per_sec,
                r.duplicates, r.result_size);
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace linrec

int main(int argc, char** argv) { return linrec::Main(argc, argv); }
