#include "inproc.h"

#include <memory>
#include <mutex>
#include <thread>

#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/registry.h"
#include "frontend/lower.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {
namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

double UsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

struct SpanRecord {
  std::uint32_t request;
  Layer layer;
  Clock::time_point begin;
  Clock::time_point end;
};

/// One session thread's spans, kept in memory until the pass ends. A
/// disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  std::vector<SpanRecord>& spans() { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  Span(Tracer& tracer, std::uint32_t request, Layer layer)
      : tracer_(tracer),
        request_(request),
        layer_(layer),
        begin_(tracer.enabled() ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (tracer_.enabled()) {
      tracer_.spans().push_back({request_, layer_, begin_, Clock::now()});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t request_;
  Layer layer_;
  Clock::time_point begin_;
};

/// Counters one session thread gathers at the span boundaries.
struct Counts {
  long reply_bytes = 0;
  long queries = 0;
  long derivations = 0, duplicates = 0, rounds = 0, probes = 0,
       rows_scanned = 0;
  long inserts = 0, deletes = 0;
  long added = 0, removed = 0, rederived = 0;
  std::vector<double> materialize_ms;
  std::vector<double> view_rows;
};

/// One session's requests issued through the public calls Server makes,
/// in the order it makes them, with a span around each call.
class Replayer {
 public:
  Replayer(linrec::Planner& planner,
           linrec::DigestRegistry<linrec::CompiledProgram>& registry,
           Tracer& tracer, const linrec::EngineOptions& options)
      : planner_(planner),
        registry_(registry),
        tracer_(tracer),
        options_(options) {
    NewSession();
  }

  /// A fresh session (what a new connection gets).
  void NewSession() {
    instance_ = std::make_unique<linrec::ProgramInstance>(options_);
    max_rows_ = linrec::ServerLimits{}.default_max_rows;
  }

  /// Rows of the session's materialized tc; negative if not materialized.
  double ViewRows() const {
    const linrec::Relation* view = instance_->engine().db().Find("tc");
    return view == nullptr ? -1 : static_cast<double>(view->size());
  }

  /// Handles `request` (request id `id`); counters go to `counts` when
  /// `stream` and the tracer is on.
  std::vector<std::string> Handle(const Request& request, std::uint32_t id,
                                  bool stream, Counts* counts) {
    switch (request.op) {
      case Op::kLoad:
        return Load(request, id);
      case Op::kQuery:
        return Query(request, id, stream, counts);
      case Op::kInsert:
      case Op::kDelete:
        return Update(request, id, stream, counts);
      case Op::kSet:
        return Set(request, id);
      case Op::kQuit:
        return {"OK bye"};
    }
    return {};
  }

  /// Compile times of the LOADs that missed the registry (ms).
  std::vector<double>& compile_ms() { return compile_ms_; }

 private:
  static std::string LineOf(const Request& request) {
    return request.text.substr(0, request.text.find('\n'));
  }

  /// ParseRequestLine + ParseProgram of a one-clause line; the clause's
  /// program on success, an ERR reply in `error` otherwise.
  linrec::Result<linrec::Program> ParseLine(const Request& request,
                                            std::uint32_t id) {
    Span span(tracer_, id, kParse);
    linrec::Result<linrec::Request> line =
        linrec::ParseRequestLine(LineOf(request));
    if (!line.ok()) return line.status();
    return linrec::ParseProgram(line->text);
  }

  std::vector<std::string> Load(const Request& request, std::uint32_t id) {
    linrec::Result<linrec::Program> program = linrec::Status::Internal("not run");
    {
      Span span(tracer_, id, kLoadParse);
      program = linrec::ParseProgram(request.program);
    }
    if (!program.ok()) return {linrec::FormatError(program.status())};
    {
      Span span(tracer_, id, kCompile);
      bool compiled_here = false;
      const Clock::time_point begin =
          tracer_.enabled() ? Clock::now() : Clock::time_point{};
      auto compiled = registry_.GetOrCompile(
          linrec::ProgramDigest(program->rules),
          [&]() -> linrec::Result<linrec::CompiledProgram> {
            compiled_here = true;
            return linrec::CompileProgram(program->rules, planner_);
          });
      if (compiled_here && tracer_.enabled()) {
        compile_ms_.push_back(UsBetween(begin, Clock::now()) / 1000);
      }
      if (!compiled.ok()) return {linrec::FormatError(compiled.status())};
      instance_->SetProgram(std::move(compiled).value());
    }
    {
      Span span(tracer_, id, kAddFacts);
      for (const linrec::Atom& fact : program->facts) {
        linrec::Status added = instance_->AddFact(fact);
        if (!added.ok()) return {linrec::FormatError(added)};
      }
    }
    Span span(tracer_, id, kFormat);
    return {linrec::StrCat("OK loaded rules=", program->rules.size(),
                           " facts=", program->facts.size(),
                           " queries=", program->queries.size())};
  }

  std::vector<std::string> Query(const Request& request, std::uint32_t id,
                                 bool stream, Counts* counts) {
    linrec::Result<linrec::Program> program = ParseLine(request, id);
    if (!program.ok()) return {linrec::FormatError(program.status())};
    if (program->queries.size() != 1) return {"ERR expected one goal"};
    const std::vector<linrec::Atom> goals = {program->queries.front()};
    // What Server::EvaluateGoals passes for an ungoverned session: no
    // deadline, no budget, the row cap plus one.
    const std::vector<const linrec::CancellationToken*> cancels(1, nullptr);
    const std::vector<linrec::QueryBudget*> budgets(1, nullptr);
    const bool traced = tracer_.enabled();
    const bool had_view = traced && ViewRows() >= 0;
    const linrec::ClosureStats before =
        traced ? instance_->totals() : linrec::ClosureStats{};
    const Clock::time_point begin = traced ? Clock::now() : Clock::time_point{};
    std::vector<linrec::Result<linrec::QueryResult>> outcomes;
    {
      Span span(tracer_, id, kEval);
      outcomes = instance_->EvalQueries(goals, planner_, &cancels, &budgets,
                                        max_rows_ + 1);
    }
    if (traced) {
      const double ms = UsBetween(begin, Clock::now()) / 1000;
      if (!had_view && ViewRows() >= 0) counts->materialize_ms.push_back(ms);
      if (stream) {
        const linrec::ClosureStats& after = instance_->totals();
        ++counts->queries;
        counts->derivations +=
            static_cast<long>(after.derivations - before.derivations);
        counts->duplicates +=
            static_cast<long>(after.duplicates - before.duplicates);
        counts->rounds +=
            static_cast<long>(after.iterations - before.iterations);
        counts->probes +=
            static_cast<long>(after.probes_issued - before.probes_issued);
        counts->rows_scanned +=
            static_cast<long>(after.rows_scanned - before.rows_scanned);
      }
    }
    Span span(tracer_, id, kFormat);
    std::vector<std::string> reply;
    const linrec::Result<linrec::QueryResult>& outcome = outcomes.front();
    if (!outcome.ok()) return {linrec::FormatError(outcome.status())};
    const linrec::Relation& rows = outcome->relations.front();
    const bool truncated = rows.size() > max_rows_;
    const std::size_t emit = truncated ? max_rows_ : rows.size();
    reply.push_back(linrec::FormatResultHeader(
        goals.front().predicate, goals.front().arity(), emit, truncated));
    for (linrec::TupleView row : rows) {
      if (reply.size() > emit) break;
      reply.push_back(linrec::FormatRow(row));
    }
    reply.push_back(".");
    return reply;
  }

  std::vector<std::string> Update(const Request& request, std::uint32_t id,
                                  bool stream, Counts* counts) {
    const bool insert = request.op == Op::kInsert;
    linrec::Result<linrec::Program> program = ParseLine(request, id);
    if (!program.ok()) return {linrec::FormatError(program.status())};
    if (program->facts.size() != 1) return {"ERR expected one fact"};
    const linrec::Atom& fact = program->facts.front();
    linrec::Result<linrec::FactUpdateOutcome> outcome = linrec::Status::Internal("not run");
    {
      Span span(tracer_, id, insert ? kInsert : kDelete);
      outcome = insert ? instance_->InsertFact(fact)
                       : instance_->DeleteFact(fact);
    }
    if (!outcome.ok()) return {linrec::FormatError(outcome.status())};
    if (stream && tracer_.enabled()) {
      ++(insert ? counts->inserts : counts->deletes);
      counts->added += static_cast<long>(outcome->tuples_added);
      counts->removed += static_cast<long>(outcome->tuples_removed);
      counts->rederived += static_cast<long>(outcome->rederived);
    }
    Span span(tracer_, id, kFormat);
    if (insert) {
      return {linrec::StrCat("OK insert applied=", outcome->applied ? 1 : 0,
                             " views=", outcome->views_applied,
                             " added=", outcome->tuples_added)};
    }
    return {linrec::StrCat("OK delete removed=", outcome->removed ? 1 : 0,
                           " views=", outcome->views_retracted,
                           " retracted=", outcome->tuples_removed,
                           " rederived=", outcome->rederived)};
  }

  std::vector<std::string> Set(const Request& request, std::uint32_t id) {
    linrec::Result<linrec::SetArgs> args = linrec::Status::Internal("not run");
    {
      Span span(tracer_, id, kParse);
      linrec::Result<linrec::Request> line =
          linrec::ParseRequestLine(LineOf(request));
      if (!line.ok()) return {linrec::FormatError(line.status())};
      args = linrec::ParseSetArgs(line->text);
    }
    if (!args.ok()) return {linrec::FormatError(args.status())};
    if (args->key == "max_rows") {
      max_rows_ = static_cast<std::size_t>(args->value);
    }
    return {linrec::StrCat("OK set ", args->key, "=", args->value)};
  }

  linrec::Planner& planner_;
  linrec::DigestRegistry<linrec::CompiledProgram>& registry_;
  Tracer& tracer_;
  linrec::EngineOptions options_;
  std::unique_ptr<linrec::ProgramInstance> instance_;
  std::size_t max_rows_ = 0;
  std::vector<double> compile_ms_;
};

}  // namespace

InProcessPass RunInProcess(WorkloadKind kind, std::uint64_t seed,
                           const WorkloadSpec& spec,
                           const std::vector<long>& exchanges) {
  InProcessPass pass;
  // What the socket run's `linrecd --port 0 [--workers n]` builds.
  const linrec::EngineOptions options = EngineOptionsFor(spec);
  linrec::Server server(linrec::ServerLimits{}, options);
  // Each replay path plans and compiles for itself, as a daemon would.
  linrec::Planner untraced_planner(options), traced_planner(options);
  linrec::DigestRegistry<linrec::CompiledProgram> untraced_registry,
      traced_registry;
  std::mutex mu;
  std::vector<double> compile_ms, view_rows;
  pass.error = RunSessions(spec.sessions, [&](int i) {
    std::unique_ptr<SessionScript> script = MakeScript(kind, seed, i);
    Tracer off(false), on(true);
    std::unique_ptr<linrec::Session> server_session = server.NewSession();
    std::unique_ptr<linrec::Session> server_own;
    Replayer untraced(untraced_planner, untraced_registry, off, options);
    Replayer untraced_own(untraced_planner, untraced_registry, off, options);
    Replayer traced(traced_planner, traced_registry, on, options);
    Replayer traced_own(traced_planner, traced_registry, on, options);
    Counts counts;
    Tally tally;
    std::vector<bool> stream_request;  // per traced request id
    std::vector<double> server_us, server_query_us, untraced_us, traced_us;
    std::vector<std::string> reply;
    long turn = 0;

    // Runs `request` on the three paths. The order rotates per request, so
    // no path always runs first (on caches another path warmed).
    auto run = [&](const Request& request, bool stream, bool own) {
      const std::vector<std::string> lines = SplitLines(request.text);
      for (long k = 0; k < 3; ++k) {
        const long path = (turn + k) % 3;
        const Clock::time_point begin = Clock::now();
        if (path == 0) {
          linrec::Session& session = own ? *server_own : *server_session;
          reply.clear();
          for (const std::string& line : lines) {
            server.HandleLine(session, line, &reply);
          }
        } else if (path == 1) {
          reply = (own ? untraced_own : untraced).Handle(request, 0, stream,
                                                         &counts);
        } else {
          const std::uint32_t id =
              static_cast<std::uint32_t>(stream_request.size());
          stream_request.push_back(stream);
          reply = (own ? traced_own : traced).Handle(request, id, stream,
                                                     &counts);
        }
        const double us = UsBetween(begin, Clock::now());
        tally.Record(request, reply);
        if (!stream) continue;
        if (path == 0) {
          server_us.push_back(us);
          if (request.op == Op::kQuery) server_query_us.push_back(us);
        } else if (path == 1) {
          untraced_us.push_back(us);
        } else {
          traced_us.push_back(us);
          for (const std::string& line : reply) {
            counts.reply_bytes += static_cast<long>(line.size() + 1);
          }
        }
      }
      ++turn;
    };

    for (const Request& request : script->Setup()) run(request, false, false);
    for (long e = 0; e < exchanges[static_cast<std::size_t>(i)]; ++e) {
      const Exchange exchange = script->Next();
      if (!exchange.own_connection) {
        for (const Request& request : exchange.requests) {
          run(request, true, false);
        }
        continue;
      }
      // linrecd serves each connection on a thread of its own (and with
      // it, glibc's per-thread malloc arena); so does this pass.
      std::thread connection([&] {
        server_own = server.NewSession();
        untraced_own.NewSession();
        traced_own.NewSession();
        for (const Request& request : exchange.requests) {
          if (request.op == Op::kQuit) {
            counts.view_rows.push_back(traced_own.ViewRows());
          }
          run(request, true, true);
        }
        server_own.reset();
        untraced_own.NewSession();
        traced_own.NewSession();
      });
      connection.join();
    }
    counts.view_rows.push_back(traced.ViewRows());
    for (const Request& request : script->Finish()) {
      run(request, false, false);
    }

    std::lock_guard<std::mutex> lock(mu);
    pass.tally.Append(tally);
    for (auto [to, from] :
         {std::pair{&pass.server_us, &server_us},
          std::pair{&pass.server_query_us, &server_query_us},
          std::pair{&pass.untraced_us, &untraced_us},
          std::pair{&pass.traced_us, &traced_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    for (const SpanRecord& span : on.spans()) {
      const double ms =
          std::chrono::duration<double, std::milli>(span.end - span.begin)
              .count();
      pass.all[span.layer].ms += ms;
      ++pass.all[span.layer].calls;
      if (stream_request[span.request]) {
        pass.stream[span.layer].ms += ms;
        ++pass.stream[span.layer].calls;
        pass.stream_children_ms += ms;
      }
    }
    for (Replayer* replayer : {&traced, &traced_own}) {
      compile_ms.insert(compile_ms.end(), replayer->compile_ms().begin(),
                        replayer->compile_ms().end());
    }
    for (double rows : counts.view_rows) {
      if (rows >= 0) view_rows.push_back(rows);
    }
    pass.reply_bytes += counts.reply_bytes;
    pass.materialize_ms.insert(pass.materialize_ms.end(),
                               counts.materialize_ms.begin(),
                               counts.materialize_ms.end());
    pass.queries += counts.queries;
    pass.derivations += counts.derivations;
    pass.duplicates += counts.duplicates;
    pass.rounds += counts.rounds;
    pass.probes += counts.probes;
    pass.rows_scanned += counts.rows_scanned;
    pass.inserts += counts.inserts;
    pass.deletes += counts.deletes;
    pass.added += counts.added;
    pass.removed += counts.removed;
    pass.rederived += counts.rederived;
  });
  pass.compile_ms = Mean(compile_ms);
  pass.view_rows = Mean(view_rows);
  return pass;
}

}  // namespace perfbench
