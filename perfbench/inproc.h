// The traced pass: the request streams of a socket run, replayed
// in-process to split a request's time into layers. Every request runs on
// three paths, back to back, each with its own session state:
//
//  * Server::HandleLine — the daemon's whole request path minus the
//    socket;
//  * the public calls the server makes, in its order (ParseRequestLine /
//    ParseProgram, the registry and CompileProgram, ProgramInstance::
//    AddFact / EvalQueries / InsertFact / DeleteFact, FormatResultHeader /
//    FormatRow), with spans off;
//  * the same calls with a span around each.
//
// Pairing the paths per request keeps host drift out of their
// differences: the server's own work beyond the decomposed calls, and the
// tracing overhead. One thread per session, as in the socket run.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "workload.h"

namespace perfbench {

/// The layers a span can time.
enum Layer {
  kLoadParse,  // datalog: ParseProgram of a LOAD block
  kCompile,    // frontend: registry GetOrCompile (+ SetProgram)
  kAddFacts,   // frontend: the AddFact loop of a LOAD
  kParse,      // protocol: ParseRequestLine + ParseProgram of one line
  kEval,       // frontend: EvalQueries
  kFormat,     // protocol: FormatResultHeader / FormatRow / OK lines
  kInsert,     // ivm: InsertFact
  kDelete,     // ivm: DeleteFact
  kLayerCount,
};

struct LayerTime {
  double ms = 0;
  long calls = 0;
  double MeanUs() const { return calls == 0 ? 0 : ms * 1000 / calls; }
  double MeanMs() const { return calls == 0 ? 0 : ms / calls; }
};

struct InProcessPass {
  /// The first error a session thread raised; empty on success.
  std::string error;
  /// Every reply of every path, checked against the oracle.
  Tally tally;
  /// Per stream request (us): Server::HandleLine over its lines; the same
  /// request replayed with spans off and with spans on.
  std::vector<double> server_us, untraced_us, traced_us;
  /// Per stream query (us), Server::HandleLine.
  std::vector<double> server_query_us;

  // From the traced path. Stream layers cover the measured stream; `all`
  // covers setup too (LOADs and materialization happen there).
  LayerTime stream[kLayerCount];
  LayerTime all[kLayerCount];
  /// Summed child spans of the stream requests.
  double stream_children_ms = 0;
  long reply_bytes = 0;
  /// Mean CompileProgram time of the LOADs that missed the registry (ms).
  double compile_ms = 0;
  /// EvalQueries times of the queries that materialized tc (ms).
  std::vector<double> materialize_ms;
  /// ProgramInstance::totals() deltas over stream queries.
  long queries = 0;
  long derivations = 0, duplicates = 0, rounds = 0, probes = 0,
       rows_scanned = 0;
  /// FactUpdateOutcome sums over stream INSERTs / DELETEs.
  long inserts = 0, deletes = 0;
  long added = 0, removed = 0, rederived = 0;
  /// Rows of the materialized tc per session at the end of its stream
  /// (and per fresh connection at its QUIT), mean; 0 when none was.
  double view_rows = 0;
};

/// Replays, per session, the setup, exactly `exchanges[i]` stream
/// exchanges and the end-of-run checks, each request on all three paths.
InProcessPass RunInProcess(WorkloadKind kind, std::uint64_t seed,
                           const WorkloadSpec& spec,
                           const std::vector<long>& exchanges);

}  // namespace perfbench
