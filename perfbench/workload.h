// Benchmark workloads: seeded graphs, the protocol requests each client
// session sends, and the oracle answer every reply is checked against.
//
// Every workload runs the same transitive-closure program
//
//   tc(X, Y) :- e(X, Y).
//   tc(X, Y) :- tc(X, Z), e(Z, Y).
//
// over random directed graphs drawn from the workload seed. The oracles
// are computed here, independently of linrec: BFS reach sets (point
// reads), SCC cycle membership (tc(X, X)), and a shadow edge set whose
// closure tracks every INSERT / DELETE (update mix).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

enum class WorkloadKind { kPointReach, kCycleScan, kUpdateMix };

/// Parses "point_reach" / "cycle_scan" / "update_mix"; false otherwise.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);

enum class Op { kLoad, kQuery, kInsert, kDelete, kSet, kQuit };

/// One protocol request and the reply the oracle expects.
struct Request {
  Op op = Op::kQuery;
  /// Protocol text, '\n'-terminated; a LOAD is the whole LOAD..END block.
  std::string text;
  /// kLoad: the program between LOAD and END.
  std::string program;
  /// kLoad / kInsert / kDelete / kSet / kQuit: the reply line must equal
  /// this (kLoad, kSet, kQuit) or start with it (kInsert, kDelete).
  std::string expect_line;
  /// kQuery: the size of the answer set, and the sum of a 64-bit hash of
  /// each row — equal sums mean equal sets (rows are distinct), short of
  /// a hash collision.
  std::size_t expect_count = 0;
  std::uint64_t expect_digest = 0;
};

/// Checks `reply` (the reply lines of `request`, without '\n') against the
/// oracle. Returns "" on a match, else what differed.
std::string CheckReply(const Request& request,
                       const std::vector<std::string>& reply);

/// A group of requests sent on one connection: a session's next request,
/// or (cycle_scan) a whole fresh connection.
struct Exchange {
  std::vector<Request> requests;
  /// Open a new connection (a new session) for this exchange and close it
  /// after; the last request is then a QUIT.
  bool own_connection = false;
};

/// What one client session sends: setup requests, an endless seeded
/// stream, and end-of-run checks that depend on the state the stream left.
class SessionScript {
 public:
  virtual ~SessionScript() = default;
  /// Sent once on the session's connection before the measured window.
  virtual std::vector<Request> Setup() = 0;
  /// The next exchange of the measured stream.
  virtual Exchange Next() = 0;
  /// Sent on the session's connection after the measured window.
  virtual std::vector<Request> Finish() { return {}; }
};

struct WorkloadSpec {
  /// Concurrent client sessions (one connection and one thread each).
  int sessions;
  /// The human-readable label of the fixed tail percentile, and its rank.
  const char* tail_label;
  double tail_quantile;
  /// Daemons per end-to-end run, each set up from scratch (with graphs of
  /// its own) and driven for an equal share of the window; setup_s and
  /// rss_peak_mb are medians over them.
  int daemons;
  /// linrecd --workers; 0 leaves the daemon's default (one lane per CPU).
  int workers;
};

/// The engine options a daemon started for `spec` serves with.
linrec::EngineOptions EngineOptionsFor(const WorkloadSpec& spec);

WorkloadSpec SpecFor(WorkloadKind kind, int max_threads);

/// The script of session `index` (daemon d's session i is index
/// d * sessions + i). Same (kind, seed, index) → same stream.
std::unique_ptr<SessionScript> MakeScript(WorkloadKind kind,
                                          std::uint64_t seed, int index);

}  // namespace perfbench
