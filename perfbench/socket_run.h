// The end-to-end pass: a linrecd daemon over loopback, driven by closed
// loops (one thread and one connection per session; each connection sends
// its next request only after the reply arrives).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "workload.h"

namespace perfbench {

struct SocketRun {
  /// False when a setup, a STATS/METRICS scrape or a shutdown failed; the
  /// run then reports no metrics.
  bool ok = false;
  std::string error;
  /// Per daemon: start until every session is loaded (and materialized).
  std::vector<double> setup_s;
  /// Per daemon: its VmHWM (MiB) at the end of its window.
  std::vector<double> rss_mb;
  /// Every daemon's window; setup LOADs count as LOAD samples.
  Latencies latencies;
  Tally tally;
  /// Summed window lengths (each: its start until the last session
  /// stopped) and the exchanges completed in them.
  double window_s = 0;
  long exchanges = 0;
  /// Exchanges each session completed, summed over daemons (with one
  /// daemon, what the in-process pass replays).
  std::vector<long> exchanges_per_session;
  /// STATS counters: moves summed over every daemon's window, and the last
  /// daemon's values after its window.
  std::map<std::string, long> stats_delta, stats_end;
};

/// Runs `daemons` linrecd processes one after another, each set up from
/// scratch with graphs of its own, driven for seconds / daemons, checked,
/// scraped and shut down cleanly. Daemon 0's sessions are scripts
/// 0..sessions-1, the ones the in-process pass replays.
SocketRun RunOverSocket(const std::string& linrecd, WorkloadKind kind,
                        std::uint64_t seed, const WorkloadSpec& spec,
                        double seconds, int daemons);

}  // namespace perfbench
