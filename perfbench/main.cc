// perfbench_loadgen — the linrecd benchmark's load generator.
//
//   perfbench_loadgen --linrecd <path> --workload <name> --seed <n>
//                     --seconds <s> --trace <0|1>
//
// --trace 0: the end-to-end run. Starts `linrecd --port 0` (default
// flags; update_mix adds --workers 1) several times in turn; each daemon
// is set up, driven by the workload's closed loops over loopback for its
// share of --seconds, and shut down cleanly. Every reply is checked against the workload's
// oracle; setup_s and rss_peak_mb are medians over the daemons.
// --trace 1: the per-layer run. A shorter socket run, then the same
// streams replayed in-process (inproc.h).
//
// Human-readable lines first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 without that line
// if the daemon cannot be set up or shut down.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "inproc.h"
#include "measure.h"
#include "socket_run.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

void PrintResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

long Delta(const SocketRun& run, const char* key) {
  auto it = run.stats_delta.find(key);
  return it == run.stats_delta.end() ? 0 : it->second;
}

double HitRatio(const SocketRun& run, const char* hits, const char* misses) {
  const double h = static_cast<double>(run.stats_end.at(hits));
  return Ratio(h, h + static_cast<double>(run.stats_end.at(misses)));
}

void PrintTally(const char* pass, const Tally& tally) {
  std::printf("%-12s attempted=%ld failed=%ld failed_ratio=%.6f "
              "noop_updates=%ld%s%s\n",
              pass, tally.attempted, tally.failed,
              Ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
              tally.noop_updates, tally.first_error.empty() ? "" : " first: ",
              tally.first_error.c_str());
}

void PrintTail(const char* what, const std::vector<double>& ms,
               const WorkloadSpec& spec) {
  const std::size_t beyond = BeyondPercentile(ms.size(), spec.tail_quantile);
  std::printf("%-12s samples=%zu p50=%.4f ms %s=%.4f ms (%zu beyond)%s\n",
              what, ms.size(), Percentile(ms, 0.5), spec.tail_label,
              Percentile(ms, spec.tail_quantile), beyond,
              beyond < 10 ? "  [fewer than 10 samples beyond the tail]" : "");
}

int EndToEnd(const std::string& linrecd, WorkloadKind kind,
             std::uint64_t seed, const WorkloadSpec& spec, double seconds) {
  const SocketRun run =
      RunOverSocket(linrecd, kind, seed, spec, seconds, spec.daemons);
  if (!run.ok) {
    std::fprintf(stderr, "perfbench: %s\n", run.error.c_str());
    return 1;
  }
  const Latencies& lat = run.latencies;
  PrintTally("socket", run.tally);
  PrintTail("query", lat.query, spec);
  std::printf("query        p90=%.4f p99=%.4f p99.9=%.4f p99.99=%.4f ms\n",
              Percentile(lat.query, 0.9), Percentile(lat.query, 0.99),
              Percentile(lat.query, 0.999), Percentile(lat.query, 0.9999));
  PrintTail("load", lat.load, spec);
  if (kind == WorkloadKind::kUpdateMix) {
    PrintTail("insert", lat.insert, spec);
    PrintTail("delete", lat.remove, spec);
  }
  std::printf("window=%.3f s exchanges=%ld sessions=%d daemons=%zu\n",
              run.window_s, run.exchanges, spec.sessions, run.setup_s.size());
  std::printf("daemon VmHWM per daemon (MiB):");
  for (double mb : run.rss_mb) std::printf(" %.3f", mb);
  std::printf("\n");
  for (const char* key :
       {"queries_served", "queries_rejected", "queries_shed",
        "queries_exhausted", "ivm_applied", "ivm_retracted", "ivm_rederived",
        "plan_misses", "program_misses"}) {
    std::printf("STATS %s +%ld\n", key, Delta(run, key));
  }
  const std::vector<Metric> metrics = {
      {"throughput_rps",
       Ratio(static_cast<double>(run.exchanges), run.window_s), "1/s"},
      {"query_p50_ms", Percentile(lat.query, 0.5), "ms"},
      {"query_tail_ms", Percentile(lat.query, spec.tail_quantile), "ms"},
      {"setup_s", Median(run.setup_s), "s"},
      {"rss_peak_mb", Median(run.rss_mb), "MiB"},
  };
  PrintResult(run.tally.failed == 0, run.tally.attempted, run.tally.failed,
              metrics);
  return 0;
}

int Traced(const std::string& linrecd, WorkloadKind kind, std::uint64_t seed,
           const WorkloadSpec& spec, double seconds) {
  // A shorter socket run fixes the exchanges the in-process pass replays
  // on its three paths, which takes about as long again.
  const SocketRun run =
      RunOverSocket(linrecd, kind, seed, spec, seconds * 0.25, 1);
  if (!run.ok) {
    std::fprintf(stderr, "perfbench: %s\n", run.error.c_str());
    return 1;
  }
  const InProcessPass traced =
      RunInProcess(kind, seed, spec, run.exchanges_per_session);
  if (!traced.error.empty()) {
    std::fprintf(stderr, "perfbench: in-process pass: %s\n",
                 traced.error.c_str());
    return 1;
  }
  PrintTally("socket", run.tally);
  PrintTally("in-process", traced.tally);

  const double handle_us = Mean(traced.server_us);
  const double children_us =
      Ratio(traced.stream_children_ms * 1000,
            static_cast<double>(traced.traced_us.size()));
  const double untraced_us = Mean(traced.untraced_us);
  const double traced_us = Mean(traced.traced_us);
  const double derivations = static_cast<double>(traced.derivations);
  const double queries = static_cast<double>(traced.queries);
  const std::vector<Metric> metrics = {
      {"linrecd.transport_us",
       Percentile(run.latencies.query, 0.5) * 1000 -
           Percentile(traced.server_query_us, 0.5),
       "us"},
      {"server.handle_us", handle_us, "us"},
      {"server.governance_us", handle_us - children_us, "us"},
      {"server.rejected",
       static_cast<double>(Delta(run, "queries_rejected")), "count"},
      {"server.shed", static_cast<double>(Delta(run, "queries_shed")),
       "count"},
      {"server.exhausted",
       static_cast<double>(Delta(run, "queries_exhausted")), "count"},
      {"protocol.parse_us", traced.stream[kParse].MeanUs(), "us"},
      {"protocol.format_us", traced.stream[kFormat].MeanUs(), "us"},
      {"protocol.reply_bytes",
       Ratio(static_cast<double>(traced.reply_bytes),
             static_cast<double>(traced.traced_us.size())),
       "bytes"},
      {"datalog.load_parse_ms", traced.all[kLoadParse].MeanMs(), "ms"},
      {"frontend.compile_ms", traced.compile_ms, "ms"},
      {"frontend.registry_hit_ratio",
       HitRatio(run, "program_hits", "program_misses"), "ratio"},
      {"frontend.add_facts_ms", traced.all[kAddFacts].MeanMs(), "ms"},
      {"frontend.eval_us", traced.stream[kEval].MeanUs(), "us"},
      {"frontend.materialize_ms", Mean(traced.materialize_ms), "ms"},
      {"engine.plan_hit_ratio", HitRatio(run, "plan_hits", "plan_misses"),
       "ratio"},
      {"eval.derivations_per_query", Ratio(derivations, queries), "count"},
      {"eval.duplicate_ratio",
       Ratio(static_cast<double>(traced.duplicates), derivations), "ratio"},
      {"eval.rounds_per_query",
       Ratio(static_cast<double>(traced.rounds), queries), "count"},
      {"eval.probes_per_query",
       Ratio(static_cast<double>(traced.probes), queries), "count"},
      {"eval.rows_scanned_per_query",
       Ratio(static_cast<double>(traced.rows_scanned), queries), "count"},
      {"eval.derivations_per_s",
       Ratio(derivations, traced.stream[kEval].ms / 1000), "1/s"},
      {"ivm.insert_us", traced.stream[kInsert].MeanUs(), "us"},
      {"ivm.delete_us", traced.stream[kDelete].MeanUs(), "us"},
      {"ivm.added_per_insert",
       Ratio(static_cast<double>(traced.added),
             static_cast<double>(traced.inserts)),
       "count"},
      {"ivm.removed_per_delete",
       Ratio(static_cast<double>(traced.removed),
             static_cast<double>(traced.deletes)),
       "count"},
      {"ivm.rederive_ratio",
       Ratio(static_cast<double>(traced.rederived),
             static_cast<double>(traced.removed + traced.rederived)),
       "ratio"},
      {"storage.view_rows", traced.view_rows, "count"},
      {"trace.untraced_us", untraced_us, "us"},
      {"trace.traced_us", traced_us, "us"},
      {"trace.overhead_pct", Ratio(traced_us - untraced_us, untraced_us) * 100,
       "%"},
  };
  Tally all = run.tally;
  all.Append(traced.tally);
  PrintResult(all.failed == 0, all.attempted, all.failed, metrics);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --linrecd <path> --workload "
               "<point_reach|cycle_scan|update_mix> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string linrecd, workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--linrecd") {
      linrecd = value;
    } else if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  WorkloadKind kind;
  if (argc % 2 != 1 || linrecd.empty() || !ParseWorkload(workload, &kind) ||
      seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  // What nproc reports: the CPUs this process may run on.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int threads =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  const WorkloadSpec spec = SpecFor(kind, threads);
  return trace == 0 ? EndToEnd(linrecd, kind, seed, spec, seconds)
                    : Traced(linrecd, kind, seed, spec, seconds);
}
