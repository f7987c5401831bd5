#include "socket_run.h"

#include <cstdlib>
#include <memory>

#include "client.h"

namespace perfbench {
namespace {

using Connections = std::vector<std::unique_ptr<Connection>>;

/// Sends one request and checks its reply. False if the connection
/// dropped (the failure is already tallied).
bool Send(Connection& conn, const Request& request, Latencies* latencies,
          Tally* tally) {
  const Clock::time_point start = Clock::now();
  std::vector<std::string> reply;
  if (!conn.Send(request.text) || !conn.ReadReply(&reply)) {
    ++tally->attempted;
    tally->Fail("connection dropped");
    return false;
  }
  const double ms = MillisSince(start);
  if (std::vector<double>* samples = latencies->For(request.op)) {
    samples->push_back(ms);
  }
  tally->Record(request, reply);
  return true;
}

/// STATS or METRICS as name → value ("linrec_" stripped from METRICS).
bool Scrape(Connection& control, const char* verb,
            std::map<std::string, long>* out, std::string* error) {
  std::vector<std::string> reply;
  if (!control.Send(std::string(verb) + "\n") || !control.ReadReply(&reply) ||
      reply.size() < 2 || reply.back() != ".") {
    *error = std::string(verb) + " scrape failed";
    return false;
  }
  for (std::size_t i = 1; i + 1 < reply.size(); ++i) {
    const std::string& line = reply[i];
    if (line.rfind("# ", 0) == 0) continue;
    std::size_t split = line.find('=');
    std::size_t name_begin = 0;
    if (split == std::string::npos) {  // METRICS: "linrec_<name> <value>"
      split = line.find(' ');
      name_begin = line.rfind("linrec_", 0) == 0 ? 7 : 0;
    }
    if (split == std::string::npos) continue;
    (*out)[line.substr(name_begin, split - name_begin)] =
        std::atol(line.c_str() + split + 1);
  }
  return true;
}

/// Scrapes STATS and METRICS; every METRICS counter must equal its STATS
/// twin (nothing runs between the two scrapes).
bool ScrapeBoth(Connection& control, std::map<std::string, long>* stats,
                std::string* error) {
  std::map<std::string, long> metrics;
  if (!Scrape(control, "STATS", stats, error) ||
      !Scrape(control, "METRICS", &metrics, error)) {
    return false;
  }
  for (const auto& [name, value] : metrics) {
    auto it = stats->find(name);
    if (it == stats->end() || it->second != value) {
      *error = "METRICS " + name + " disagrees with STATS";
      return false;
    }
  }
  return true;
}

/// QUIT every session (RunSocket joins every connection thread, so one
/// left open would hang the shutdown), then SHUTDOWN and reap.
bool Shutdown(Connections* sessions, Connection* control, Daemon& daemon,
              std::string* error) {
  std::vector<std::string> reply;
  for (std::unique_ptr<Connection>& conn : *sessions) {
    if (conn == nullptr) continue;
    if (!conn->Send("QUIT\n") || !conn->ReadReply(&reply) ||
        reply.front() != "OK bye") {
      *error = "session did not acknowledge QUIT";
      return false;
    }
    conn.reset();
  }
  std::string open_error;
  std::unique_ptr<Connection> opened;
  if (control == nullptr) {
    opened = Connection::Open(daemon.port(), &open_error);
    control = opened.get();
  }
  if (control == nullptr || !control->Send("SHUTDOWN\n") ||
      !control->ReadReply(&reply) || reply.front() != "OK shutdown") {
    *error = "SHUTDOWN was not acknowledged " + open_error;
    return false;
  }
  return daemon.WaitForExit(error);
}

}  // namespace

namespace {

/// One daemon's share of a run: start it, set up every session, drive the
/// stream for `seconds`, run the end-of-run checks, scrape, shut down.
/// Appends to `run`; false (with run->error) if the daemon could not be
/// set up, scraped or shut down.
bool RunOneDaemon(const std::string& linrecd, WorkloadKind kind,
                  std::uint64_t seed, const WorkloadSpec& spec, int daemon_index,
                  double seconds, SocketRun* run) {
  const std::size_t n = static_cast<std::size_t>(spec.sessions);
  // Scripts of this daemon's own: its sessions load graphs no other daemon
  // of the run loads, so a run's work is an average over several graphs.
  std::vector<std::unique_ptr<SessionScript>> scripts;
  for (int i = 0; i < spec.sessions; ++i) {
    scripts.push_back(
        MakeScript(kind, seed, daemon_index * spec.sessions + i));
  }
  std::vector<Latencies> latencies(n);
  std::vector<Tally> tallies(n);
  Connections conns(n);

  const Clock::time_point start = Clock::now();
  std::unique_ptr<Daemon> daemon =
      Daemon::Start(linrecd, spec.workers, &run->error);
  if (daemon == nullptr) return false;
  // Sessions set up one after another: LOAD latencies measured without
  // each other's contention.
  Tally setup_tally;
  for (std::size_t k = 0; k < n; ++k) {
    conns[k] = Connection::Open(daemon->port(), &run->error);
    if (conns[k] == nullptr) return false;
    for (const Request& request : scripts[k]->Setup()) {
      // Only LOAD latencies are kept from setup: a materializing read
      // there is not a sample of the stream's reads.
      Latencies* samples = request.op == Op::kLoad ? &latencies[k] : nullptr;
      Latencies ignored;
      if (!Send(*conns[k], request, samples ? samples : &ignored,
                &setup_tally)) {
        break;
      }
    }
  }
  run->setup_s.push_back(MillisSince(start) / 1000.0);
  if (setup_tally.failed > 0) {
    run->error = "setup failed: " + setup_tally.first_error;
    return false;
  }

  std::unique_ptr<Connection> control =
      Connection::Open(daemon->port(), &run->error);
  std::map<std::string, long> stats_begin;
  if (control == nullptr ||
      !ScrapeBoth(*control, &stats_begin, &run->error)) {
    return false;
  }

  std::vector<Clock::time_point> stopped(n);
  std::vector<long> exchanges(n, 0);
  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  run->error = RunSessions(spec.sessions, [&](int i) {
    const std::size_t k = static_cast<std::size_t>(i);
    SessionScript& script = *scripts[k];
    bool alive = true;
    while (alive && Clock::now() < deadline) {
      const Exchange exchange = script.Next();
      std::unique_ptr<Connection> own;
      Connection* conn = conns[k].get();
      if (exchange.own_connection) {
        std::string open_error;
        own = Connection::Open(daemon->port(), &open_error);
        if (own == nullptr) {
          ++tallies[k].attempted;
          tallies[k].Fail(open_error);
          break;
        }
        conn = own.get();
      }
      for (const Request& request : exchange.requests) {
        if (!Send(*conn, request, &latencies[k], &tallies[k])) {
          alive = exchange.own_connection;
          break;
        }
      }
      ++exchanges[k];
    }
    stopped[k] = Clock::now();
    if (!alive) {
      conns[k].reset();  // dropped: nothing left to QUIT
      return;
    }
    Latencies unrecorded;  // end-of-run checks are not latency samples
    for (const Request& request : script.Finish()) {
      if (!Send(*conns[k], request, &unrecorded, &tallies[k])) {
        conns[k].reset();
        return;
      }
    }
  });
  if (!run->error.empty()) return false;
  Clock::time_point last = begin;
  Tally window_tally;
  run->exchanges_per_session.resize(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    last = std::max(last, stopped[k]);
    run->latencies.Append(latencies[k]);
    window_tally.Append(tallies[k]);
    run->exchanges += exchanges[k];
    run->exchanges_per_session[k] += exchanges[k];
  }
  run->window_s += std::chrono::duration<double>(last - begin).count();

  if (!ScrapeBoth(*control, &run->stats_end, &run->error)) return false;
  // The server must have served exactly the queries the sessions sent.
  for (const auto& [name, value] : run->stats_end) {
    run->stats_delta[name] += value - stats_begin[name];
  }
  const long served = run->stats_end["queries_served"] -
                      stats_begin["queries_served"];
  if (served != window_tally.queries) {
    window_tally.Fail("STATS queries_served moved by " +
                      std::to_string(served) + ", sessions sent " +
                      std::to_string(window_tally.queries));
  }
  run->tally.Append(window_tally);
  run->rss_mb.push_back(daemon->PeakRssMb());
  return Shutdown(&conns, control.get(), *daemon, &run->error);
}

}  // namespace

SocketRun RunOverSocket(const std::string& linrecd, WorkloadKind kind,
                        std::uint64_t seed, const WorkloadSpec& spec,
                        double seconds, int daemons) {
  SocketRun run;
  for (int d = 0; d < daemons; ++d) {
    if (!RunOneDaemon(linrecd, kind, seed, spec, d, seconds / daemons,
                      &run)) {
      return run;
    }
  }
  run.ok = true;
  return run;
}

}  // namespace perfbench
