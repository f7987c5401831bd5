// Latency samples, percentiles, the tally of checked replies, and the
// one-thread-per-session runner both passes use.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank percentile (q in (0, 1]); 0 for no samples.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), values.size());
  return values[rank - 1];
}

/// Samples strictly beyond the nearest-rank percentile q.
inline std::size_t BeyondPercentile(std::size_t count, double q) {
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(count)));
  return count - std::min(rank, count);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Per-request latencies (ms), by request kind.
struct Latencies {
  std::vector<double> load, query, insert, remove;

  std::vector<double>* For(Op op) {
    switch (op) {
      case Op::kLoad:
        return &load;
      case Op::kQuery:
        return &query;
      case Op::kInsert:
        return &insert;
      case Op::kDelete:
        return &remove;
      default:
        return nullptr;
    }
  }
  void Append(const Latencies& other) {
    for (auto [to, from] :
         {std::pair{&load, &other.load}, std::pair{&query, &other.query},
          std::pair{&insert, &other.insert},
          std::pair{&remove, &other.remove}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
};

/// Checked replies: every request sent counts as attempted; an ERR reply,
/// a wrong answer or a dropped connection counts as failed.
struct Tally {
  long attempted = 0;
  long failed = 0;
  /// INSERT replies with applied=0 and DELETE replies with removed=0: the
  /// stream only names absent / present edges, so each one is a failure.
  long noop_updates = 0;
  /// Query requests sent (the expected queries_served delta).
  long queries = 0;
  std::string first_error;

  /// Counts one reply; returns false if it failed the oracle.
  bool Record(const Request& request, const std::vector<std::string>& reply) {
    ++attempted;
    if (request.op == Op::kQuery) ++queries;
    if (!reply.empty() &&
        (reply.front().rfind("OK insert applied=0", 0) == 0 ||
         reply.front().rfind("OK delete removed=0", 0) == 0)) {
      ++noop_updates;
    }
    const std::string why = CheckReply(request, reply);
    if (why.empty()) return true;
    Fail(why);
    return false;
  }
  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  void Append(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    noop_updates += other.noop_updates;
    queries += other.queries;
    if (first_error.empty()) first_error = other.first_error;
  }
};

/// Runs `body(i)` for i in [0, sessions) on one thread each, joins them,
/// and returns the first exception message ("" if none).
inline std::string RunSessions(int sessions,
                               const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::string> errors(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    threads.emplace_back([&body, &errors, i] {
      try {
        body(i);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(i)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) return e;
  }
  return "";
}

}  // namespace perfbench
