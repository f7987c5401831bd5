// The load generator's side of the wire: a blocking line client for the
// linrecd protocol, and the daemon process it drives.

#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One TCP connection to linrecd on 127.0.0.1.
class Connection {
 public:
  /// Connects (TCP_NODELAY, 60 s receive timeout). Null on failure.
  static std::unique_ptr<Connection> Open(int port, std::string* error);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Send(const std::string& text);
  /// Reads one reply: a RESULT block or a multi-line OK payload (STATS,
  /// METRICS) through its "." line, otherwise one line. False when the
  /// peer closed or the read timed out.
  bool ReadReply(std::vector<std::string>* lines);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  bool ReadLine(std::string* line);

  int fd_;
  std::string buffer_;
  std::size_t pos_ = 0;
};

/// A `linrecd --port 0` child process with default flags.
class Daemon {
 public:
  /// Spawns `binary --port 0`, plus `--workers <workers>` when `workers`
  /// is not 0, and waits for its LISTENING line. Null on failure.
  static std::unique_ptr<Daemon> Start(const std::string& binary, int workers,
                                       std::string* error);
  /// Kills and reaps the child if it is still running.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// VmHWM of the daemon, in MiB; negative if unreadable.
  double PeakRssMb() const;
  /// After SHUTDOWN: waits for "SHUTDOWN complete" and a zero exit.
  bool WaitForExit(std::string* error);

 private:
  Daemon(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}
  bool ReadLine(std::string* line, int timeout_ms);

  pid_t pid_;
  int out_fd_;
  int port_ = 0;
  std::string buffer_;
};

}  // namespace perfbench
