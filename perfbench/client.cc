#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {
namespace {

/// True if a reply's first line opens a "."-terminated block.
bool OpensBlock(const std::string& first_line) {
  return first_line.rfind("RESULT ", 0) == 0 || first_line == "OK stats" ||
         first_line == "OK metrics" || first_line == "OK explain";
}

}  // namespace

std::unique_ptr<Connection> Connection::Open(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = 60;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() { ::close(fd_); }

bool Connection::Send(const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::ReadLine(std::string* line) {
  for (;;) {
    const std::size_t end = buffer_.find('\n', pos_);
    if (end != std::string::npos) {
      line->assign(buffer_, pos_, end - pos_);
      pos_ = end + 1;
      return true;
    }
    buffer_.erase(0, pos_);
    pos_ = 0;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Connection::ReadReply(std::vector<std::string>* lines) {
  lines->clear();
  std::string line;
  if (!ReadLine(&line)) return false;
  const bool block = OpensBlock(line);
  lines->push_back(line);
  while (block) {
    if (!ReadLine(&line)) return false;
    lines->push_back(line);
    if (line == ".") break;
  }
  return true;
}

std::unique_ptr<Daemon> Daemon::Start(const std::string& binary, int workers,
                                      std::string* error) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  std::string arg0 = binary, arg1 = "--port", arg2 = "0", arg3 = "--workers",
              arg4 = std::to_string(workers);
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(),
                  workers == 0 ? nullptr : arg3.data(), arg4.data(), nullptr};
  pid_t pid = 0;
  const int rc =
      ::posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (rc != 0) {
    ::close(out[0]);
    *error = "spawn " + binary + ": " + std::strerror(rc);
    return nullptr;
  }
  std::unique_ptr<Daemon> daemon(new Daemon(pid, out[0]));
  std::string line;
  if (!daemon->ReadLine(&line, 30000) || line.rfind("LISTENING ", 0) != 0) {
    *error = "linrecd did not print LISTENING (got '" + line + "')";
    return nullptr;
  }
  daemon->port_ = std::atoi(line.c_str() + 10);
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  ::close(out_fd_);
}

bool Daemon::ReadLine(std::string* line, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t end = buffer_.find('\n');
    if (end != std::string::npos) {
      line->assign(buffer_, 0, end);
      buffer_.erase(0, end + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

double Daemon::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = -1;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return -1;
}

bool Daemon::WaitForExit(std::string* error) {
  std::string line;
  bool complete = false;
  while (ReadLine(&line, 30000)) {
    if (line == "SHUTDOWN complete") complete = true;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0 || std::chrono::steady_clock::now() > deadline) {
      *error = "linrecd did not exit after SHUTDOWN";
      return false;  // the destructor kills it
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (!complete || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "linrecd exited uncleanly after SHUTDOWN";
    return false;
  }
  return true;
}

}  // namespace perfbench
