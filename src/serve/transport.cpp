#include "serve/transport.hpp"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/error.hpp"

namespace fmossim::serve {

namespace {

void writeAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // send() with MSG_NOSIGNAL: a peer that hung up turns into an error
    // here rather than a SIGPIPE that would kill the whole daemon.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("socket write failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

enum class LineRead { Line, Closed, TooLong };

/// Reads until `buffer` contains a '\n'; stores the line without it in
/// `line` (the leftover stays in the buffer). Closed means orderly EOF or a
/// torn-down connection before a complete line; TooLong means more than
/// kMaxLineBytes arrived without a newline.
LineRead readLine(int fd, std::string& buffer, std::string& line) {
  std::size_t scanned = 0;  // bytes of `buffer` already searched
  for (;;) {
    const std::size_t pos = buffer.find('\n', scanned);
    if (pos != std::string::npos) {
      if (pos > kMaxLineBytes) return LineRead::TooLong;
      line.assign(buffer, 0, pos);
      buffer.erase(0, pos + 1);
      return LineRead::Line;
    }
    if (buffer.size() > kMaxLineBytes) return LineRead::TooLong;
    scanned = buffer.size();
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return LineRead::Closed;  // torn down (e.g. stop() closed the fd)
    }
    if (n == 0) return LineRead::Closed;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

sockaddr_un socketAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    throw Error("socket path too long (max " +
                std::to_string(sizeof addr.sun_path - 1) + " bytes): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

SocketServer::SocketServer(Server& server, std::string path)
    : server_(server), path_(std::move(path)) {
  const sockaddr_un addr = socketAddress(path_);
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    throw Error(std::string("socket() failed: ") + std::strerror(errno));
  }
  ::unlink(path_.c_str());  // stale socket file from a previous run
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listenFd_, 16) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error("cannot listen on '" + path_ + "': " + what);
  }
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::acceptLoop() {
  for (;;) {
    // Snapshot the listen fd under the lock: stop() claims it (and later
    // closes it) under the same lock, so this thread never reads a torn or
    // already-recycled descriptor. stop() defers the close() until after
    // this thread joins, so the snapshot stays valid for the whole
    // iteration; shutdown() is what wakes the poll below.
    int lfd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      lfd = listenFd_;
    }
    if (server_.shutdownRequested()) return;
    // Poll with a timeout so shutdown requests handled on connection
    // threads are noticed without another connection arriving.
    pollfd pfd{lfd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0) continue;
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed by stop()
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    connFds_.push_back(fd);
    connThreads_.emplace_back([this, fd] { serveConnection(fd); });
  }
}

void SocketServer::serveConnection(int fd) {
  std::string buffer;
  std::string line;
  for (;;) {
    const LineRead got = readLine(fd, buffer, line);
    if (got == LineRead::Closed) break;
    if (got == LineRead::TooLong) {
      // The stream cannot be re-framed past an unbounded line: answer once
      // and drop this connection (the daemon and other clients carry on).
      try {
        writeAll(fd, Server::errorLine("request line longer than " +
                                       std::to_string(kMaxLineBytes) +
                                       " bytes") +
                         "\n");
      } catch (const Error&) {
      }
      break;
    }
    if (line.empty()) continue;  // tolerate blank keep-alive lines
    std::string response;
    try {
      response = server_.handleLine(line);
    } catch (...) {
      break;  // handleLine never throws; belt and braces
    }
    try {
      writeAll(fd, response + "\n");
    } catch (const Error&) {
      break;  // peer went away mid-response
    }
    if (server_.shutdownRequested()) break;
  }
  ::close(fd);
}

void SocketServer::waitShutdown() {
  if (acceptThread_.joinable()) acceptThread_.join();
}

void SocketServer::stop() {
  std::vector<int> fds;
  int listenFd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && listenFd_ < 0) return;
    stopping_ = true;
    fds.swap(connFds_);
    // Claim the listen fd under the lock (acceptLoop snapshots it under the
    // same lock); shutdown() below wakes the accept thread's poll, but the
    // close() waits until that thread has joined so its snapshot cannot be
    // recycled into an unrelated descriptor mid-poll.
    listenFd = listenFd_;
    listenFd_ = -1;
  }
  if (listenFd >= 0) ::shutdown(listenFd, SHUT_RDWR);
  // Unblock connection threads stuck in read(); result-waiters unblock via
  // Server::stop() (queue stop wakes them), which the CLI calls first.
  for (const int fd : fds) ::shutdown(fd, SHUT_RDWR);
  if (acceptThread_.joinable()) acceptThread_.join();
  if (listenFd >= 0) ::close(listenFd);
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(connThreads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  ::unlink(path_.c_str());
}

SocketClient::SocketClient(const std::string& path) {
  const sockaddr_un addr = socketAddress(path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw Error(std::string("socket() failed: ") + std::strerror(errno));
  }
  // connect() interrupted by a signal must be retried like the read/write
  // loops below; without this a harmless SIGCHLD during connection setup
  // surfaces as a spurious "Interrupted system call" failure.
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  // An interrupted connect may have completed in the background; the retry
  // then fails with EISCONN, which is success.
  if (rc != 0 && errno == EISCONN) rc = 0;
  if (rc != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error("cannot connect to '" + path + "': " + what);
  }
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string SocketClient::roundTrip(const std::string& line) {
  writeAll(fd_, line + "\n");
  std::string response;
  const LineRead got = readLine(fd_, buffer_, response);
  if (got == LineRead::Closed) throw Error("server closed the connection");
  if (got == LineRead::TooLong) {
    throw Error("server response line longer than " +
                std::to_string(kMaxLineBytes) + " bytes");
  }
  return response;
}

JsonValue SocketClient::request(const JsonValue& req) {
  return JsonValue::parse(roundTrip(req.dump()));
}

}  // namespace fmossim::serve
