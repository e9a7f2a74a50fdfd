// NDJSON-over-Unix-domain-socket transport for the service daemon.
//
// SocketServer listens on a filesystem socket path (`serve --socket PATH`),
// accepts connections on its own thread and spawns one thread per
// connection; each connection reads newline-framed request lines, passes
// them to Server::handleLine() and writes back one response line. The
// framing is the whole protocol — src/serve/server.hpp owns the verbs.
//
// SocketClient is the matching blocking client (used by the `loadgen`
// subcommand and the service tests): connect, roundTrip() one line, read
// one line back. Both sides are deliberately boring POSIX — no event loop,
// no partial-frame buffering beyond a per-connection read buffer — because
// a fault-grading request costs milliseconds and connection counts are
// small.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/server.hpp"

namespace fmossim::serve {

/// Longest NDJSON line either side accepts, newline excluded. Requests need
/// far less (a generated workload is a few hundred bytes; an inline one
/// carries netlist, sequence and fault-spec text), so only a broken or
/// hostile peer reaches it; the daemon answers such a line with an error
/// reply and closes that connection instead of buffering without bound.
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

/// The daemon's socket front end; see the file comment.
class SocketServer {
 public:
  /// Binds and listens on `path` (an existing socket file is unlinked
  /// first) and starts the accept thread. Throws Error on bind failures or
  /// paths longer than sockaddr_un allows.
  SocketServer(Server& server, std::string path);
  ~SocketServer();  ///< stop()

  const std::string& path() const { return path_; }

  /// Blocks until the accept loop exits — i.e. until a `shutdown` request
  /// was handled or stop() was called.
  void waitShutdown();

  /// Closes the listening socket and all live connections, joins the
  /// threads and unlinks the socket file. Idempotent.
  void stop();

 private:
  void acceptLoop();
  void serveConnection(int fd);

  Server& server_;
  std::string path_;
  int listenFd_ = -1;
  std::thread acceptThread_;
  std::mutex mu_;
  bool stopping_ = false;
  std::vector<int> connFds_;           ///< live connection sockets
  std::vector<std::thread> connThreads_;
};

/// Blocking NDJSON client for one daemon connection.
class SocketClient {
 public:
  /// Connects to the daemon socket; throws Error if the connect fails.
  explicit SocketClient(const std::string& path);
  ~SocketClient();

  SocketClient(const SocketClient&) = delete;             ///< owns the fd
  SocketClient& operator=(const SocketClient&) = delete;  ///< owns the fd

  /// Sends one request line and returns the response line (both without
  /// the newline). Throws Error on a closed or failing connection.
  std::string roundTrip(const std::string& line);

  /// roundTrip() with JSON values on both ends.
  JsonValue request(const JsonValue& req);

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last response line
};

}  // namespace fmossim::serve
