// The one TCP connection layer under every server in this tree — plain
// POSIX sockets, no external dependencies.
//
// TcpServer owns everything a listening socket needs regardless of the
// protocol on top: bind/listen, the accept loop, TCP_NODELAY, the send
// deadline, the connection cap with its live-fd set, one thread per
// admitted connection, and a Stop() that shuts down the listener and
// every live connection, then waits for each connection thread. A
// protocol supplies only its per-connection function:
// http::HttpServer parses one request and answers it, rpc::SocketServer
// runs its frame loop.
//
// Limits are constants, not options: at most kMaxConnections connection
// threads ever run, an accept beyond the cap is refused (the protocol may
// answer first — HTTP sends 503), and every read a protocol makes goes
// through RecvSome/RecvFull with a deadline, so a silent or trickling
// peer holds one slot for a bounded time and never blocks the others.
#ifndef DIVERSE_NET_TCP_SERVER_H_
#define DIVERSE_NET_TCP_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace diverse {
namespace net {

// Concurrent connections one server admits.
inline constexpr std::size_t kMaxConnections = 16;
// How long a due request may take to arrive, and how long one blocked
// send may wait, on a server connection.
inline constexpr int kIoTimeoutMs = 5000;

using Clock = std::chrono::steady_clock;
// Wait until data, EOF or shutdown.
inline constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

// Now + timeout_ms, or kNoDeadline when timeout_ms <= 0.
Clock::time_point DeadlineIn(int timeout_ms);

// Reads 1..size bytes, waiting for the first of them until `deadline`.
// Returns the count, or 0 on EOF, error, shutdown, or a passed deadline.
std::size_t RecvSome(int fd, void* data, std::size_t size,
                     Clock::time_point deadline);
// Reads exactly `size` bytes by `deadline`; false otherwise.
bool RecvFull(int fd, void* data, std::size_t size,
              Clock::time_point deadline);
// Writes all of `data`; false on error or when the socket's send timeout
// expires. MSG_NOSIGNAL: a peer that vanished mid-write is a false
// return, not a SIGPIPE process kill.
bool SendFull(int fd, const void* data, std::size_t size);
// TCP_NODELAY plus an SO_SNDTIMEO of `send_timeout_ms` (<= 0 leaves sends
// unbounded). Shared by the server's accepted sockets and
// rpc::SocketTransport's client socket.
void ConfigureSocket(int fd, int send_timeout_ms);

class TcpServer {
 public:
  // Runs on the connection's own thread. The layer closes `fd` when it
  // returns; Stop() shuts it down first, which wakes any read.
  using ServeFn = std::function<void(int fd)>;
  // Runs on the accept thread for a connection refused over the cap (or
  // while stopping), just before the layer closes it. May be empty.
  using RefuseFn = std::function<void(int fd)>;

  // Binds and listens on `port` (0 picks an ephemeral port, see port()).
  // CHECK-aborts if the socket cannot be bound: a server that cannot
  // listen was misconfigured, and silently serving nothing is worse.
  TcpServer(int port, ServeFn serve, RefuseFn refuse = {});
  ~TcpServer();  // implies Stop()

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  int port() const { return port_; }

  // The accept loop on the calling thread; returns after Stop().
  void Run();
  // Run() on a background thread, joined by Stop().
  void Start();
  // Stops accepting, shuts down every live connection, and waits for each
  // connection thread (and the Start() thread) before returning.
  // Idempotent.
  void Stop();

 private:
  void ServeAndFinish(int fd);
  void JoinFinished();

  const ServeFn serve_;
  const RefuseFn refuse_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable idle_;
  // Admitted connections still being served, by fd (Stop() shuts them
  // down); their count is what the cap limits.
  std::map<int, std::thread> live_;
  // Threads whose connection has closed, joined by the accept loop or
  // Stop().
  std::vector<std::thread> finished_;

  std::thread accept_thread_;
};

}  // namespace net
}  // namespace diverse

#endif  // DIVERSE_NET_TCP_SERVER_H_
