#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <utility>

#include "util/check.h"

namespace diverse {
namespace net {

Clock::time_point DeadlineIn(int timeout_ms) {
  return timeout_ms > 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                        : kNoDeadline;
}

std::size_t RecvSome(int fd, void* data, std::size_t size,
                     Clock::time_point deadline) {
  const bool bounded = deadline != kNoDeadline;
  for (;;) {
    // Unbounded reads block in recv; bounded ones take what is already
    // there and poll for the rest of the time left.
    const ssize_t got = ::recv(fd, data, size, bounded ? MSG_DONTWAIT : 0);
    if (got > 0) return static_cast<std::size_t>(got);
    if (got == 0) return 0;
    if (errno == EINTR) continue;
    if (!bounded || (errno != EAGAIN && errno != EWOULDBLOCK)) return 0;
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return 0;
    pollfd waiter{fd, POLLIN, 0};
    const int ready =
        ::poll(&waiter, 1, static_cast<int>(std::min<long long>(left, INT_MAX)));
    if (ready == 0 || (ready < 0 && errno != EINTR)) return 0;
  }
}

bool RecvFull(int fd, void* data, std::size_t size,
              Clock::time_point deadline) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  while (size > 0) {
    const std::size_t got = RecvSome(fd, bytes, size, deadline);
    if (got == 0) return false;
    bytes += got;
    size -= got;
  }
  return true;
}

bool SendFull(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t sent = ::send(fd, bytes, size, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    bytes += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

void ConfigureSocket(int fd, int send_timeout_ms) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (send_timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = send_timeout_ms / 1000;
  tv.tv_usec = (send_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

TcpServer::TcpServer(int port, ServeFn serve, RefuseFn refuse)
    : serve_(std::move(serve)), refuse_(std::move(refuse)) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DIVERSE_CHECK_MSG(fd >= 0, "cannot create listening socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  DIVERSE_CHECK_MSG(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0,
                    "cannot bind port");
  DIVERSE_CHECK_MSG(::listen(fd, 16) == 0, "cannot listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  DIVERSE_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                              &bound_len) == 0);
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::Start() {
  DIVERSE_CHECK_MSG(!accept_thread_.joinable(), "server already started");
  accept_thread_ = std::thread([this] { Run(); });
}

void TcpServer::Run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // Transient accept failure (EMFILE, ECONNABORTED, ...): back off
      // briefly instead of busy-spinning until it clears.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    ConfigureSocket(client, kIoTimeoutMs);
    JoinFinished();
    bool admitted = false;
    {
      // The new thread's ServeAndFinish waits on this lock, so its entry
      // is in live_ before it can leave.
      std::lock_guard<std::mutex> lock(mu_);
      if (live_.size() < kMaxConnections && !stopping_.load()) {
        live_.emplace(client,
                      std::thread([this, client] { ServeAndFinish(client); }));
        admitted = true;
      }
    }
    if (!admitted) {
      if (refuse_) refuse_(client);
      ::close(client);
    }
  }
}

void TcpServer::ServeAndFinish(int fd) {
  serve_(fd);
  // Close under the lock, so Stop() never shuts down a reused fd number.
  std::lock_guard<std::mutex> lock(mu_);
  ::close(fd);
  auto entry = live_.extract(fd);
  finished_.push_back(std::move(entry.mapped()));
  idle_.notify_all();
}

void TcpServer::JoinFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done.swap(finished_);
  }
  for (std::thread& thread : done) thread.join();
}

void TcpServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  // Unblock a blocked accept(): shutdown wakes it on Linux; close is the
  // portable fallback (BSD/macOS return ENOTCONN from shutdown on
  // listening sockets and leave accept blocked). The exchange guards
  // against double-close from Stop + destructor.
  const int listener = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listener >= 0) {
    ::shutdown(listener, SHUT_RDWR);
    ::close(listener);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Wake connection threads blocked in a read; each closes its own fd
    // and deregisters in ServeAndFinish.
    for (const auto& [fd, thread] : live_) ::shutdown(fd, SHUT_RDWR);
    idle_.wait(lock, [this] { return live_.empty(); });
  }
  JoinFinished();
}

}  // namespace net
}  // namespace diverse
