#include "rpc/socket_transport.h"

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>

#include "rpc/wire.h"
#include "util/bytes.h"

namespace diverse {
namespace rpc {
namespace {

bool WriteFrame(int fd, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  std::vector<std::uint8_t> header;
  AppendU32(&header, static_cast<std::uint32_t>(payload.size()));
  return net::SendFull(fd, header.data(), header.size()) &&
         net::SendFull(fd, payload.data(), payload.size());
}

// Reads one frame. Its first byte must arrive by `start_by`; from then on
// the rest of the frame must arrive within `timeout_ms` (<= 0: no bound).
bool ReadFrame(int fd, std::vector<std::uint8_t>* payload,
               net::Clock::time_point start_by, int timeout_ms) {
  std::uint8_t header[4];
  const std::size_t got = net::RecvSome(fd, header, sizeof(header), start_by);
  if (got == 0) return false;
  const net::Clock::time_point deadline = net::DeadlineIn(timeout_ms);
  if (!net::RecvFull(fd, header + got, sizeof(header) - got, deadline)) {
    return false;
  }
  std::uint32_t length = 0;
  if (!ByteReader(header).ReadU32(&length) || length > kMaxFrameBytes) {
    return false;
  }
  payload->resize(length);
  return net::RecvFull(fd, payload->data(), length, deadline);
}

// Connect with a deadline: non-blocking connect + poll, then back to
// blocking mode. A plain blocking ::connect can hang for minutes against
// a blackholed address. Returns false (and closes nothing) on failure.
bool ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t addr_len,
                        int timeout_ms) {
  if (timeout_ms <= 0) return ::connect(fd, addr, addr_len) == 0;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return false;
  }
  bool connected = ::connect(fd, addr, addr_len) == 0;
  if (!connected && errno == EINPROGRESS) {
    pollfd waiter{fd, POLLOUT, 0};
    if (::poll(&waiter, 1, timeout_ms) == 1) {
      int error = 0;
      socklen_t len = sizeof(error);
      connected = ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) == 0 &&
                  error == 0;
    }
  }
  return connected && ::fcntl(fd, F_SETFL, flags) == 0;
}

}  // namespace

// ---- SocketTransport (client) ---------------------------------------------

SocketTransport::SocketTransport(std::string host, int port, int timeout_ms)
    : host_(std::move(host)), port_(port), timeout_ms_(timeout_ms) {}

SocketTransport::~SocketTransport() {
  for (Lane* lane : {&query_lane_, &replication_lane_}) {
    std::lock_guard<std::mutex> lock(lane->mu);
    if (lane->fd >= 0) ::close(lane->fd);
  }
}

int SocketTransport::Connect() const {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port_);
  if (::getaddrinfo(host_.c_str(), service.c_str(), &hints, &results) != 0) {
    return -1;
  }
  int connected = -1;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (ConnectWithTimeout(fd, ai->ai_addr, ai->ai_addrlen, timeout_ms_)) {
      net::ConfigureSocket(fd, timeout_ms_);
      connected = fd;
      break;
    }
    ::close(fd);
  }
  ::freeaddrinfo(results);
  return connected;
}

bool SocketTransport::Call(const std::vector<std::uint8_t>& request,
                           std::vector<std::uint8_t>* response) {
  Lane& lane = PeekType(request) == MessageType::kShardQueryRequest
                   ? query_lane_
                   : replication_lane_;
  std::lock_guard<std::mutex> lock(lane.mu);
  if (lane.fd < 0) lane.fd = Connect();
  if (lane.fd < 0) return false;
  if (!WriteFrame(lane.fd, request) ||
      !ReadFrame(lane.fd, response, net::DeadlineIn(timeout_ms_),
                 timeout_ms_)) {
    // This lane's connection is in an unknown state mid-protocol; drop it
    // and let its next Call reconnect (the node may have restarted
    // meanwhile). The other lane keeps its connection.
    ::close(lane.fd);
    lane.fd = -1;
    return false;
  }
  return true;
}

// ---- Endpoint parsing ------------------------------------------------------

bool ParseEndpoints(const std::string& list, std::vector<Endpoint>* out,
                    std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  out->clear();
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(start, comma - start);
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= entry.size()) {
      return fail("malformed endpoint '" + entry + "' (want host:port)");
    }
    int port = 0;
    for (char c : entry.substr(colon + 1)) {
      if (c < '0' || c > '9') {
        return fail("malformed port in '" + entry + "'");
      }
      port = port * 10 + (c - '0');
      if (port > 65535) {  // bound before the next *10 overflows
        return fail("port out of range in '" + entry + "'");
      }
    }
    if (port <= 0) return fail("port out of range in '" + entry + "'");
    Endpoint endpoint{entry.substr(0, colon), port};
    for (const Endpoint& seen : *out) {
      if (seen == endpoint) {
        return fail("duplicate endpoint '" + entry +
                    "' — each node must be listed once");
      }
    }
    out->push_back(std::move(endpoint));
    start = comma + 1;
  }
  if (out->empty()) return fail("empty endpoint list");
  return true;
}

// ---- SocketServer (node) ---------------------------------------------------

SocketServer::SocketServer(Handler* node, int port)
    : node_(node), server_(port, [this](int fd) { ServeConnection(fd); }) {}

void SocketServer::ServeConnection(int client_fd) {
  // The first frame is due within the deadline of the accept; after a
  // completed frame the connection may idle until the next one starts.
  net::Clock::time_point start_by = net::DeadlineIn(net::kIoTimeoutMs);
  std::vector<std::uint8_t> request;
  while (ReadFrame(client_fd, &request, start_by, net::kIoTimeoutMs)) {
    if (!WriteFrame(client_fd, node_->Handle(request))) return;
    start_by = net::kNoDeadline;
  }
}

}  // namespace rpc
}  // namespace diverse
