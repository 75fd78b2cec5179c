// Blocking TCP transport for the RPC sharding layer — plain POSIX sockets,
// no external dependencies.
//
// Framing on the stream is [u32 little-endian payload length][payload],
// with the payload bytes exactly as produced by wire.h Encode. Lengths
// beyond wire.h's kMaxFrameBytes are treated as a protocol error and drop
// the connection: a corrupt prefix must not drive an allocation.
//
// SocketTransport is the client half the coordinator holds, one per shard
// node. It keeps two lanes to the node, each one connection with its own
// lock, chosen by the request's message type: kernel queries go on the
// query lane, and everything else (epoch batches, snapshot offers and
// chunks, acked-table syncs, stats scrapes, version probes) on the
// replication lane. Each lane carries one in-flight frame at a time, so a
// publish never waits behind a query, while publishes and catch-ups still
// serialize against each other. A lane connects lazily on its first Call,
// and on any I/O failure reports false and tears down its own connection
// only; its next Call reconnects. That makes a restarted shard_node_cli
// transparently reusable — the replica it lost is re-synced by the
// coordinator's catch-up protocol.
//
// SocketServer is the server half: the frame loop — read frame, Handler::
// Handle (a ShardNode replica or a StandbyCoordinator mirror), write
// frame — run per connection by the shared connection layer
// (net/tcp_server.h), which serves up to net::kMaxConnections
// connections at once, each on its own thread (a coordinator holds two
// per node, one per lane). Handlers are therefore called concurrently.
// Deadlines keep silent peers from holding a slot: a connection's first
// frame must start within net::kIoTimeoutMs of the accept (port probes
// are dropped), and every frame, once started, must arrive whole within
// the same deadline. Between completed frames a
// connection may idle indefinitely — the coordinator's persistent
// transport does, between queries.
#ifndef DIVERSE_RPC_SOCKET_TRANSPORT_H_
#define DIVERSE_RPC_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/tcp_server.h"
#include "rpc/transport.h"

namespace diverse {
namespace rpc {

class SocketTransport : public Transport {
 public:
  // Does not connect; the first Call does. `host` is a dotted-quad IPv4
  // address or a name resolvable by getaddrinfo. `timeout_ms` bounds
  // connect, send, and receive individually: a node that hangs (SIGSTOP,
  // blackholed network) fails the Call within the timeout instead of
  // wedging the coordinator's fan-out — without it the failure policy
  // could never engage for hung-but-not-dead nodes. <= 0 disables.
  SocketTransport(std::string host, int port, int timeout_ms = 5000);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Thread-safe. A kShardQueryRequest goes on the query lane, any other
  // payload on the replication lane; calls on one lane serialize.
  bool Call(const std::vector<std::uint8_t>& request,
            std::vector<std::uint8_t>* response) override;

 private:
  // One connection and the lock that serializes its exchanges.
  struct Lane {
    std::mutex mu;
    int fd = -1;  // guarded by mu; -1 until connected or after a failure
  };

  // A fresh connected socket, or -1.
  int Connect() const;

  const std::string host_;
  const int port_;
  const int timeout_ms_;
  Lane query_lane_;
  Lane replication_lane_;
};

// One "host:port" endpoint of a node or standby list.
struct Endpoint {
  std::string host;
  int port = 0;

  bool operator==(const Endpoint&) const = default;
};

// Parses "host:port[,host:port...]" into *out. Returns false with a
// diagnostic in *error (when non-null) on a malformed entry, an
// out-of-range port, or a DUPLICATE endpoint — two transports behind one
// address would double-assign shards and race replica sync, so the
// undefined fan-out is rejected up front.
bool ParseEndpoints(const std::string& list, std::vector<Endpoint>* out,
                    std::string* error = nullptr);

class SocketServer {
 public:
  // Binds and listens on `port` (0 picks an ephemeral port, see port()).
  // `node` must outlive the server. CHECK-aborts if the socket cannot be
  // bound — a node that cannot listen has nothing else to do.
  SocketServer(Handler* node, int port);
  ~SocketServer() { Stop(); }

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  int port() const { return server_.port(); }

  // Accept loop; returns after Stop(). Run directly (shard_node_cli) or
  // via Start() on a background thread (tests).
  void Serve() { server_.Run(); }
  void Start() { server_.Start(); }
  // Stops accepting, shuts down every connection (silent ones included),
  // and waits for their threads. Idempotent.
  void Stop() { server_.Stop(); }

 private:
  void ServeConnection(int client_fd);

  Handler* node_;
  net::TcpServer server_;
};

}  // namespace rpc
}  // namespace diverse

#endif  // DIVERSE_RPC_SOCKET_TRANSPORT_H_
