// Transport abstraction for the RPC sharding layer: one blocking
// request/response exchange of wire.h payloads with a single remote
// handler.
//
// Handler is the server half's seam: anything that turns one decoded
// request payload into one encoded reply — a ShardNode replica, a
// replication::StandbyCoordinator mirror — can sit behind any transport
// or SocketServer without the transport layer knowing which.
//
// Two transport implementations ship:
//
//   * InProcessTransport (below) — calls straight into a Handler in this
//     process. Deterministic and dependency-free; what most tests and
//     bench/rpc_sharding records drive, and the reference behavior
//     SocketTransport must match. A `down` switch injects unreachable-node failures.
//   * SocketTransport (socket_transport.h) — blocking TCP over POSIX
//     sockets, length-prefixed frames, lazy reconnect.
//
// A transport addresses exactly one handler; the coordinator owns one per
// node and round-robins shards across them. Call() is thread-safe. The
// two-lane rule: kernel queries (kShardQueryRequest) and everything else
// (replication, stats, probes) travel on separate lanes, each carrying
// one in-flight request at a time, so a publish never queues behind a
// query while publishes and catch-ups stay serialized with each other.
// SocketTransport gives each lane its own connection; InProcessTransport
// has no connection to share and runs every call directly. Cross-node
// parallelism comes from the coordinator fanning out over distinct
// transports.
#ifndef DIVERSE_RPC_TRANSPORT_H_
#define DIVERSE_RPC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace diverse {
namespace rpc {

// One remote endpoint's request dispatcher: serves one wire.h request
// payload, returning the encoded reply. Implementations must treat the
// payload as having crossed a trust boundary (decode-validate-execute,
// reply kError on malformed input, never abort) and be safe to call from
// multiple transport threads.
class Handler {
 public:
  virtual ~Handler() = default;
  virtual std::vector<std::uint8_t> Handle(
      std::span<const std::uint8_t> request_payload) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Sends one encoded payload and blocks for the node's reply. Returns
  // false on transport failure (node unreachable, connection lost,
  // oversized frame); *response is unspecified then. A true return means
  // bytes came back — the caller still validates them with wire.h Decode.
  virtual bool Call(const std::vector<std::uint8_t>& request,
                    std::vector<std::uint8_t>* response) = 0;
};

class InProcessTransport : public Transport {
 public:
  // `handler` must outlive the transport.
  explicit InProcessTransport(Handler* handler) : handler_(handler) {}

  bool Call(const std::vector<std::uint8_t>& request,
            std::vector<std::uint8_t>* response) override;

  // Simulates a killed/unreachable node: while down, Call fails without
  // reaching the handler. Thread-safe; tests flip it mid-run.
  void set_down(bool down) { down_.store(down, std::memory_order_relaxed); }
  bool down() const { return down_.load(std::memory_order_relaxed); }

  // Swaps the handler behind this address — the tests' "process restart"
  // hook (a restarted node keeps its transport, as a restarted
  // shard_node_cli keeps its host:port). `handler` must outlive the
  // transport.
  void set_node(Handler* handler) {
    handler_.store(handler, std::memory_order_release);
  }

 private:
  std::atomic<Handler*> handler_;
  std::atomic<bool> down_{false};
};

}  // namespace rpc
}  // namespace diverse

#endif  // DIVERSE_RPC_TRANSPORT_H_
