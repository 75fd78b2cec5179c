// Minimal HTTP/1.1 server for the observability front door, GET only.
//
// The connection layer (net/tcp_server.h) owns the transport: accept,
// the connection cap, deadlines, and Stop(). This file owns the protocol
// and nothing else: it applies the parser's byte caps, answers
// protocol-level errors (400 malformed, 405 non-GET, 503 over the
// connection cap) itself, and hands every well-formed GET to a Handler.
// Endpoint content lives behind that seam (obs/http_handler.h), the
// way rpc::SocketServer stays ignorant of what its Handler replicas do.
//
// Every response closes the connection (Connection: close). Keep-alive
// would buy nothing for scrape traffic — Prometheus reconnects per
// scrape interval measured in seconds — and one-request-per-connection
// keeps the state machine trivially auditable: accumulate, parse once,
// answer, close. A request must arrive whole within net::kIoTimeoutMs of
// the accept, so a silent peer holds its cap slot at most that long.
#ifndef DIVERSE_HTTP_SERVER_H_
#define DIVERSE_HTTP_SERVER_H_

#include <string>

#include "http/parser.h"
#include "net/tcp_server.h"

namespace diverse {
namespace http {

struct Response {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

// Reason phrase for the status codes this server emits ("Unknown"
// otherwise — the code still goes on the wire).
std::string StatusText(int status);

// Endpoint seam: receives every well-formed GET (anything else was
// already answered by the server). Expected to return 404 for paths it
// does not recognize. Must be thread-safe — connections are served
// concurrently.
class Handler {
 public:
  virtual ~Handler() = default;
  virtual Response Handle(const Request& request) = 0;
};

class HttpServer {
 public:
  // Binds and listens on `port` (0 picks an ephemeral port, see port()).
  // `handler` must outlive the server. CHECK-aborts if the socket cannot
  // be bound (see net::TcpServer).
  HttpServer(Handler* handler, int port);
  ~HttpServer() { Stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  int port() const { return server_.port(); }

  // Starts the accept loop on a background thread.
  void Start() { server_.Start(); }
  // Stops accepting, shuts down in-flight connections, and waits for
  // every connection thread before returning. Idempotent.
  void Stop() { server_.Stop(); }

 private:
  void ServeConnection(int client_fd);

  Handler* handler_;
  net::TcpServer server_;
};

}  // namespace http
}  // namespace diverse

#endif  // DIVERSE_HTTP_SERVER_H_
