// HTTP front-door tests (src/http/ + obs::ObservabilityHandler): the
// parser's total-decoding contract — every byte sequence maps to exactly
// one of {kOk, kIncomplete, kBad}, every prefix of a valid request is
// kIncomplete, malformed and over-cap input is kBad, and fuzz-style
// corruption never crashes — plus the server loop over real loopback
// sockets (200/400/404/405 routing, oversized targets, survival after a
// bad request) and the endpoint handler's routing, formats, and cluster
// relabeling.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "http/parser.h"
#include "http/server.h"
#include "obs/build_info.h"
#include "obs/http_handler.h"
#include "obs/metric_registry.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace diverse {
namespace http {
namespace {

// ---------------------------------------------------------------------
// Parser: complete requests.

TEST(ParserTest, ParsesAMinimalGet) {
  Request request;
  std::size_t consumed = 0;
  const std::string bytes = "GET / HTTP/1.1\r\nHost: a\r\n\r\n";
  ASSERT_EQ(ParseRequest(bytes, &request, &consumed), ParseStatus::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/");
  EXPECT_EQ(request.path, "/");
  EXPECT_EQ(request.query, "");
  EXPECT_EQ(request.minor_version, 1);
  EXPECT_EQ(consumed, bytes.size());
}

TEST(ParserTest, SplitsPathAndQueryAtTheFirstQuestionMark) {
  Request request;
  std::size_t consumed = 0;
  ASSERT_EQ(ParseRequest("GET /metrics?x=1&y=2?z HTTP/1.0\r\n\r\n", &request,
                         &consumed),
            ParseStatus::kOk);
  EXPECT_EQ(request.target, "/metrics?x=1&y=2?z");
  EXPECT_EQ(request.path, "/metrics");
  EXPECT_EQ(request.query, "x=1&y=2?z");
  EXPECT_EQ(request.minor_version, 0);
}

TEST(ParserTest, LowercasesHeaderNamesAndTrimsValues) {
  Request request;
  std::size_t consumed = 0;
  ASSERT_EQ(ParseRequest(
                "GET / HTTP/1.1\r\nHoSt:   box:80  \r\nX-Empty:\r\n\r\n",
                &request, &consumed),
            ParseStatus::kOk);
  ASSERT_EQ(request.headers.size(), 2u);
  EXPECT_EQ(request.headers[0].first, "host");
  EXPECT_EQ(request.headers[0].second, "box:80");
  EXPECT_EQ(HeaderValue(request, "host"), "box:80");
  EXPECT_EQ(HeaderValue(request, "x-empty"), "");
  EXPECT_EQ(HeaderValue(request, "absent"), "");
}

TEST(ParserTest, ConsumedStopsAtTheHeaderBlockForPipelinedBytes) {
  Request request;
  std::size_t consumed = 0;
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string bytes = first + "GET /b HTTP/1.1\r\n\r\n";
  ASSERT_EQ(ParseRequest(bytes, &request, &consumed), ParseStatus::kOk);
  EXPECT_EQ(consumed, first.size());
  EXPECT_EQ(request.path, "/a");
}

TEST(ParserTest, NonGetMethodsParseSoTheServerCanAnswer405) {
  Request request;
  std::size_t consumed = 0;
  ASSERT_EQ(ParseRequest("DELETE /x HTTP/1.1\r\n\r\n", &request, &consumed),
            ParseStatus::kOk);
  EXPECT_EQ(request.method, "DELETE");
}

TEST(ParserTest, ContentLengthZeroIsTheOnlyBodyDeclarationAllowed) {
  Request request;
  std::size_t consumed = 0;
  EXPECT_EQ(ParseRequest("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                         &request, &consumed),
            ParseStatus::kOk);
  EXPECT_EQ(ParseRequest("GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
                         &request, &consumed),
            ParseStatus::kBad);
  EXPECT_EQ(
      ParseRequest("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                   &request, &consumed),
      ParseStatus::kBad);
}

// ---------------------------------------------------------------------
// Parser: malformed input is kBad, partial input is kIncomplete.

ParseStatus ParseOnly(const std::string& bytes) {
  Request request;
  std::size_t consumed = 0;
  return ParseRequest(bytes, &request, &consumed);
}

TEST(ParserTest, RejectsMalformedRequestLines) {
  EXPECT_EQ(ParseOnly("GET  / HTTP/1.1\r\n\r\n"), ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("GET /\r\n\r\n"), ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("GET / HTTP/2.0\r\n\r\n"), ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("GET / http/1.1\r\n\r\n"), ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("GET / HTTP/1.1 \r\n\r\n"), ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("GET metrics HTTP/1.1\r\n\r\n"), ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("G@T / HTTP/1.1\r\n\r\n"), ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("/ GET HTTP/1.1\r\n\r\n"), ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("\r\nGET / HTTP/1.1\r\n\r\n"), ParseStatus::kBad);
}

TEST(ParserTest, RejectsMalformedHeaders) {
  EXPECT_EQ(ParseOnly("GET / HTTP/1.1\r\nno-colon\r\n\r\n"),
            ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("GET / HTTP/1.1\r\n: empty-name\r\n\r\n"),
            ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("GET / HTTP/1.1\r\nbad name: v\r\n\r\n"),
            ParseStatus::kBad);
  // Bare LF framing never produces a complete request: without a
  // CRLFCRLF terminator the parser keeps reporting kIncomplete until the
  // connection dies at the size cap or read timeout.
  EXPECT_EQ(ParseOnly("GET / HTTP/1.1\nHost: a\n\n"),
            ParseStatus::kIncomplete);
}

TEST(ParserTest, RejectsNulBytesImmediately) {
  std::string bytes = "GET / HTTP/1.1\r\n\r\n";
  bytes[5] = '\0';
  EXPECT_EQ(ParseOnly(bytes), ParseStatus::kBad);
  // Even before the block completes: a NUL never becomes valid later.
  EXPECT_EQ(ParseOnly(std::string("GE\0T", 4)), ParseStatus::kBad);
}

TEST(ParserTest, EnforcesEveryCapAsBadNotPending) {
  EXPECT_EQ(ParseOnly("GET /" + std::string(kMaxTargetBytes, 'a') +
                      " HTTP/1.1\r\n\r\n"),
            ParseStatus::kBad);
  // An over-long request line fails before its terminator ever arrives —
  // a peer cannot buy unbounded buffering by withholding the newline.
  EXPECT_EQ(ParseOnly("GET /" + std::string(kMaxTargetBytes + 128, 'a')),
            ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("GET / HTTP/1.1\r\nh: " +
                      std::string(kMaxHeaderLineBytes, 'v') + "\r\n\r\n"),
            ParseStatus::kBad);
  std::string many = "GET / HTTP/1.1\r\n";
  for (std::size_t i = 0; i <= kMaxHeaderCount; ++i) {
    many.append("h").append(std::to_string(i)).append(": v\r\n");
  }
  EXPECT_EQ(ParseOnly(many + "\r\n"), ParseStatus::kBad);
  EXPECT_EQ(ParseOnly("X" + std::string(kMaxMethodBytes, 'X') +
                      " / HTTP/1.1\r\n\r\n"),
            ParseStatus::kBad);
}

TEST(ParserTest, EveryPrefixOfAValidRequestIsIncompleteNeverOkOrCrash) {
  const std::string requests[] = {
      "GET / HTTP/1.1\r\n\r\n",
      "GET /metrics?debug=1 HTTP/1.0\r\nHost: box:80\r\nAccept: */*\r\n\r\n",
      "HEAD /statusz HTTP/1.1\r\nUser-Agent: probe/1\r\n\r\n",
  };
  for (const std::string& full : requests) {
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const ParseStatus status = ParseOnly(full.substr(0, cut));
      EXPECT_EQ(status, ParseStatus::kIncomplete)
          << "prefix of " << cut << " bytes of: " << full;
    }
    EXPECT_EQ(ParseOnly(full), ParseStatus::kOk);
  }
}

TEST(ParserTest, FuzzedCorruptionNeverCrashesAndNeverHangs) {
  // Deterministic xorshift so a failure reproduces; each round corrupts a
  // valid request at a few positions and parses every prefix of the
  // result. The invariant under test is totality: some status comes back
  // for EVERY input, with no aborts and no reads past the buffer
  // (ASan/UBSan builds check the latter).
  const std::string seed_request =
      "GET /metrics?x=1 HTTP/1.1\r\nHost: box\r\nAccept: text/plain\r\n\r\n";
  std::uint64_t state = 0x243f6a8885a308d3ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 400; ++round) {
    std::string bytes = seed_request;
    const int edits = 1 + static_cast<int>(next() % 4);
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = next() % bytes.size();
      bytes[pos] = static_cast<char>(next() % 256);
    }
    const std::size_t step = 1 + next() % 7;
    for (std::size_t cut = 0; cut <= bytes.size(); cut += step) {
      const ParseStatus status = ParseOnly(bytes.substr(0, cut));
      EXPECT_TRUE(status == ParseStatus::kOk ||
                  status == ParseStatus::kIncomplete ||
                  status == ParseStatus::kBad);
    }
    ParseOnly(bytes);
  }
}

// ---------------------------------------------------------------------
// Server: real loopback sockets.

class EchoPathHandler : public Handler {
 public:
  Response Handle(const Request& request) override {
    Response response;
    if (request.path == "/boom") {
      response.status = 404;
      response.body = "nothing here\n";
    } else {
      response.body = "path=" + request.path + " query=" + request.query +
                      "\n";
    }
    return response;
  }
};

// Sends `bytes` to the server and returns everything read until the
// server closes the connection (every response is Connection: close).
std::string RoundTrip(int port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t sent = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (sent <= 0) break;
    off += static_cast<std::size_t>(sent);
  }
  std::string reply;
  char chunk[2048];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return reply;
}

TEST(HttpServerTest, ServesRoutesErrorsAndSurvivesAbuse) {
  EchoPathHandler handler;
  HttpServer server(&handler, /*port=*/0);
  server.Start();
  const int port = server.port();
  ASSERT_GT(port, 0);

  const std::string ok = RoundTrip(port, "GET /a?b=c HTTP/1.1\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(ok.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(ok.find("path=/a query=b=c"), std::string::npos);

  EXPECT_NE(RoundTrip(port, "GET /boom HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 404 Not Found"),
            std::string::npos);

  const std::string post =
      RoundTrip(port, "POST /a HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos);
  EXPECT_NE(post.find("Allow: GET\r\n"), std::string::npos);

  EXPECT_NE(RoundTrip(port, "total garbage\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);

  // Oversized target: rejected at the request-line cap, well before the
  // 8 KB accumulation limit, and without waiting for CRLF.
  const std::string huge =
      "GET /" + std::string(4096, 'a') + " HTTP/1.1\r\n\r\n";
  EXPECT_NE(RoundTrip(port, huge).find("HTTP/1.1 400"), std::string::npos);

  // NUL injection is also a straight 400.
  std::string nul = "GET / HTTP/1.1\r\n\r\n";
  nul[5] = '\0';
  EXPECT_NE(RoundTrip(port, nul).find("HTTP/1.1 400"), std::string::npos);

  // The server is still healthy after every probe above.
  EXPECT_NE(RoundTrip(port, "GET /after HTTP/1.1\r\n\r\n")
                .find("path=/after"),
            std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, StopWithIdleConnectionDoesNotHang) {
  EchoPathHandler handler;
  HttpServer server(&handler, /*port=*/0);
  server.Start();
  // Open a connection and send nothing; Stop() must shut it down rather
  // than wait out the read timeout.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  server.Stop();
  ::close(fd);
}

}  // namespace
}  // namespace http

// ---------------------------------------------------------------------
// ObservabilityHandler: routing, formats, cluster relabeling.

namespace obs {
namespace {

http::Request Get(const std::string& path) {
  http::Request request;
  request.method = "GET";
  request.target = path;
  request.path = path;
  return request;
}

TEST(ObservabilityHandlerTest, ServesMetricsHealthzStatuszAndIndex) {
  MetricRegistry registry;
  std::vector<MetricRegistry::Registration> registrations;
  RegisterStandardMetrics(&registry, &registrations);
  Counter queries;
  queries.Inc(3);
  auto r = registry.RegisterCounter("diverse_engine_queries_total", &queries);

  ObservabilityHandler::Options options;
  options.registry = &registry;
  options.role = "engine";
  options.corpus_version = [] { return std::uint64_t{7}; };
  options.acked_table = [] {
    return std::vector<std::uint64_t>{5, 7};
  };
  ObservabilityHandler handler(std::move(options));

  const http::Response metrics = handler.Handle(Get("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("diverse_engine_queries_total 3"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("diverse_build_info{"), std::string::npos);

  const http::Response healthz = handler.Handle(Get("/healthz"));
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body.rfind("ok\n", 0), 0u);
  EXPECT_NE(healthz.body.find("role=engine\n"), std::string::npos);
  EXPECT_NE(healthz.body.find("corpus_version=7\n"), std::string::npos);
  EXPECT_NE(healthz.body.find("uptime_seconds="), std::string::npos);

  const http::Response statusz = handler.Handle(Get("/statusz"));
  EXPECT_EQ(statusz.status, 200);
  EXPECT_EQ(statusz.content_type, "application/json");
  EXPECT_NE(statusz.body.find("\"build\":{\"version\":\""),
            std::string::npos);
  EXPECT_NE(statusz.body.find("\"role\":\"engine\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"corpus_version\":7"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"acked\":[5,7]"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"metrics\":{\"counters\":"),
            std::string::npos);

  EXPECT_NE(handler.Handle(Get("/")).body.find("/tracez"),
            std::string::npos);
  EXPECT_EQ(handler.Handle(Get("/nope")).status, 404);
}

TEST(ObservabilityHandlerTest, TracezIs404WithoutABufferAndRendersWithOne) {
  MetricRegistry registry;
  ObservabilityHandler::Options bare;
  bare.registry = &registry;
  ObservabilityHandler no_traces(std::move(bare));
  EXPECT_EQ(no_traces.Handle(Get("/tracez")).status, 404);

  TraceBuffer buffer(8, 2);
  QueryTrace trace;
  const auto now = QueryTrace::Clock::now();
  trace.AddSpan("kernel", now, now);
  buffer.Add(trace, "greedy/single p=3", 0.001, 4);
  ObservabilityHandler::Options options;
  options.registry = &registry;
  options.traces = &buffer;
  ObservabilityHandler handler(std::move(options));
  const http::Response tracez = handler.Handle(Get("/tracez"));
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("greedy/single p=3"), std::string::npos);
  EXPECT_NE(tracez.body.find("kernel"), std::string::npos);
  EXPECT_NE(tracez.body.find("slow-query log"), std::string::npos);
}

TEST(ObservabilityHandlerTest, ReadyzDistinguishesLiveFromReady) {
  MetricRegistry registry;
  bool ready = false;
  ObservabilityHandler::Options options;
  options.registry = &registry;
  options.role = "shard_node";
  options.corpus_version = [] { return std::uint64_t{0}; };
  options.ready = [&ready] { return ready; };
  ObservabilityHandler handler(std::move(options));

  // Bootstrapping: live (200 on /healthz) but not ready (503 on /readyz).
  EXPECT_EQ(handler.Handle(Get("/healthz")).status, 200);
  const http::Response not_ready = handler.Handle(Get("/readyz"));
  EXPECT_EQ(not_ready.status, 503);
  EXPECT_EQ(not_ready.body.rfind("not ready\n", 0), 0u);
  EXPECT_NE(not_ready.body.find("role=shard_node\n"), std::string::npos);

  // First snapshot installed: readiness flips without a restart.
  ready = true;
  const http::Response now_ready = handler.Handle(Get("/readyz"));
  EXPECT_EQ(now_ready.status, 200);
  EXPECT_EQ(now_ready.body.rfind("ready\n", 0), 0u);

  // No probe wired = no not-yet-ready phase: always 200.
  MetricRegistry plain_registry;
  ObservabilityHandler::Options plain;
  plain.registry = &plain_registry;
  ObservabilityHandler always_ready(std::move(plain));
  EXPECT_EQ(always_ready.Handle(Get("/readyz")).status, 200);
  EXPECT_NE(always_ready.Handle(Get("/")).body.find("/readyz"),
            std::string::npos);
}

TEST(ObservabilityHandlerTest, TracezKindReplicationSelectsItsOwnBuffer) {
  MetricRegistry registry;
  TraceBuffer query_traces(8, 2);
  {
    QueryTrace trace;
    const auto now = QueryTrace::Clock::now();
    trace.AddSpan("kernel", now, now);
    query_traces.Add(trace, "greedy/single p=3", 0.001, 4);
  }
  TraceBuffer replication_traces(8, 2);
  {
    QueryTrace trace;
    const auto now = QueryTrace::Clock::now();
    trace.AddSpan("publish.node0", now, now);
    replication_traces.Add(trace, "publish v5", 0.002, 5);
  }

  ObservabilityHandler::Options options;
  options.registry = &registry;
  options.traces = &query_traces;
  options.replication_traces = &replication_traces;
  ObservabilityHandler handler(std::move(options));

  http::Request request = Get("/tracez");
  request.target = "/tracez?kind=replication";
  request.query = "kind=replication";
  const http::Response replication = handler.Handle(request);
  EXPECT_EQ(replication.status, 200);
  EXPECT_NE(replication.body.find("publish v5"), std::string::npos);
  EXPECT_EQ(replication.body.find("greedy/single"), std::string::npos);

  // The default kind still serves the query buffer.
  const http::Response queries = handler.Handle(Get("/tracez"));
  EXPECT_EQ(queries.status, 200);
  EXPECT_NE(queries.body.find("greedy/single p=3"), std::string::npos);
  EXPECT_EQ(queries.body.find("publish v5"), std::string::npos);

  // A process with no replication buffer answers an honest 404 for the
  // replication kind while still serving the query kind.
  MetricRegistry lone_registry;
  ObservabilityHandler::Options lone;
  lone.registry = &lone_registry;
  lone.traces = &query_traces;
  ObservabilityHandler lone_handler(std::move(lone));
  EXPECT_EQ(lone_handler.Handle(request).status, 404);
  EXPECT_EQ(lone_handler.Handle(Get("/tracez")).status, 200);
}

TEST(ObservabilityHandlerTest, ClusterPageRelabelsAndReportsDeadNodes) {
  MetricRegistry registry;
  Counter queries;
  queries.Inc(2);
  auto r = registry.RegisterCounter("diverse_engine_queries_total", &queries);

  ObservabilityHandler::Options options;
  options.registry = &registry;
  options.cluster.push_back(
      {"127.0.0.1:7411", [](std::string* out) {
         *out = "# TYPE diverse_node_queries_total counter\n"
                "diverse_node_queries_total 9\n";
         return true;
       }});
  options.cluster.push_back(
      {"127.0.0.1:7412", [](std::string*) { return false; }});
  ObservabilityHandler handler(std::move(options));

  const http::Response page = handler.Handle(Get("/metrics/cluster"));
  EXPECT_EQ(page.status, 200);
  EXPECT_NE(
      page.body.find("diverse_engine_queries_total{node=\"self\"} 2"),
      std::string::npos);
  EXPECT_NE(page.body.find(
                "diverse_node_queries_total{node=\"127.0.0.1:7411\"} 9"),
            std::string::npos);
  EXPECT_NE(page.body.find("# node 127.0.0.1:7412 unreachable"),
            std::string::npos);

  // No sources configured: the endpoint does not exist.
  MetricRegistry lone_registry;
  ObservabilityHandler::Options lone;
  lone.registry = &lone_registry;
  ObservabilityHandler lone_handler(std::move(lone));
  EXPECT_EQ(lone_handler.Handle(Get("/metrics/cluster")).status, 404);
}

}  // namespace
}  // namespace obs
}  // namespace diverse
