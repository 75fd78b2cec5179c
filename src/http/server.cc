#include "http/server.h"

#include <cstddef>
#include <string>

namespace diverse {
namespace http {
namespace {

void WriteResponse(int fd, const Response& response,
                   const std::string& extra_headers = "") {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += extra_headers;
  out += "Connection: close\r\n\r\n";
  out += response.body;
  net::SendFull(fd, out.data(), out.size());
}

Response SimpleResponse(int status, const std::string& body) {
  Response response;
  response.status = status;
  response.body = body + "\n";
  return response;
}

}  // namespace

std::string StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 414: return "URI Too Long";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpServer::HttpServer(Handler* handler, int port)
    : handler_(handler),
      server_(
          port, [this](int fd) { ServeConnection(fd); },
          [](int fd) {
            WriteResponse(fd, SimpleResponse(503, "over connection limit"),
                          "Retry-After: 1\r\n");
          }) {}

void HttpServer::ServeConnection(int client_fd) {
  std::string buffer;
  Request request;
  std::size_t consumed = 0;
  ParseStatus status = ParseStatus::kIncomplete;
  char chunk[2048];
  // Accumulation is bounded: the parser reports kBad once the buffer
  // passes kMaxRequestBytes without completing a request, and the whole
  // request must arrive within the layer's deadline.
  const net::Clock::time_point deadline = net::DeadlineIn(net::kIoTimeoutMs);
  while (buffer.size() <= kMaxRequestBytes) {
    status = ParseRequest(buffer, &request, &consumed);
    if (status != ParseStatus::kIncomplete) break;
    const std::size_t got =
        net::RecvSome(client_fd, chunk, sizeof(chunk), deadline);
    if (got == 0) return;  // EOF, deadline, or Stop()'s shutdown
    buffer.append(chunk, got);
  }

  if (status == ParseStatus::kOk) {
    if (request.method != "GET") {
      WriteResponse(client_fd,
                    SimpleResponse(405, "only GET is served here"),
                    "Allow: GET\r\n");
    } else {
      WriteResponse(client_fd, handler_->Handle(request));
    }
  } else {
    WriteResponse(client_fd, SimpleResponse(400, "malformed request"));
  }
}

}  // namespace http
}  // namespace diverse
