#include "obs/http_export.hpp"

#include <cctype>
#include <stdexcept>
#include <utility>

namespace dcs::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default:  return "Internal Server Error";
  }
}

std::string render_response(const HttpResponse& response) {
  std::string out;
  out.reserve(response.body.size() + 160);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += " ";
  out += status_text(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  for (const auto& [name, value] : response.extra_headers) {
    out += "\r\n";
    out += name;
    out += ": ";
    out += value;
  }
  // Content-Length and Connection: close go on EVERY response, error
  // responses included — a client must never have to wait for EOF to know
  // the body ended, and must never reuse the connection.
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpResponse error_response(int status, std::string_view detail) {
  HttpResponse response;
  response.status = status;
  response.content_type = "text/plain; charset=utf-8";
  response.body = std::string(status_text(status)) + ": " +
                  std::string(detail) + "\n";
  if (status == 405) response.extra_headers.emplace_back("Allow", "GET");
  return response;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string url_decode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < text.size()) {
      const int hi = hex_digit(text[i + 1]);
      const int lo = hex_digit(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
      } else {
        out += c;  // malformed escape: keep verbatim
      }
    } else {
      out += c;
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_query_params(
    std::string_view query) {
  std::vector<std::pair<std::string, std::string>> params;
  std::size_t start = 0;
  while (start <= query.size()) {
    std::size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view piece = query.substr(start, end - start);
    if (!piece.empty()) {
      const std::size_t eq = piece.find('=');
      if (eq == std::string_view::npos)
        params.emplace_back(url_decode(piece), std::string());
      else
        params.emplace_back(url_decode(piece.substr(0, eq)),
                            url_decode(piece.substr(eq + 1)));
    }
    if (end == query.size()) break;
    start = end + 1;
  }
  return params;
}

OpsMetrics& OpsMetrics::get() {
  static OpsMetrics* instance = [] {
    auto& registry = Registry::global();
    return new OpsMetrics{
        registry.counter("dcs_ops_requests_total",
                         "HTTP requests served by the embedded ops server"),
        registry.counter("dcs_ops_request_errors_total",
                         "Ops-server requests answered with a non-200 "
                         "status or dropped as malformed"),
    };
  }();
  return *instance;
}

HttpServer::HttpServer(HttpServerConfig config)
    : config_(std::move(config)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(std::string path, HttpHandler handler) {
  routes_[std::move(path)] =
      [handler = std::move(handler)](const HttpRequest&) { return handler(); };
}

void HttpServer::route(std::string path, HttpRequestHandler handler) {
  routes_[std::move(path)] = std::move(handler);
}

void HttpServer::start() {
  if (running_.load()) return;
  auto listener =
      service::TcpListener::listen(config_.bind_address, config_.port);
  if (!listener)
    throw std::runtime_error("http_export: cannot bind " +
                             config_.bind_address + ":" +
                             std::to_string(config_.port));
  listener_ = std::move(*listener);
  port_ = listener_.port();
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  // Join before closing: serve_loop reads the listener fd until it sees
  // running_ false, which its 100 ms accept poll bounds. Closing first would
  // race that read and free the fd number for reuse under it.
  if (thread_.joinable()) thread_.join();
  listener_.close();
}

void HttpServer::serve_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    auto socket = listener_.accept(/*timeout_ms=*/100);
    if (!socket) continue;
    handle_connection(std::move(*socket));
  }
}

void HttpServer::handle_connection(service::TcpSocket socket) {
  auto& metrics = OpsMetrics::get();
  metrics.requests.inc();
  socket.set_timeouts(static_cast<std::uint64_t>(config_.io_timeout_ms),
                      static_cast<std::uint64_t>(config_.io_timeout_ms));

  // Read until the end of the header block; the ops plane never accepts
  // request bodies, so CRLFCRLF terminates everything we care about.
  std::string request;
  char buffer[2048];
  while (request.find("\r\n\r\n") == std::string::npos) {
    if (request.size() >= config_.max_request_bytes) {
      metrics.request_errors.inc();
      socket.send_all(render_response(
          error_response(400, "request headers too large")));
      return;
    }
    const auto got = socket.recv_some(buffer, sizeof buffer);
    if (got.bytes == 0) {  // EOF, timeout or reset before a full request
      metrics.request_errors.inc();
      return;
    }
    request.append(buffer, got.bytes);
  }

  // Request line: METHOD SP target SP version.
  const std::size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  const std::size_t method_end = line.find(' ');
  const std::size_t target_end =
      method_end == std::string::npos ? std::string::npos
                                      : line.find(' ', method_end + 1);
  if (method_end == std::string::npos || target_end == std::string::npos) {
    metrics.request_errors.inc();
    socket.send_all(render_response(
        error_response(400, "malformed request line")));
    return;
  }
  HttpRequest parsed;
  parsed.method = line.substr(0, method_end);
  parsed.target = line.substr(method_end + 1, target_end - method_end - 1);
  if (const std::size_t query = parsed.target.find('?');
      query != std::string::npos) {
    parsed.query_string = parsed.target.substr(query + 1);
    parsed.target.resize(query);
    parsed.params = parse_query_params(parsed.query_string);
  }

  HttpResponse response;
  if (parsed.method != "GET") {
    response = error_response(405, "only GET is supported");
  } else if (const auto it = routes_.find(parsed.target);
             it == routes_.end()) {
    response = error_response(404, "no such endpoint: " + parsed.target);
  } else {
    try {
      response = it->second(parsed);
    } catch (const std::exception& error) {
      response = error_response(500, error.what());
    }
  }
  if (response.status != 200) metrics.request_errors.inc();
  socket.send_all(render_response(response));
}

}  // namespace dcs::obs
