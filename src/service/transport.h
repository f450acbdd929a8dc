// Socket transport for the front door dpclustx_router and dpclustx_serve
// share (service/front_door.h): a Unix-domain-socket / TCP listener
// behind one epoll event loop that accepts many concurrent clients and
// frames the existing newline-delimited JSON protocol, with bounded
// per-connection buffers and explicit backpressure.
//
// Model:
//
//   clients ──connect──▶ Transport (one epoll thread)
//                           │  OnFrame(conn, line)   [event-loop thread]
//                           ▼
//                        front door (router / serve) ──▶ workers / engine
//                           │
//                        Send(conn, line)             [any thread]
//
// Framing: one request per '\n'-terminated line, mirroring the stdin
// protocol byte for byte — the same scripted session works over a pipe,
// a Unix socket, or TCP. A connection whose partial frame exceeds
// max_frame_bytes is answered with a structured error and closed (framing
// cannot be resynchronized after an oversized frame); a partial frame at
// EOF ("torn") is dropped and counted. Both are strictly per-connection:
// other clients never notice.
//
// Backpressure (DESIGN.md §14): every connection has a byte-bounded
// response queue. Above write_soft_limit_bytes the transport stops
// *reading* that connection (EPOLLIN off) until the queue drains below
// half the soft limit — a slow reader throttles itself, not the server.
// The hard limit is the caller's shed line: front doors check
// QueuedBytes() when a frame arrives and answer with ResourceExhausted +
// retry_after_ms instead of doing work whose response would have to queue
// behind an unbounded backlog. Responses already owed are never dropped
// while the connection lives (the queue is unbounded between the caller's
// shed checks — bounded in practice by hard limit + one in-flight
// response per worker).
//
// Threading: OnFrame runs on the event-loop thread (handlers must be
// quick: classify + hand off). Send() is thread-safe and wakes the loop
// through an eventfd; worker completion threads call it directly. Send to
// a connection that has closed returns false and the response is counted
// dropped (dpclustx_transport_dropped_responses_total).
//
// Addresses: "unix:/path/to.sock" (the path is unlinked before bind) and
// "tcp:PORT" / "tcp:HOST:PORT" (numeric host, default 127.0.0.1 — bind a
// public address explicitly when you mean it).
//
// ClientChannel is the matching blocking client (used by dpclustx_cli
// --connect, dpclustx_repl --connect, the load driver, and tests).

#ifndef DPCLUSTX_SERVICE_TRANSPORT_H_
#define DPCLUSTX_SERVICE_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace dpclustx::obs {
class Counter;
class Gauge;
}  // namespace dpclustx::obs

namespace dpclustx::service {

/// A parsed --listen / --connect address.
struct ListenAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;              // kUnix: filesystem socket path
  std::string host = "127.0.0.1";  // kTcp: numeric IPv4 address
  uint16_t port = 0;             // kTcp
};

/// Parses "unix:/path", "tcp:PORT", or "tcp:HOST:PORT".
StatusOr<ListenAddress> ParseListenAddress(const std::string& spec);

struct TransportOptions {
  /// A single frame (one protocol line, newline excluded) may not exceed
  /// this; matches the engine's max_request_bytes default.
  size_t max_frame_bytes = 1u << 20;
  /// Reading a connection is suspended while its response queue holds more
  /// than this many bytes, and resumed below half of it.
  size_t write_soft_limit_bytes = 256u << 10;
  /// Advisory shed threshold for callers (see QueuedBytes); the transport
  /// itself never drops a queued response.
  size_t write_hard_limit_bytes = 4u << 20;
};

/// Connection identity, unique for the lifetime of a Transport. Ids below
/// kFirstConnId tag the event loop's own descriptors (wake fd, listeners).
using ConnId = uint64_t;
inline constexpr ConnId kFirstConnId = 1u << 10;

/// Body of a scrape-endpoint response (see Transport::SetHttpHandler).
struct HttpResponse {
  int status = 200;  // 200, 404, or 503
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class Transport {
 public:
  /// `on_frame` is invoked on the event-loop thread for every complete
  /// line received (newline stripped, never empty).
  using FrameHandler = std::function<void(ConnId, std::string&&)>;

  /// Invoked on the event-loop thread with the request path of an HTTP
  /// GET received on any listener (see SetHttpHandler). Must be quick —
  /// it blocks the loop, exactly like a frame handler.
  using HttpHandler = std::function<HttpResponse(const std::string& path)>;

  explicit Transport(TransportOptions options = {});
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Binds and listens on `spec` ("unix:/path" / "tcp:PORT"); call before
  /// Start, any number of times (a router can listen on both). For
  /// "tcp:0" the kernel picks a port — read it back via BoundPort().
  Status Listen(const std::string& spec);

  /// Port of the `index`-th successful Listen (0 for unix listeners).
  uint16_t BoundPort(size_t index) const;

  /// Installs the scrape handler; call before Start. A connection whose
  /// FIRST frame is an HTTP/1.x GET request line ("GET /metrics HTTP/1.1")
  /// switches into one-shot HTTP mode: the remaining request headers are
  /// consumed up to the blank terminator line, the handler's response is
  /// written with Connection: close, and the connection closes once it
  /// flushes — so a stock Prometheus scrapes the same --listen address the
  /// line protocol serves, with no sidecar and no separate port. Without a
  /// handler every path answers 404. JSON-protocol clients are unaffected:
  /// their first frame starts with '{', never "GET ".
  void SetHttpHandler(HttpHandler handler);

  /// Starts the event loop. Listen must have succeeded at least once.
  Status Start(FrameHandler on_frame);

  /// Stops the loop, closes every connection and listener, joins.
  /// Queued responses not yet flushed are dropped (and counted).
  void Stop();

  /// Thread-safe. Queues `line` (+'\n') for `conn` and wakes the loop.
  /// False when the connection is gone — the caller's response is dropped
  /// and counted; nothing else to do.
  bool Send(ConnId conn, const std::string& line);

  /// Thread-safe: bytes currently queued toward `conn` (0 when gone).
  /// Front doors compare this against write_hard_limit_bytes to shed.
  size_t QueuedBytes(ConnId conn) const;

  const TransportOptions& options() const { return options_; }

 private:
  struct Conn;
  struct Listener;

  void EventLoop();
  void Accept(Listener& listener);
  void HandleReadable(Conn& conn);
  void QueueHttpResponse(Conn& conn);  // headers consumed; answer + close
  void HandleWritable(Conn& conn);
  void FlushSome(Conn& conn);     // one non-blocking write burst
  void UpdateInterest(Conn& conn);
  void CloseConn(ConnId id);

  TransportOptions options_;
  FrameHandler on_frame_;
  HttpHandler http_handler_;  // set before Start; event-loop thread reads

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::vector<std::unique_ptr<Listener>> listeners_;

  mutable std::mutex conns_mutex_;  // guards conns_ map + per-conn out state
  std::map<ConnId, std::unique_ptr<Conn>> conns_;
  ConnId next_conn_id_ = kFirstConnId;

  std::thread loop_;
  // Written by Start()/Stop() on the owner thread, read by EventLoop();
  // atomic so the loop observes Stop() without taking conns_mutex_.
  std::atomic<bool> running_{false};

  // Metrics (process registry; names in DESIGN.md §14).
  obs::Counter* connections_total_ = nullptr;
  obs::Counter* frames_total_ = nullptr;
  obs::Counter* bytes_read_total_ = nullptr;
  obs::Counter* bytes_written_total_ = nullptr;
  obs::Counter* oversized_frames_total_ = nullptr;
  obs::Counter* torn_frames_total_ = nullptr;
  obs::Counter* reads_suspended_total_ = nullptr;
  obs::Counter* dropped_responses_total_ = nullptr;
  obs::Counter* http_requests_total_ = nullptr;
  obs::Gauge* active_connections_ = nullptr;
};

/// Blocking line-protocol client for Transport servers. Not thread-safe;
/// use one channel per client thread.
class ClientChannel {
 public:
  /// Connects to "unix:/path" / "tcp:PORT" / "tcp:HOST:PORT".
  static StatusOr<std::unique_ptr<ClientChannel>> Connect(
      const std::string& spec);

  ~ClientChannel();
  ClientChannel(const ClientChannel&) = delete;
  ClientChannel& operator=(const ClientChannel&) = delete;

  /// Writes `line` + '\n'. IoError when the server hung up.
  Status SendLine(const std::string& line);

  /// Next complete line (newline stripped). Blocks up to `timeout_ms`
  /// (-1 = forever): DeadlineExceeded on timeout, IoError on EOF.
  StatusOr<std::string> RecvLine(int timeout_ms = -1);

  /// Raw fd, for callers that multiplex with poll (the load driver).
  int fd() const { return fd_; }

 private:
  explicit ClientChannel(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buffer_;
};

/// Body of a one-shot HTTP GET of `path` from a Transport listener ("unix:"
/// or "tcp:" spec; every listener answers HTTP). A status other than 200
/// is FailedPrecondition carrying the status line.
StatusOr<std::string> HttpGet(const std::string& spec,
                              const std::string& path);

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_TRANSPORT_H_
