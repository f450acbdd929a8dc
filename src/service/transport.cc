#include "service/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <deque>

#include "common/logging.h"
#include "obs/metrics.h"

namespace dpclustx::service {
namespace {

/// epoll user-data tags. 0 = eventfd wake; [1, kFirstConnId) = listener
/// index + 1; >= kFirstConnId = the connection's ConnId.
constexpr uint64_t kWakeTag = 0;

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + ::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// Canned protocol error sent before closing a connection whose frame
/// exceeded max_frame_bytes. Shaped like ServiceEngine's ErrorResponse so
/// clients need one error decoder; built by hand because the transport
/// layer has no JsonValue dependency.
std::string OversizedFrameError(size_t limit) {
  return std::string(
             "{\"error\":{\"code\":\"InvalidArgument\",\"message\":\"frame "
             "exceeds max_frame_bytes (") +
         std::to_string(limit) + ")\"},\"ok\":false}";
}

/// True when `frame` is an HTTP/1.x GET request line ("GET /path
/// HTTP/1.1", CR already stripped by the framer); extracts the path. The
/// parser is deliberately tiny: scrape endpoints serve GET only, anything
/// else stays a protocol frame.
bool ParseHttpGetLine(const std::string& frame, std::string* path) {
  if (frame.rfind("GET /", 0) != 0) return false;
  const size_t path_begin = 4;
  const size_t path_end = frame.find(' ', path_begin);
  if (path_end == std::string::npos) return false;
  const std::string version = frame.substr(path_end + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return false;
  *path = frame.substr(path_begin, path_end - path_begin);
  return true;
}

const char* HttpReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 503: return "Service Unavailable";
    default: return "Not Found";
  }
}

StatusOr<int> ConnectFd(const ListenAddress& addr) {
  if (addr.kind == ListenAddress::Kind::kUnix) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sa.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     addr.path);
    }
    ::memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Errno("socket(AF_UNIX)");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      const Status s = Errno("connect(" + addr.path + ")");
      ::close(fd);
      return s;
    }
    return fd;
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + addr.host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    const Status s =
        Errno("connect(" + addr.host + ":" + std::to_string(addr.port) + ")");
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

StatusOr<ListenAddress> ParseListenAddress(const std::string& spec) {
  ListenAddress out;
  if (spec.rfind("unix:", 0) == 0) {
    out.kind = ListenAddress::Kind::kUnix;
    out.path = spec.substr(5);
    if (out.path.empty()) {
      return Status::InvalidArgument("unix: address needs a path: " + spec);
    }
    return out;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    out.kind = ListenAddress::Kind::kTcp;
    std::string rest = spec.substr(4);
    std::string port_text = rest;
    const size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
      out.host = rest.substr(0, colon);
      port_text = rest.substr(colon + 1);
      if (out.host.empty()) {
        return Status::InvalidArgument("tcp: address has an empty host: " +
                                       spec);
      }
    }
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("tcp: port must be numeric: " + spec);
    }
    // from_chars reports a value past uint32 as out of range instead of
    // throwing, so any digit string ends here or under the bound below.
    uint32_t port = 0;
    const char* end = port_text.data() + port_text.size();
    const std::from_chars_result parsed =
        std::from_chars(port_text.data(), end, port);
    if (parsed.ec != std::errc() || parsed.ptr != end || port > 65535) {
      return Status::InvalidArgument("tcp: port out of range: " + spec);
    }
    out.port = static_cast<uint16_t>(port);
    return out;
  }
  return Status::InvalidArgument(
      "listen address must be unix:/path or tcp:[host:]port, got: " + spec);
}

struct Transport::Conn {
  ConnId id = 0;
  int fd = -1;
  std::string in;  // partial frame carry-over (event-loop thread only)

  // Outbound state, guarded by conns_mutex_.
  std::deque<std::string> out;  // each entry already newline-terminated
  size_t out_bytes = 0;
  size_t front_offset = 0;  // bytes of out.front() already written

  // Event-loop-thread-only interest state. registered_events is the mask
  // epoll holds for fd (Accept registers EPOLLIN).
  uint32_t registered_events = EPOLLIN;
  bool reading_suspended = false;
  bool close_after_flush = false;

  // HTTP scrape state (event-loop thread only). A connection whose first
  // frame is a GET request line flips into one-shot HTTP mode: header
  // lines are consumed until the blank terminator, then the response is
  // queued and the connection closes after flushing.
  bool saw_any_frame = false;
  bool http_mode = false;
  std::string http_path;
};

struct Transport::Listener {
  int fd = -1;
  ListenAddress addr;
  uint16_t bound_port = 0;  // actual port (kernel-assigned for tcp:0)
};

Transport::Transport(TransportOptions options) : options_(options) {
  DPX_CHECK(options_.write_soft_limit_bytes <= options_.write_hard_limit_bytes)
      << "write_soft_limit_bytes must not exceed write_hard_limit_bytes";
  auto& reg = obs::MetricsRegistry::Default();
  connections_total_ = reg.RegisterCounter(
      "dpclustx_transport_connections_total",
      "Client connections accepted over the socket transport");
  frames_total_ =
      reg.RegisterCounter("dpclustx_transport_frames_total",
                          "Complete request frames received from clients");
  bytes_read_total_ = reg.RegisterCounter(
      "dpclustx_transport_bytes_read_total", "Bytes read from client sockets");
  bytes_written_total_ =
      reg.RegisterCounter("dpclustx_transport_bytes_written_total",
                          "Bytes written to client sockets");
  oversized_frames_total_ = reg.RegisterCounter(
      "dpclustx_transport_oversized_frames_total",
      "Connections closed for exceeding max_frame_bytes in one frame");
  torn_frames_total_ = reg.RegisterCounter(
      "dpclustx_transport_torn_frames_total",
      "Partial frames discarded at connection EOF");
  reads_suspended_total_ = reg.RegisterCounter(
      "dpclustx_transport_reads_suspended_total",
      "Times a connection's reads were paused for write backpressure");
  dropped_responses_total_ = reg.RegisterCounter(
      "dpclustx_transport_dropped_responses_total",
      "Responses dropped because the client connection was gone");
  http_requests_total_ = reg.RegisterCounter(
      "dpclustx_transport_http_requests_total",
      "HTTP scrape requests (GET /metrics, /healthz, /ready) answered");
  active_connections_ =
      reg.RegisterGauge("dpclustx_transport_active_connections",
                        "Currently connected transport clients");
}

Transport::~Transport() { Stop(); }

Status Transport::Listen(const std::string& spec) {
  DPX_CHECK(!running_) << "Listen must precede Start";
  DPX_ASSIGN_OR_RETURN(ListenAddress addr, ParseListenAddress(spec));
  auto listener = std::make_unique<Listener>();
  listener->addr = addr;

  if (addr.kind == ListenAddress::Kind::kUnix) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sa.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     addr.path);
    }
    ::memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Errno("socket(AF_UNIX)");
    listener->fd = fd;
    ::unlink(addr.path.c_str());  // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      const Status s = Errno("bind(" + addr.path + ")");
      ::close(fd);
      return s;
    }
  } else {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(addr.port);
    if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
      return Status::InvalidArgument("not a numeric IPv4 address: " +
                                     addr.host);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Errno("socket(AF_INET)");
    listener->fd = fd;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      const Status s =
          Errno("bind(" + addr.host + ":" + std::to_string(addr.port) + ")");
      ::close(fd);
      return s;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      listener->bound_port = ntohs(bound.sin_port);
    }
  }

  if (::listen(listener->fd, 128) < 0) {
    const Status s = Errno("listen(" + spec + ")");
    ::close(listener->fd);
    return s;
  }
  DPX_RETURN_IF_ERROR(SetNonBlocking(listener->fd));
  listeners_.push_back(std::move(listener));
  return Status::OK();
}

uint16_t Transport::BoundPort(size_t index) const {
  DPX_CHECK(index < listeners_.size()) << "BoundPort index out of range";
  return listeners_[index]->bound_port;
}

void Transport::SetHttpHandler(HttpHandler handler) {
  DPX_CHECK(!running_) << "SetHttpHandler must precede Start";
  http_handler_ = std::move(handler);
}

Status Transport::Start(FrameHandler on_frame) {
  DPX_CHECK(!running_) << "Transport already started";
  DPX_CHECK(!listeners_.empty()) << "Start requires a successful Listen";
  on_frame_ = std::move(on_frame);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const Status s = Errno("eventfd");
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return s;
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Errno("epoll_ctl(wake)");
  }
  for (size_t i = 0; i < listeners_.size(); ++i) {
    ev.events = EPOLLIN;
    ev.data.u64 = i + 1;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listeners_[i]->fd, &ev) < 0) {
      return Errno("epoll_ctl(listener)");
    }
  }

  running_ = true;
  loop_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void Transport::Stop() {
  if (!running_) return;
  running_ = false;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  loop_.join();

  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [id, conn] : conns_) {
      if (!conn->out.empty()) {
        dropped_responses_total_->Increment(conn->out.size());
      }
      ::close(conn->fd);
    }
    conns_.clear();
    active_connections_->Set(0);
  }
  for (auto& listener : listeners_) {
    ::close(listener->fd);
    if (listener->addr.kind == ListenAddress::Kind::kUnix) {
      ::unlink(listener->addr.path.c_str());
    }
  }
  listeners_.clear();
  ::close(wake_fd_);
  wake_fd_ = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
}

bool Transport::Send(ConnId id, const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      dropped_responses_total_->Increment();
      return false;
    }
    Conn& conn = *it->second;
    conn.out.push_back(line + "\n");
    conn.out_bytes += conn.out.back().size();
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  return true;
}

size_t Transport::QueuedBytes(ConnId id) const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  auto it = conns_.find(id);
  return it == conns_.end() ? 0 : it->second->out_bytes;
}

void Transport::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "[transport] epoll_wait: %s\n", ::strerror(errno));
      break;
    }
    bool woke = false;
    for (int i = 0; i < n && running_; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        woke = true;
        continue;
      }
      if (tag < kFirstConnId) {
        Accept(*listeners_[tag - 1]);
        continue;
      }
      Conn* conn = nullptr;
      {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        auto it = conns_.find(tag);
        if (it != conns_.end()) conn = it->second.get();
      }
      if (conn == nullptr) continue;  // closed earlier in this batch
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Flush-then-close still applies on HUP only if writable; treat
        // hard errors as gone.
        CloseConn(tag);
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(*conn);
      // HandleWritable may close; re-check.
      {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        if (conns_.find(tag) == conns_.end()) continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(*conn);
    }
    if (woke && running_) {
      // A Send() (possibly from a worker thread) queued data on some
      // connection; flush opportunistically and fix epoll interest.
      std::vector<ConnId> pending;
      {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        for (auto& [id, conn] : conns_) {
          if (conn->out_bytes > 0 || conn->reading_suspended) {
            pending.push_back(id);
          }
        }
      }
      for (ConnId id : pending) {
        Conn* conn = nullptr;
        {
          std::lock_guard<std::mutex> lock(conns_mutex_);
          auto it = conns_.find(id);
          if (it != conns_.end()) conn = it->second.get();
        }
        if (conn != nullptr) FlushSome(*conn);
      }
    }
  }
}

void Transport::Accept(Listener& listener) {
  while (true) {
    const int fd = ::accept4(listener.fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      std::fprintf(stderr, "[transport] accept: %s\n", ::strerror(errno));
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    if (listener.addr.kind == ListenAddress::Kind::kTcp) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    ConnId id;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      id = next_conn_id_++;
      conn->id = id;
      conns_.emplace(id, std::move(conn));
      active_connections_->Set(static_cast<int64_t>(conns_.size()));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      std::fprintf(stderr, "[transport] epoll_ctl(add): %s\n", ::strerror(errno));
      CloseConn(id);
      continue;
    }
    connections_total_->Increment();
  }
}

void Transport::HandleReadable(Conn& conn) {
  char buf[64 << 10];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_read_total_->Increment(static_cast<uint64_t>(n));
      size_t start = 0;
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] != '\n') continue;
        std::string frame = std::move(conn.in);
        conn.in.clear();
        frame.append(buf + start, static_cast<size_t>(i) - start);
        start = static_cast<size_t>(i) + 1;
        if (!frame.empty() && frame.back() == '\r') frame.pop_back();
        if (frame.size() > options_.max_frame_bytes) {
          oversized_frames_total_->Increment();
          std::lock_guard<std::mutex> lock(conns_mutex_);
          conn.out.push_back(OversizedFrameError(options_.max_frame_bytes) +
                             "\n");
          conn.out_bytes += conn.out.back().size();
          conn.close_after_flush = true;
          conn.reading_suspended = true;
          UpdateInterest(conn);
          return;
        }
        if (conn.http_mode) {
          // Request headers are consumed (responding before reading them
          // risks a TCP RST discarding the queued response); the blank
          // terminator line completes the request.
          if (!frame.empty()) continue;
          QueueHttpResponse(conn);
          return;
        }
        if (frame.empty()) continue;  // blank keep-alive lines are legal
        const bool first_frame = !conn.saw_any_frame;
        conn.saw_any_frame = true;
        if (first_frame && ParseHttpGetLine(frame, &conn.http_path)) {
          conn.http_mode = true;
          continue;
        }
        frames_total_->Increment();
        on_frame_(conn.id, std::move(frame));
        // The handler may have queued responses or shed; re-check that the
        // connection still exists (handlers never close, but stay safe).
      }
      conn.in.append(buf + start, static_cast<size_t>(n) - start);
      if (conn.in.size() > options_.max_frame_bytes) {
        oversized_frames_total_->Increment();
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conn.out.push_back(OversizedFrameError(options_.max_frame_bytes) +
                           "\n");
        conn.out_bytes += conn.out.back().size();
        conn.close_after_flush = true;
        conn.reading_suspended = true;
        conn.in.clear();
        UpdateInterest(conn);
        return;
      }
      // Backpressure: a reader slower than its own request stream gets its
      // reads paused until the response queue drains (see FlushSome).
      {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        if (conn.out_bytes > options_.write_soft_limit_bytes &&
            !conn.reading_suspended) {
          conn.reading_suspended = true;
          reads_suspended_total_->Increment();
          UpdateInterest(conn);
          return;
        }
      }
      if (static_cast<size_t>(n) < sizeof(buf)) {
        // Probable EAGAIN next; flush what the handler queued, then wait.
        break;
      }
      continue;
    }
    if (n == 0) {
      if (!conn.in.empty()) torn_frames_total_->Increment();
      CloseConn(conn.id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn.id);
    return;
  }
  FlushSome(conn);
}

void Transport::QueueHttpResponse(Conn& conn) {
  HttpResponse response;
  if (http_handler_) {
    response = http_handler_(conn.http_path);
  } else {
    response.status = 404;
    response.body = "no scrape handler installed\n";
  }
  http_requests_total_->Increment();
  std::string payload = "HTTP/1.1 " + std::to_string(response.status) + " " +
                        HttpReason(response.status) +
                        "\r\nContent-Type: " + response.content_type +
                        "\r\nContent-Length: " +
                        std::to_string(response.body.size()) +
                        "\r\nConnection: close\r\n\r\n" + response.body;
  std::lock_guard<std::mutex> lock(conns_mutex_);
  conn.out.push_back(std::move(payload));
  conn.out_bytes += conn.out.back().size();
  conn.close_after_flush = true;
  conn.reading_suspended = true;
  UpdateInterest(conn);
}

void Transport::HandleWritable(Conn& conn) { FlushSome(conn); }

void Transport::FlushSome(Conn& conn) {
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    while (!conn.out.empty()) {
      const std::string& front = conn.out.front();
      const ssize_t n = ::write(conn.fd, front.data() + conn.front_offset,
                                front.size() - conn.front_offset);
      if (n > 0) {
        bytes_written_total_->Increment(static_cast<uint64_t>(n));
        conn.front_offset += static_cast<size_t>(n);
        conn.out_bytes -= static_cast<size_t>(n);
        if (conn.front_offset == front.size()) {
          conn.out.pop_front();
          conn.front_offset = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_now = true;  // EPIPE / reset: peer is gone
      if (!conn.out.empty()) {
        dropped_responses_total_->Increment(conn.out.size());
        conn.out.clear();
        conn.out_bytes = 0;
        conn.front_offset = 0;
      }
      break;
    }
    if (!close_now) {
      if (conn.out.empty() && conn.close_after_flush) {
        close_now = true;
      } else {
        // Resume reading once the backlog has genuinely drained.
        if (conn.reading_suspended && !conn.close_after_flush &&
            conn.out_bytes < options_.write_soft_limit_bytes / 2) {
          conn.reading_suspended = false;
        }
        UpdateInterest(conn);
      }
    }
  }
  if (close_now) CloseConn(conn.id);
}

void Transport::UpdateInterest(Conn& conn) {
  // Caller holds conns_mutex_; epoll_ctl on a live fd is safe regardless.
  uint32_t events = 0;
  if (!conn.reading_suspended) events |= EPOLLIN;
  if (conn.out_bytes > 0) events |= EPOLLOUT;
  if (events == conn.registered_events) return;  // nothing to change
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) < 0) {
    std::fprintf(stderr, "[transport] epoll_ctl(mod): %s\n", ::strerror(errno));
    return;
  }
  conn.registered_events = events;
}

void Transport::CloseConn(ConnId id) {
  std::unique_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = std::move(it->second);
    conns_.erase(it);
    active_connections_->Set(static_cast<int64_t>(conns_.size()));
    if (!conn->out.empty()) {
      dropped_responses_total_->Increment(conn->out.size());
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
}

StatusOr<std::unique_ptr<ClientChannel>> ClientChannel::Connect(
    const std::string& spec) {
  DPX_ASSIGN_OR_RETURN(ListenAddress addr, ParseListenAddress(spec));
  DPX_ASSIGN_OR_RETURN(int fd, ConnectFd(addr));
  return std::unique_ptr<ClientChannel>(new ClientChannel(fd));
}

ClientChannel::~ClientChannel() {
  if (fd_ >= 0) ::close(fd_);
}

Status ClientChannel::SendLine(const std::string& line) {
  std::string framed = line + "\n";
  size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::write(fd_, framed.data() + off, framed.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("write");
  }
  return Status::OK();
}

StatusOr<std::string> ClientChannel::RecvLine(int timeout_ms) {
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (timeout_ms >= 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int r = ::poll(&pfd, 1, timeout_ms);
      if (r < 0 && errno != EINTR) return Errno("poll");
      if (r == 0) return Status::DeadlineExceeded("RecvLine timed out");
      if (r < 0) continue;  // EINTR
    }
    char buf[16 << 10];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IoError("connection closed by server");
    if (errno == EINTR) continue;
    return Errno("read");
  }
}

StatusOr<std::string> HttpGet(const std::string& spec,
                              const std::string& path) {
  constexpr int kTimeoutMs = 30000;
  DPX_ASSIGN_OR_RETURN(std::unique_ptr<ClientChannel> channel,
                       ClientChannel::Connect(spec));
  // The framer accepts bare LF line ends, so the request is two lines.
  DPX_RETURN_IF_ERROR(channel->SendLine("GET " + path + " HTTP/1.0"));
  DPX_RETURN_IF_ERROR(channel->SendLine(""));
  DPX_ASSIGN_OR_RETURN(const std::string status_line,
                       channel->RecvLine(kTimeoutMs));
  if (status_line.rfind("HTTP/1.1 200 ", 0) != 0) {
    return Status::FailedPrecondition("GET " + path + ": " + status_line);
  }
  for (;;) {  // headers, up to the blank line
    DPX_ASSIGN_OR_RETURN(const std::string header,
                         channel->RecvLine(kTimeoutMs));
    if (header.empty()) break;
  }
  std::string body;
  for (;;) {  // the server closes the connection after the body
    StatusOr<std::string> line = channel->RecvLine(kTimeoutMs);
    if (!line.ok()) {
      if (line.status().code() == StatusCode::kIoError) return body;
      return line.status();
    }
    body += *line + "\n";
  }
}

}  // namespace dpclustx::service
