// The router fleet under test: spawn, readiness, /proc inspection, HTTP
// scrapes of the workers' listeners, and Prometheus text parsing.

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/metrics.h"
#include "service/transport.h"

namespace perfbench {

namespace {

/// True when nothing listens on 127.0.0.1:port (a bind succeeds).
bool PortFree(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool free =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return free;
}

/// A base port with `count` consecutive free ports, probed from a
/// pid-dependent start so concurrent runs rarely collide.
StatusOr<uint16_t> FreePortRange(size_t count) {
  for (uint32_t attempt = 0; attempt < 200; ++attempt) {
    const auto base = static_cast<uint16_t>(
        20000 + (static_cast<uint32_t>(::getpid()) * 7 + attempt * 13) %
                    30000);
    bool ok = true;
    for (size_t i = 0; i < count && ok; ++i) {
      ok = PortFree(static_cast<uint16_t>(base + i));
    }
    if (ok) return base;
  }
  return Status::IoError("no free localhost port range for the workers");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double VmHwmKb(pid_t pid) {
  std::istringstream status(ReadFile("/proc/" + std::to_string(pid) +
                                     "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0.0;
}

}  // namespace

StatusOr<std::unique_ptr<Fleet>> Fleet::Start(const std::string& router_bin,
                                              const std::string& serve_bin,
                                              const std::string& state_dir,
                                              size_t workers) {
  DPX_ASSIGN_OR_RETURN(const uint16_t base_port, FreePortRange(workers));
  std::unique_ptr<Fleet> fleet(new Fleet());
  fleet->workers_ = workers;
  fleet->base_port_ = base_port;
  const std::string socket_path = state_dir + "/router.sock";
  fleet->socket_spec_ = "unix:" + socket_path;
  const std::vector<std::string> args = {
      router_bin,     "--workers",    std::to_string(workers),
      "--serve",      serve_bin,      "--state-dir",
      state_dir,      "--listen",     fleet->socket_spec_,
      "--worker-listen-base",         std::to_string(base_port)};

  int to_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  fleet->started_ = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(to_child[0]);
  fleet->pid_ = pid;
  fleet->stdin_fd_ = to_child[1];

  // Ready = the router socket accepts and every worker answers /ready.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      fleet->pid_ = -1;
      return Status::IoError("router exited during startup");
    }
    bool ready = ::access(socket_path.c_str(), F_OK) == 0 &&
                 dpclustx::service::ClientChannel::Connect(fleet->socket_spec_)
                     .ok();
    for (size_t w = 0; w < workers && ready; ++w) {
      StatusOr<std::string> body = HttpGet(fleet->worker_port(w), "/ready");
      ready = body.ok() && body->rfind("ready", 0) == 0;
    }
    if (ready) return fleet;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::DeadlineExceeded("fleet not ready within 30 s");
}

Fleet::~Fleet() {
  const Status stopped = Stop();
  if (!stopped.ok()) std::fprintf(stderr, "fleet stop: %s\n",
                                  stopped.ToString().c_str());
}

Status Fleet::Stop() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (pid_ <= 0) return Status::OK();
  // The router drains, closes its workers' stdin and reaps them. Bound the
  // wait; a wedged fleet is killed so the run still ends.
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      for (const pid_t p : Pids()) ::kill(p, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return Status::DeadlineExceeded("router did not exit; killed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("router exited abnormally (status " +
                            std::to_string(status) + ")");
  }
  return Status::OK();
}

std::string Fleet::worker_spec(size_t shard) const {
  return "tcp:127.0.0.1:" + std::to_string(worker_port(shard));
}

std::vector<pid_t> Fleet::Pids() const {
  std::vector<pid_t> pids;
  if (pid_ <= 0) return pids;
  pids.push_back(pid_);
  const std::string task_dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return pids;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::istringstream children(
        ReadFile(task_dir + "/" + entry->d_name + "/children"));
    pid_t child = 0;
    while (children >> child) pids.push_back(child);
  }
  ::closedir(dir);
  return pids;
}

double Fleet::PeakRssMb() const {
  double kb = 0.0;
  for (const pid_t p : Pids()) kb += VmHwmKb(p);
  return kb / 1024.0;
}

StatusOr<std::string> HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("connect to port " + std::to_string(port) +
                               " failed");
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return Status::IoError("short HTTP send");
  }
  std::string response;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      response.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::IoError("truncated HTTP response from port " +
                           std::to_string(port));
  }
  if (response.rfind("HTTP/1.1 200", 0) != 0) {
    return Status::IoError(response.substr(0, response.find("\r\n")));
  }
  return response.substr(header_end + 4);
}

StatusOr<Scrape> ParseScrape(const std::string& text) {
  constexpr auto& kBounds = dpclustx::obs::LatencyHistogram::kBucketBoundsMicros;
  Scrape scrape;
  std::map<std::string, std::vector<double>> cumulative;
  std::istringstream in(text);
  std::string line;
  const std::string bucket_prefix = "dpclustx_op_latency_micros_bucket{op=\"";
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) return Status::InvalidArgument(line);
    const std::string key = line.substr(0, space);
    const double value = std::stod(line.substr(space + 1));
    if (key.rfind(bucket_prefix, 0) == 0) {
      const size_t op_end = key.find('"', bucket_prefix.size());
      const std::string op = key.substr(bucket_prefix.size(),
                                        op_end - bucket_prefix.size());
      cumulative[op].push_back(value);
    } else if (key.find('{') == std::string::npos) {
      scrape.counters[key] = value;
    }
  }
  for (auto& [op, cum] : cumulative) {
    if (cum.size() != kBounds.size() + 1) {
      return Status::InvalidArgument("op " + op + " has " +
                                     std::to_string(cum.size()) + " buckets");
    }
    std::vector<double> buckets(cum.size());
    for (size_t b = 0; b < cum.size(); ++b) {
      buckets[b] = cum[b] - (b > 0 ? cum[b - 1] : 0.0);
    }
    scrape.op_buckets[op] = std::move(buckets);
  }
  return scrape;
}

double BucketQuantile(const std::vector<double>& buckets, double q) {
  constexpr auto& kBounds = dpclustx::obs::LatencyHistogram::kBucketBoundsMicros;
  double total = 0.0;
  for (const double b : buckets) total += b;
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double seen = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] > 0.0 && seen + buckets[b] >= rank) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(kBounds[b - 1]);
      const double hi = b < kBounds.size() ? static_cast<double>(kBounds[b])
                                           : lo * 2.0;
      return lo + (hi - lo) * (rank - seen) / buckets[b];
    }
    seen += buckets[b];
  }
  return static_cast<double>(kBounds.back());
}

HostCpu ReadHostCpu() {
  // /proc/stat "cpu" line: user nice system idle iowait irq softirq steal.
  std::istringstream in(ReadFile("/proc/stat"));
  std::string label;
  HostCpu cpu;
  double field = 0.0;
  in >> label;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    cpu.total += field;
    if (i == 7) cpu.steal = field;
  }
  return cpu;
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
