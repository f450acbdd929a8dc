// dpclustx_router — sharded multi-worker front door for dpclustx_serve.
//
// Speaks the same JSON line protocol as dpclustx_serve on stdin/stdout and
// on every --listen socket, but behind it supervises N shard workers (each
// a dpclustx_serve child with its own snapshot + audit journal under
// --state-dir) and optionally R read-only replicas per shard. The routing,
// relay, tracing, telemetry and health/respawn logic is the Router library
// (src/service/router.h); the sockets, scrape endpoints and shedding are
// the front door it shares with dpclustx_serve (src/service/front_door.h).
// This file is flag parsing; kUsage below is the flag reference.

#include <signal.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "service/front_door.h"
#include "service/router.h"

namespace {

using dpclustx::ParseSizeFlag;
using dpclustx::ParseStringFlag;

/// Back-off hint on requests shed past a client's hard write limit.
constexpr int64_t kShedRetryAfterMs = 100;

constexpr const char kUsage[] =
    "usage: dpclustx_router [flags] [-- WORKER_FLAGS...]\n"
    "\n"
    "  --listen SPEC            accept clients on unix:/path or\n"
    "                           tcp:[host:]port (repeatable); the same\n"
    "                           socket answers HTTP GET /metrics, /healthz,\n"
    "                           /ready\n"
    "  --verify-relay           cross-check spliced responses against the\n"
    "                           full-parse path (aborts on drift)\n"
    "  --slow-request-ms N      structured slow-log line to stderr for any\n"
    "                           request slower than N ms (default 0 = off)\n"
    "  --worker-listen-base P   per-worker tcp scrape listener on\n"
    "                           127.0.0.1:(P + worker index) (default 0 = "
    "off)\n"
    "  --workers N              shard workers (default 2)\n"
    "  --replicas R             read-only replicas per shard (default 0)\n"
    "  --serve BIN              dpclustx_serve binary (default: next to this\n"
    "                           executable)\n"
    "  --state-dir DIR          shard snapshot/journal directory (default .)\n"
    "  --health-interval-ms N   ping period (default 1000)\n"
    "  --health-deadline-ms N   ping response deadline (default 2000)\n"
    "  --health-misses N        consecutive misses before respawn (default 3)\n"
    "  --version                print build provenance and exit\n"
    "  --help                   print this flag table and exit\n"
    "  -- FLAGS...              appended to every worker's command line\n"
    "                           (e.g. `-- --sync` for scripted sessions: the\n"
    "                           protocol is pipelined, so without --sync two\n"
    "                           requests to one shard may be served out of\n"
    "                           order)\n";

std::string DefaultServeBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "dpclustx_serve";
  const std::string path(buf, static_cast<size_t>(n));
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "dpclustx_serve";
  return path.substr(0, slash) + "/dpclustx_serve";
}

}  // namespace

int main(int argc, char** argv) {
  dpclustx::service::RouterOptions options;
  options.serve_bin = DefaultServeBinary();
  std::vector<std::string> listen_specs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      options.worker_args.assign(argv + i + 1, argv + argc);
      break;
    }
    std::string listen_spec;
    if (ParseStringFlag(argc, argv, &i, "--listen", &listen_spec)) {
      listen_specs.push_back(listen_spec);
      continue;
    }
    if (std::strcmp(argv[i], "--verify-relay") == 0) {
      options.verify_relay = true;
      continue;
    }
    if (ParseSizeFlag(argc, argv, &i, "--workers", &options.workers) ||
        ParseSizeFlag(argc, argv, &i, "--replicas", &options.replicas) ||
        ParseSizeFlag(argc, argv, &i, "--health-interval-ms",
                      &options.health_interval_ms) ||
        ParseSizeFlag(argc, argv, &i, "--health-deadline-ms",
                      &options.health_deadline_ms) ||
        ParseSizeFlag(argc, argv, &i, "--health-misses",
                      &options.health_misses) ||
        ParseSizeFlag(argc, argv, &i, "--slow-request-ms",
                      &options.slow_request_ms) ||
        ParseSizeFlag(argc, argv, &i, "--worker-listen-base",
                      &options.worker_listen_base) ||
        ParseStringFlag(argc, argv, &i, "--serve", &options.serve_bin) ||
        ParseStringFlag(argc, argv, &i, "--state-dir", &options.state_dir)) {
      continue;
    }
    if (std::strcmp(argv[i], "--version") == 0) {
      std::cout << dpclustx::obs::BuildInfoVersionLine() << "\n";
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    std::cerr << "unknown flag '" << argv[i] << "'\n" << kUsage;
    return 2;
  }
  if (options.workers == 0) {
    std::cerr << "--workers must be at least 1\n";
    return 2;
  }
  if (options.worker_listen_base > 65535) {
    std::cerr << "--worker-listen-base must be a port (<= 65535)\n";
    return 2;
  }

  // A worker dying while we write to its pipe must surface as EPIPE (we
  // respawn it), not kill the router. Socket clients disconnecting
  // mid-response are the same story.
  ::signal(SIGPIPE, SIG_IGN);

  auto& registry = dpclustx::obs::MetricsRegistry::Default();
  dpclustx::service::Router router(std::move(options), &registry);
  dpclustx::service::FrontDoor door;
  door.handle = [&router](std::string line,
                          std::function<void(std::string)> done) {
    return router.HandleAsync(std::move(line), std::move(done));
  };
  door.metrics = &registry;
  door.ready = [&router] { return router.Ready(); };
  door.retry_after_ms = kShedRetryAfterMs;
  door.shed = registry.RegisterCounter(
      "dpclustx_router_shed_requests_total",
      "requests refused with ResourceExhausted because the client's "
      "response backlog passed the hard write limit");
  door.drain = [&router] { router.Shutdown(); };
  const dpclustx::Status served =
      dpclustx::service::ServeFrontDoor(door, listen_specs);
  if (!served.ok()) {
    std::cerr << "cannot listen: " << served.ToString() << "\n";
    router.Shutdown();
    return 1;
  }
  return 0;
}
