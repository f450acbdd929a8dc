// The front door both serving binaries share: dpclustx_serve puts it in
// front of one ServiceEngine, dpclustx_router in front of a Router. It owns
// the stdin/stdout line protocol, every --listen socket (transport.h), the
// scrape endpoints (GET /metrics, /healthz, /ready; anything else 404) and
// the hard-write-limit shed, so a binary supplies only its request handler
// — the engine's call shape — and its readiness.

#ifndef DPCLUSTX_SERVICE_FRONT_DOOR_H_
#define DPCLUSTX_SERVICE_FRONT_DOOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace dpclustx::service {

struct FrontDoor {
  /// ServiceEngine::HandleAsync's shape: `done` receives exactly one
  /// response line, on any thread. A non-OK return means `done` never runs
  /// and the client gets ServiceEngine::RejectionResponse instead.
  std::function<Status(std::string, std::function<void(std::string)>)> handle;
  /// Served as GET /metrics (Prometheus text 0.0.4).
  obs::MetricsRegistry* metrics = nullptr;
  /// GET /ready: OK answers 200 "ready", an error 503 "not ready: <why>".
  /// Unset means always ready.
  std::function<Status()> ready;
  /// Back-off hint on shed and queue-full responses.
  int64_t retry_after_ms = 50;
  /// Counts requests shed past the transport's hard write limit (optional).
  obs::Counter* shed = nullptr;
  /// Runs at stdin EOF while the sockets are still open: drain the work in
  /// flight so its responses still go out.
  std::function<void()> drain;
};

/// Serves `door` on stdin/stdout and on every spec in `listen_specs` until
/// stdin reaches EOF, then runs door.drain and closes the sockets. A
/// listener that cannot start is returned before anything is served (and
/// before door.drain runs).
Status ServeFrontDoor(const FrontDoor& door,
                      const std::vector<std::string>& listen_specs);

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_FRONT_DOOR_H_
