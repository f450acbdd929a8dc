// Routing policy for the sharded multi-worker front door (dpclustx_router).
//
// The Router (service/router.h) supervises N dpclustx_serve
// shard workers (each owning a disjoint set of datasets, with its own
// snapshot + audit journal) and optionally R read-only replicas per shard.
// Everything that is *policy* — which worker a request belongs to, which
// requests may be served by a replica, how a session maps to its dataset,
// how respawn delays grow — lives here, process-free and unit-testable.
// The Router owns only the mechanics (worker links, threads, respawn).
//
// Sharding is a consistent-hash ring over dataset names with virtual nodes,
// so dataset→shard assignments are deterministic across router restarts
// (a restarted router must route "census" to the shard whose snapshot holds
// it) and resharding from N to N+1 workers moves only ~1/(N+1) of the
// datasets.
//
// Classification reads the engine's op table (ServiceEngine::FindOp): a
// row's key names the field that resolves to the owning dataset, and its
// placement says where the request runs. The router learns session→dataset
// bindings from the binding ops that pass through it and puts a binding
// back when its op fails. A session bound elsewhere (before the router
// started, or through another front door) is NotFound here: a deterministic
// error, not a shard-dependent one.

#ifndef DPCLUSTX_SERVICE_ROUTER_CORE_H_
#define DPCLUSTX_SERVICE_ROUTER_CORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/service_engine.h"

namespace dpclustx::service {

/// FNV-1a 64-bit over the key bytes, then a splitmix64 finalizer. Stable
/// across platforms and builds — the ring layout is part of the deployment
/// contract (snapshots name the shard that owns each dataset), and so is
/// the finalizer.
uint64_t RouterHash(const std::string& key);

/// Consistent-hash ring with virtual nodes. Immutable after construction
/// (the worker fleet is fixed at router startup; a respawned worker keeps
/// its name and therefore its ring positions).
class HashRing {
 public:
  /// `vnodes` virtual nodes per physical node smooth the key distribution;
  /// 64 keeps the max/min load ratio under ~1.4 for small fleets.
  explicit HashRing(std::vector<std::string> nodes, size_t vnodes = 64);

  /// The node owning `key`: the first virtual node clockwise from the key's
  /// hash. Requires a non-empty ring.
  const std::string& Route(const std::string& key) const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  std::vector<std::string> nodes_;
  std::vector<std::pair<uint64_t, size_t>> ring_;  // sorted (hash, node idx)
};

/// What the router should do with one request.
struct RouteDecision {
  OpPlacement placement = OpPlacement::kShard;
  std::string dataset;  // set for kShard / kReplicaRead
  /// Set when a binding op (key kDatasetBind / kSessionUnbind) changed
  /// `session`'s binding; `replaced` is its dataset before Classify
  /// (nullopt: unbound). RouterCore::UndoBinding puts it back when the op
  /// fails.
  bool rebound = false;
  std::string session;
  std::optional<std::string> replaced;
};

/// Thread-safe session→dataset bindings learned from create_session.
class SessionTable {
 public:
  /// Both return the binding they replaced (nullopt: none).
  std::optional<std::string> Bind(const std::string& session,
                                  const std::string& dataset);
  std::optional<std::string> Unbind(const std::string& session);
  /// NotFound when the session was never bound through this router.
  StatusOr<std::string> Lookup(const std::string& session) const;
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::string> bindings_;
};

/// Exponential respawn backoff: base * 2^(attempt-1), capped. attempt is
/// 1-based; out-of-range attempts clamp to the cap (never overflow).
struct Backoff {
  int64_t base_ms = 100;
  int64_t max_ms = 2000;
  int64_t DelayMs(uint64_t attempt) const;

  /// DelayMs with ±20% jitter: `unit_random` in [0, 1) maps linearly onto
  /// [0.8, 1.2) of the exponential delay. Workers crashed by a common cause
  /// (a bad snapshot, an OOM sweep) must not respawn in lockstep and
  /// re-stampede whatever killed them; the caller supplies the randomness
  /// so tests stay deterministic. Result is floored at 1 ms.
  int64_t JitteredDelayMs(uint64_t attempt, double unit_random) const;
};

/// The policy bundle the router tool drives: ring + session table +
/// request classification.
class RouterCore {
 public:
  explicit RouterCore(std::vector<std::string> shards, size_t vnodes = 64);

  /// Classifies `request` (a parsed engine request) by its op-table row.
  /// Learns bindings as a side effect: kDatasetBind binds its session,
  /// kSessionUnbind unbinds it. InvalidArgument when a field the route
  /// needs is missing/mistyped; NotFound for an op the engine does not
  /// serve (the engine's own response) or a session this router never saw.
  StatusOr<RouteDecision> Classify(const JsonValue& request);

  /// Restores the binding `decision` replaced: the binding op it came
  /// from failed, so the session keeps the shard it had.
  void UndoBinding(const RouteDecision& decision);

  /// The shard owning `dataset` (ring lookup).
  const std::string& ShardFor(const std::string& dataset) const;

  SessionTable& sessions() { return sessions_; }
  const HashRing& ring() const { return ring_; }

 private:
  HashRing ring_;
  SessionTable sessions_;
};

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_ROUTER_CORE_H_
