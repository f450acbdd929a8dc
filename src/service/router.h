// Router: the sharded multi-worker front end behind dpclustx_router.
//
// It speaks the engine's call shape (HandleAsync / Shutdown / a readiness
// query), so the same front door (service/front_door.h) serves a Router or
// a single ServiceEngine. Behind it sit N shard workers — each a
// dpclustx_serve with its own snapshot + audit journal under state_dir —
// and optionally R read-only replicas per shard, restored from the shard's
// snapshot. Datasets are consistent-hashed across shards (router_core.h),
// so every request touching a dataset or a session bound to one lands on
// the worker whose ledgers own it.
//
//   client ──▶ front door ──▶ Router ──WorkerLink──▶ shard-0 (snap+journal)
//                               │                    shard-1 ...
//                               └─ explain/hist may try ─▶ replica-i.r
//                                  (serves cache hits for free, refuses
//                                  misses → the router resends the request
//                                  to the primary)
//
// Workers sit behind a WorkerLink: start with a line callback and a death
// callback, send a line, kill, close (plus the pid for _router_status).
// SpawnProcessLink — fork/exec over pipes — is the only production link;
// tests substitute in-process ones.
//
// Pending entries: every line the router writes into a worker — a client
// request, one shard's leg of a broadcast, a health ping, a replica-sync
// save — is one kind of pending entry under a router id "r<seq>", owed by
// one worker. It ends exactly once, through one completion path, whether
// the worker answered, died or sent garbage, or the router refused it
// (worker down): its reply callback gets the relayed line or the router's
// Internal error, and runs before the entry leaves the pending table. A
// broadcast's legs fill one shared merge, and the last leg answers the
// client; a ping or a save wakes the thread that waits on it. So every
// request gets exactly one reply.
//
// Fault handling (DESIGN.md §11): a health thread pings every worker on an
// interval with a deadline; after health_misses consecutive misses (or the
// link reporting death) the worker is SIGKILLed and respawned with
// jittered exponential backoff. Shards restore themselves from their own
// snapshot and journal, so respawn is re-exec — exactly-once ε accounting
// lives in the worker. Entries in flight on a dead worker fail with a
// retryable Internal error (replica reads resend to the primary instead);
// a garbage line fails the oldest entry its worker owes.
//
// Relay (DESIGN.md §14): the router forwards each request with one Dump of
// the parsed request, its id replaced by the router id. Worker responses
// go back out with the client's id via a zero-reparse byte splice
// (json_relay.h). Lines the scanner refuses, replica refusal checks and
// traced responses take the full-parse path, which is also verify_relay's
// reference: with it on, every splice is cross-checked byte for byte.
//
// Tracing (DESIGN.md §15): a request carrying "trace":true is forwarded
// with a "_tc":{"pid","tid"} context set before that Dump; the worker
// returns its span tree and the router replaces it with one stitched
// timeline (parse, shard_pick, forward, worker_roundtrip with
// worker_queue_wait and the worker tree, write_back). A request that ends
// without a worker tree (worker death, a garbage line, a primary that is
// down) yields the router-side spans marked "trace_partial". Finished
// timelines land in a bounded ring served by the router's `trace` op.
//
// Router-level ops (never forwarded):
//
//   {"op":"_router_status"}          topology, liveness, pids, bound
//                                    sessions, per-worker pending depth and
//                                    age (counts live in `metrics`)
//   {"op":"_router_sync_replicas"}   save_snapshot on every shard, then
//                                    respawn replicas from the fresh files;
//                                    synced_shards counts the ok saves
//   {"op":"trace"}                   the ring of stitched timelines
//
// save_snapshot from clients is refused: the router owns snapshot
// scheduling. ping / stats / audit broadcast to every shard and
// return the per-shard responses under "workers"; metrics broadcasts and
// returns only the labeled "fleet" rollup.

#ifndef DPCLUSTX_SERVICE_ROUTER_H_
#define DPCLUSTX_SERVICE_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace dpclustx::service {

/// One worker behind the router.
class WorkerLink {
 public:
  using LineFn = std::function<void(std::string line)>;
  using DeathFn = std::function<void()>;

  virtual ~WorkerLink() = default;

  /// (Re)starts the worker. `on_line` runs for every response line and
  /// `on_death` once when the worker is gone (after its last line), both on
  /// a link-owned thread. Call again only after Kill or Close.
  virtual Status Start(LineFn on_line, DeathFn on_death) = 0;

  /// Thread-safe. Writes one request line; false when the worker is gone.
  virtual bool Send(const std::string& line) = 0;

  /// Stops the worker hard and reaps it; `on_death` has run when this
  /// returns. Idempotent.
  virtual void Kill() = 0;

  /// Closes the worker's input (a dpclustx_serve drains, snapshots and
  /// exits), then waits for it like Kill.
  virtual void Close() = 0;

  /// OS process id (-1 while there is none). Safe from any thread.
  virtual int64_t Pid() const = 0;
};

/// Makes the link for worker `name` ("shard-0", "replica-0.1") running the
/// command line `argv`.
using WorkerLinkFactory = std::function<std::unique_ptr<WorkerLink>(
    const std::string& name, std::vector<std::string> argv)>;

/// The production link: fork/exec `argv` with stdin/stdout on pipes.
std::unique_ptr<WorkerLink> SpawnProcessLink(const std::string& name,
                                             std::vector<std::string> argv);

/// One field per dpclustx_router flag (--listen belongs to the front door).
struct RouterOptions {
  size_t workers = 2;
  size_t replicas = 0;  // read-only replicas per shard
  std::string serve_bin = "dpclustx_serve";
  std::string state_dir = ".";  // shard-i.snap / shard-i.journal
  /// Cross-check every id splice against the full-parse path (aborts on
  /// drift).
  bool verify_relay = false;
  /// > 0: one JSON slow-log line on stderr per request slower than this.
  size_t slow_request_ms = 0;
  /// > 0: worker k listens on tcp:127.0.0.1:(base + k) for scrapes.
  size_t worker_listen_base = 0;
  size_t health_interval_ms = 1000;
  size_t health_deadline_ms = 2000;
  size_t health_misses = 3;
  /// Appended to every worker's command line (the tool's `-- FLAGS...`).
  std::vector<std::string> worker_args;
};

class Router {
 public:
  /// Creates state_dir, starts every worker (shards, then replicas) and the
  /// health loop. Per-worker instruments register in `metrics`, which must
  /// outlive the router.
  Router(RouterOptions options, obs::MetricsRegistry* metrics,
         WorkerLinkFactory make_link = SpawnProcessLink);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// ServiceEngine::HandleAsync's contract: `done` runs exactly once with
  /// the response line, on whichever thread completes the request (a worker
  /// link's, or the caller's for router-level answers). FailedPrecondition
  /// after Shutdown, without invoking `done`.
  Status HandleAsync(std::string line, std::function<void(std::string)> done);

  /// Drains in-flight requests (bounded), stops the health loop and closes
  /// every worker. Idempotent.
  void Shutdown();

  /// OK while every shard primary is alive (replicas are optional caches).
  Status Ready() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_ROUTER_H_
