// Fixed-size worker pool with a bounded task queue, the process-wide
// parallel-compute layer (ParallelFor) built on top of it, and Periodic,
// the one background thread that runs work on a fixed period.
//
// The service layer (src/service) runs every request through one of these:
// a fixed number of workers drain a bounded FIFO queue, and submissions
// beyond the queue capacity are rejected with ResourceExhausted so an
// overloaded server sheds load instead of buffering unboundedly
// (backpressure). Shutdown stops intake, drains the queue, and joins the
// workers, so no accepted task is ever dropped.
//
// ParallelFor runs row-order-independent kernels (counting sweeps,
// clustering assignment loops) over a separate lazily-created compute pool
// shared by the whole process. Its determinism contract: work is split into
// chunks whose boundaries depend only on (n, grain) — never on the thread
// count or scheduling — so a kernel that keeps one accumulator per chunk and
// merges them in ascending chunk order produces bit-identical results at any
// parallelism, including fully serial execution.

#ifndef DPCLUSTX_COMMON_THREAD_POOL_H_
#define DPCLUSTX_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace dpclustx {

struct ThreadPoolOptions {
  /// Number of worker threads. Requires >= 1.
  size_t num_threads = 4;
  /// Maximum number of queued (not yet running) tasks before TrySubmit
  /// rejects. Requires >= 1.
  size_t queue_capacity = 256;
};

class ThreadPool {
 public:
  explicit ThreadPool(const ThreadPoolOptions& options);
  /// Joins via Shutdown(); queued tasks still run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` without blocking. Returns ResourceExhausted when the
  /// queue is full (the task is NOT enqueued) and FailedPrecondition after
  /// Shutdown.
  Status TrySubmit(std::function<void()> task);

  /// Enqueues `task`, blocking while the queue is full. Returns
  /// FailedPrecondition if the pool shuts down before a slot frees up.
  Status Submit(std::function<void()> task);

  /// Stops intake, runs every already-queued task, and joins the workers.
  /// Idempotent; safe to call from any thread except a worker. Concurrent
  /// callers all block until the drain completes: exactly one of them joins
  /// the worker threads, the others wait for it.
  void Shutdown();

  size_t num_threads() const { return num_threads_; }
  size_t queue_capacity() const { return queue_capacity_; }

  /// Tasks currently queued (excludes running ones). Advisory under
  /// concurrency.
  size_t queue_depth() const;

  /// Tasks that finished executing.
  uint64_t tasks_completed() const;

  /// Workers currently running a task. Advisory under concurrency; used by
  /// the observability layer as a utilization gauge.
  size_t active_count() const;

 private:
  void WorkerLoop();

  const size_t num_threads_;
  const size_t queue_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable queue_nonempty_;
  std::condition_variable queue_nonfull_;
  std::condition_variable shutdown_done_;
  std::deque<std::function<void()>> queue_;  // guarded by mutex_
  bool shutdown_ = false;                    // guarded by mutex_
  bool joining_ = false;                     // guarded by mutex_
  uint64_t tasks_completed_ = 0;             // guarded by mutex_
  size_t active_ = 0;                        // guarded by mutex_
  std::vector<std::thread> workers_;         // guarded by mutex_
};

/// Runs `work` on its own thread every `interval_ms` — the worker's
/// snapshot saves, the router's health pings. It waits first, so the first
/// call comes one interval after construction: startup work is the owner's
/// to do synchronously. Destruction wakes the wait at once and joins (a
/// call already running finishes first).
class Periodic {
 public:
  Periodic(size_t interval_ms, std::function<void()> work);
  ~Periodic();

  Periodic(const Periodic&) = delete;
  Periodic& operator=(const Periodic&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;   // guarded by mutex_
  std::thread thread_;  // last: starts after the state above exists
};

/// Width of the process-wide compute pool: the DPCLUSTX_THREADS environment
/// variable when set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (minimum 1). Resolved once on first
/// call; the pool itself is created lazily on the first ParallelFor that can
/// use it and lives until process exit.
size_t ComputePoolWidth();

/// Number of chunks ParallelFor splits [0, n) into. Boundaries depend only
/// on n and grain: chunk i covers [i*g, min(n, (i+1)*g)) where g is `grain`,
/// widened only when ceil(n/grain) would exceed an internal shard cap (so
/// per-chunk scratch buffers stay bounded). Exposed so kernels can size
/// per-chunk accumulator arrays.
size_t ParallelForNumChunks(size_t n, size_t grain);

/// Runs body(chunk, begin, end) for every chunk of [0, n) (see
/// ParallelForNumChunks) and returns when all chunks have finished. Chunks
/// may run concurrently on the compute pool, in any order; the calling
/// thread always participates, so the call makes progress even when the
/// compute pool is saturated or has a single worker. Nested calls — a body
/// that itself calls ParallelFor — run the inner loop inline on the calling
/// thread (no pool re-entry, no oversubscription deadlock). `max_threads`
/// caps the number of threads working on this call (0 = compute-pool
/// width; 1 = serial inline). The chunk structure — and therefore any
/// chunk-merged result — is identical for every max_threads value.
/// `body` must not throw.
void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t chunk, size_t begin,
                                          size_t end)>& body,
                 size_t max_threads = 0);

/// Total ParallelFor invocations that dispatched to the compute pool (i.e.
/// ran with >1 thread) and total invocations overall. Advisory counters for
/// service stats / benchmarks.
uint64_t ParallelForCalls();
uint64_t ParallelForParallelCalls();

}  // namespace dpclustx

#endif  // DPCLUSTX_COMMON_THREAD_POOL_H_
