#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace dpclustx {

ThreadPool::ThreadPool(const ThreadPoolOptions& options)
    : num_threads_(options.num_threads),
      queue_capacity_(options.queue_capacity) {
  DPX_CHECK_GT(options.num_threads, 0u) << "thread pool needs >= 1 worker";
  DPX_CHECK_GT(options.queue_capacity, 0u) << "queue capacity must be >= 1";
  workers_.reserve(options.num_threads);
  for (size_t i = 0; i < options.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return Status::FailedPrecondition("thread pool is shut down");
    }
    if (queue_.size() >= queue_capacity_) {
      return Status::ResourceExhausted(
          "task queue full (" + std::to_string(queue_capacity_) +
          " pending); retry later");
    }
    queue_.push_back(std::move(task));
  }
  queue_nonempty_.notify_one();
  return Status::OK();
}

Status ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_nonfull_.wait(lock, [this] {
      return shutdown_ || queue_.size() < queue_capacity_;
    });
    if (shutdown_) {
      return Status::FailedPrecondition("thread pool is shut down");
    }
    queue_.push_back(std::move(task));
  }
  queue_nonempty_.notify_one();
  return Status::OK();
}

void ThreadPool::Shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_ = true;
  if (!workers_.empty()) {
    // First caller: take sole ownership of the worker handles under the
    // lock, then join outside it (workers need the lock to drain the
    // queue). Concurrent callers see workers_ empty and wait below.
    std::vector<std::thread> workers;
    workers.swap(workers_);
    joining_ = true;
    lock.unlock();
    queue_nonempty_.notify_all();
    queue_nonfull_.notify_all();
    for (std::thread& worker : workers) worker.join();
    lock.lock();
    joining_ = false;
    shutdown_done_.notify_all();
    return;
  }
  // Later caller (or already shut down): Shutdown is synchronous for every
  // caller, so wait until the joiner finishes draining.
  shutdown_done_.wait(lock, [this] { return !joining_; });
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

uint64_t ThreadPool::tasks_completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_completed_;
}

size_t ThreadPool::active_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

Periodic::Periodic(size_t interval_ms, std::function<void()> work)
    : thread_([this, interval_ms, work = std::move(work)] {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                             [this] { return stop_; })) {
          lock.unlock();
          work();
          lock.lock();
        }
      }) {}

Periodic::~Periodic() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

namespace {

// A body already running on the compute pool (or the caller's drain loop)
// must not wait on the pool again: nested ParallelFor calls run inline.
thread_local bool tls_inside_parallel_for = false;

// Upper bound on ParallelForNumChunks: keeps per-chunk accumulator arrays
// (e.g. the StatsCache shard buffers) bounded on huge inputs while leaving
// plenty of chunks for work stealing. Chunk boundaries stay a pure function
// of (n, grain).
constexpr size_t kMaxChunks = 256;

std::atomic<uint64_t> g_parallel_for_calls{0};
std::atomic<uint64_t> g_parallel_for_parallel_calls{0};

size_t ResolveComputePoolWidth() {
  if (const char* env = std::getenv("DPCLUSTX_THREADS")) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && value >= 1 && value <= 4096) {
      return static_cast<size_t>(value);
    }
    // Unparseable values fall through to the hardware default.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

// Deliberately leaked: compute kernels may run until the last line of main,
// and joining detached static workers during static destruction is a
// shutdown-order trap. The OS reclaims the threads at process exit.
ThreadPool& ComputePool() {
  static ThreadPool* pool =
      new ThreadPool(ThreadPoolOptions{ComputePoolWidth(), 4096});
  return *pool;
}

size_t EffectiveGrain(size_t n, size_t grain) {
  // Widen the grain so no input produces more than kMaxChunks chunks.
  const size_t min_grain = (n + kMaxChunks - 1) / kMaxChunks;
  return std::max(grain, min_grain);
}

}  // namespace

size_t ComputePoolWidth() {
  static const size_t width = ResolveComputePoolWidth();
  return width;
}

size_t ParallelForNumChunks(size_t n, size_t grain) {
  DPX_CHECK_GT(grain, 0u) << "ParallelFor grain must be >= 1";
  if (n == 0) return 0;
  const size_t g = EffectiveGrain(n, grain);
  return (n + g - 1) / g;
}

uint64_t ParallelForCalls() {
  return g_parallel_for_calls.load(std::memory_order_relaxed);
}

uint64_t ParallelForParallelCalls() {
  return g_parallel_for_parallel_calls.load(std::memory_order_relaxed);
}

void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t, size_t, size_t)>& body,
                 size_t max_threads) {
  const size_t chunks = ParallelForNumChunks(n, grain);
  if (chunks == 0) return;
  g_parallel_for_calls.fetch_add(1, std::memory_order_relaxed);
  const size_t g = EffectiveGrain(n, grain);
  const size_t width =
      max_threads == 0 ? ComputePoolWidth() : std::min(max_threads,
                                                       ComputePoolWidth() + 1);
  if (chunks == 1 || width <= 1 || tls_inside_parallel_for) {
    // Serial path — same chunk structure, so chunk-merged accumulators are
    // bit-identical to any parallel run.
    for (size_t chunk = 0; chunk < chunks; ++chunk) {
      body(chunk, chunk * g, std::min(n, (chunk + 1) * g));
    }
    return;
  }
  g_parallel_for_parallel_calls.fetch_add(1, std::memory_order_relaxed);

  // Shared work-stealing state. Helpers submitted to the pool may start
  // after the caller has already finished every chunk and returned; they
  // then observe next >= chunks and exit without touching `body`, so the
  // state (not the body) is what must outlive the call.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t chunks = 0;
    size_t grain = 0;
    size_t n = 0;
    const std::function<void(size_t, size_t, size_t)>* body = nullptr;
    std::mutex mutex;
    std::condition_variable all_done;
  };
  auto state = std::make_shared<State>();
  state->chunks = chunks;
  state->grain = g;
  state->n = n;
  state->body = &body;

  auto drain = [state] {
    const bool was_inside = tls_inside_parallel_for;
    tls_inside_parallel_for = true;
    for (;;) {
      const size_t chunk =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= state->chunks) break;
      (*state->body)(chunk, chunk * state->grain,
                     std::min(state->n, (chunk + 1) * state->grain));
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->chunks) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->all_done.notify_all();
      }
    }
    tls_inside_parallel_for = was_inside;
  };

  // Best-effort helpers: a full pool queue just means fewer threads help;
  // the caller's own drain below completes every chunk regardless, so this
  // call can never deadlock on pool capacity.
  const size_t helpers = std::min(width, chunks) - 1;
  for (size_t i = 0; i < helpers; ++i) {
    if (!ComputePool().TrySubmit(drain).ok()) break;
  }
  drain();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) >= state->chunks;
  });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_nonempty_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    queue_nonfull_.notify_one();
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      ++tasks_completed_;
    }
  }
}

}  // namespace dpclustx
