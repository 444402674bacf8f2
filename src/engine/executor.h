// The engine's persistent execution layer.
//
// Before this layer existed, every SearchBatch / SelfJoin call constructed
// and tore down its own ThreadPool — a per-request cost no server would
// tolerate. An Executor is the long-lived replacement: it owns one
// ThreadPool for the data-parallel loops (grown on demand, never rebuilt)
// plus a small set of lazily started dispatcher threads that drain an
// async job queue, so many caller threads can overlap requests on one
// executor (api::Session::SubmitBatch rides on Submit()).
//
// ExecutionContext is what the templated drivers in engine.h borrow per
// call: a non-owning view of an Executor plus the resolved loop width and
// chunk size. Constructing one grows the executor's pool if the call asks
// for more threads than any previous call did — that growth is the only
// thread-spawn on a warm path, and it happens at most once per width.
//
// Determinism: the drivers' merge contracts are per-loop, and worker-backed
// loops serialize inside the ThreadPool, so results stay byte-identical no
// matter how many sessions submit concurrently.

#ifndef PIGEONRING_ENGINE_EXECUTOR_H_
#define PIGEONRING_ENGINE_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace pigeonring::engine {

/// How a batch driver shards its work.
struct ExecutionOptions {
  int num_threads = 1;  // 0 = hardware concurrency
  int chunk = 8;        // probes claimed per scheduling step
};

/// A persistent loop pool + async job queue, shared by every Session of an
/// opened Db (api::Db::Open creates one sized to the spec's num_threads).
/// All methods are thread-safe.
class Executor {
 public:
  /// `num_threads` is the initial loop-pool width (0 = hardware
  /// concurrency); later ExecutionContexts grow it on demand.
  explicit Executor(int num_threads = 1) : pool_(num_threads) {}
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ThreadPool& pool() { return pool_; }
  int num_threads() const { return pool_.num_threads(); }
  void EnsureThreads(int num_threads) { pool_.EnsureThreads(num_threads); }

  /// Enqueues `job` and returns immediately; a dispatcher thread runs it.
  /// Up to kNumDispatchers jobs run concurrently (each job typically drives
  /// one loop; inline loops overlap freely, worker-backed loops serialize
  /// in the pool), so jobs may complete out of submission order. The first
  /// Submit lazily spawns the dispatchers; a sync-only executor never pays
  /// for them. Queued jobs always run — the destructor drains the queue
  /// before returning.
  void Submit(std::function<void()> job);

  /// Dispatcher threads an executor runs at most.
  static constexpr int kNumDispatchers = 2;

 private:
  void DispatcherMain();

  ThreadPool pool_;

  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<std::function<void()>> jobs_;       // guarded by jobs_mu_
  std::vector<std::thread> dispatchers_;         // guarded by jobs_mu_
  bool jobs_stop_ = false;                       // guarded by jobs_mu_
};

/// The per-call execution view the templated drivers take: which executor
/// to run on, how wide, and in what chunks. Cheap to construct per call;
/// the referenced Executor must outlive it.
class ExecutionContext {
 public:
  ExecutionContext(Executor& executor, const ExecutionOptions& options)
      : executor_(&executor),
        num_threads_(ThreadPool::ResolveThreads(options.num_threads)),
        chunk_(std::max<int64_t>(1, options.chunk)) {
    executor_->EnsureThreads(num_threads_);
  }

  Executor& executor() const { return *executor_; }
  ThreadPool& pool() const { return executor_->pool(); }
  /// The loop width: how many threads (caller included) a driver may use,
  /// and how many per-thread output buffers it keeps.
  int num_threads() const { return num_threads_; }
  int64_t chunk() const { return chunk_; }

 private:
  Executor* executor_;
  int num_threads_;
  int64_t chunk_;
};

}  // namespace pigeonring::engine

#endif  // PIGEONRING_ENGINE_EXECUTOR_H_
