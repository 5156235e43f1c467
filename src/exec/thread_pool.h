// NeuroDB — exec::ThreadPool: a fixed-size worker pool with a task queue,
// future-based results and graceful shutdown.
//
// This is the execution substrate of the parallel query paths: the engine's
// concurrent ExecuteBatch fans request lanes out over one pool, and
// ShardedBackend fans per-shard queries out over the same pool. Tasks are
// arbitrary callables; results and exceptions travel through std::future.
//
// Nesting rule: a task running *on* a pool worker must not block on more
// pool tasks (all workers could end up waiting on work only workers can
// run). Callers that might be invoked from a worker check
// ThreadPool::InWorker() and fall back to inline execution — see
// ShardedBackend, whose shard fan-out degrades to a serial loop inside
// ExecuteBatch lanes.

#ifndef NEURODB_EXEC_THREAD_POOL_H_
#define NEURODB_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace neurodb {
namespace exec {

/// Hardware threads of the host, at least 1: the size of the per-call
/// pools of TOUCH joins and of the engine's concurrent index builds.
size_t HardwareThreads();

/// Fixed-size thread pool. Threads start in the constructor and run until
/// destruction; the destructor is graceful — every task already queued is
/// completed before the workers join, so no future obtained from Submit is
/// ever abandoned.
class ThreadPool {
 public:
  /// Starts one worker thread running `loop`, or throws when no thread can
  /// start (as std::thread's constructor does). The default starts a
  /// std::thread; tests substitute one that fails.
  using ThreadStarter = std::function<std::thread(std::function<void()>)>;

  /// Start `num_threads` workers (0 is clamped to 1). A failed start ends
  /// the starting: the pool keeps the workers that started, and a pool
  /// with none runs every Submit inline, as it does during shutdown.
  explicit ThreadPool(size_t num_threads, const ThreadStarter& start = {});

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  /// Workers running: fewer than asked for when a start failed.
  size_t num_threads() const { return workers_.size(); }

  /// True when the calling thread is a worker of *any* ThreadPool — the
  /// guard nested fan-outs use to run inline instead of deadlocking.
  static bool InWorker();

  /// Enqueue `fn` and return a future for its result. An exception thrown
  /// by `fn` is captured into the future and rethrown by get(). Submitting
  /// during shutdown runs the task inline on the submitting thread (the
  /// future is still valid) rather than losing it.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    bool run_inline = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        run_inline = true;  // run below, outside the lock
      } else {
        queue_.emplace_back([task] { (*task)(); });
      }
    }
    if (run_inline) {
      (*task)();
      return future;
    }
    cv_.notify_one();
    return future;
  }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace exec
}  // namespace neurodb

#endif  // NEURODB_EXEC_THREAD_POOL_H_
