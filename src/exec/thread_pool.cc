#include "exec/thread_pool.h"

#include <algorithm>
#include <exception>

namespace neurodb {
namespace exec {

namespace {

bool& InWorkerFlag() {
  static thread_local bool flag = false;
  return flag;
}

}  // namespace

size_t HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads, const ThreadStarter& start) {
  const size_t n = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::function<void()> loop = [this] { WorkerLoop(); };
    try {
      workers_.push_back(start ? start(std::move(loop))
                               : std::thread(std::move(loop)));
    } catch (const std::exception&) {
      // Unwinding now would destroy the joinable workers already started,
      // which ends the process. Keep them instead.
      break;
    }
  }
  // With no worker nothing would drain the queue: Submit runs tasks inline,
  // as it does during shutdown. (No worker reads the flag yet.)
  if (workers_.empty()) stopping_ = true;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::InWorker() { return InWorkerFlag(); }

void ThreadPool::WorkerLoop() {
  InWorkerFlag() = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures any exception into its future
  }
}

}  // namespace exec
}  // namespace neurodb
