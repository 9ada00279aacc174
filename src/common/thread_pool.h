// Fixed-size worker pool, used by the serve query engine (batch fan-out)
// and the greedy Z-index builder (split-candidate scoring). Deliberately
// minimal: a mutex-protected FIFO plus a drain barrier (`Wait`), which is
// all either needs. Tasks must not throw.

#ifndef WAZI_COMMON_THREAD_POOL_H_
#define WAZI_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace wazi {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  // Finishes every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task) EXCLUDES(mu_);

  // Blocks until every task submitted so far has finished running.
  void Wait() EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  CondVar task_cv_;  // workers: new task or shutdown
  CondVar idle_cv_;  // Wait(): all tasks finished
  int64_t unfinished_ GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace wazi

#endif  // WAZI_COMMON_THREAD_POOL_H_
