//===- support/ThreadPool.h - Fixed-size worker pool ----------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with a FIFO work queue: CodeServer dispatches
/// connections onto it, and tests drive the pipeline from it. Tasks are
/// arbitrary callables.
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SUPPORT_THREADPOOL_H
#define SAFETSA_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace safetsa {

class ThreadPool {
public:
  /// Spawns \p NumThreads workers (at least one).
  explicit ThreadPool(unsigned NumThreads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task for the next idle worker.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task (queued or running) has finished.
  void wait();

  /// Reasonable worker count for this machine (>= 1).
  static unsigned defaultThreadCount();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable; ///< Signals workers.
  std::condition_variable AllDone;       ///< Signals wait().
  unsigned InFlight = 0;                 ///< Queued + currently running.
  bool Stopping = false;
};

} // namespace safetsa

#endif // SAFETSA_SUPPORT_THREADPOOL_H
