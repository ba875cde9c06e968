//===- support/ThreadPool.cpp ---------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <cassert>

using namespace safetsa;

ThreadPool::ThreadPool(unsigned NumThreads) {
  assert(NumThreads != 0 && "a pool without workers never runs a task");
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
    ++InFlight;
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return InFlight == 0; });
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      if (--InFlight == 0)
        AllDone.notify_all();
    }
  }
}

unsigned ThreadPool::defaultThreadCount() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}
