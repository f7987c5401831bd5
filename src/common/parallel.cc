#include "common/parallel.h"

#include <algorithm>

namespace linrec {
namespace {

std::atomic<int> g_thread_cap_override{0};

int HardwareThreadCap() {
  int cap = g_thread_cap_override.load(std::memory_order_relaxed);
  if (cap > 0) return cap;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

int ResolveWorkers(int workers) {
  if (workers > 0) return workers;
  if (workers < 0) return 1;
  return HardwareThreadCap();
}

void WorkerPool::OverrideThreadCapForTesting(int cap) {
  g_thread_cap_override.store(cap, std::memory_order_relaxed);
}

WorkerPool::WorkerPool(int lanes) {
  const int participants = std::min(std::max(lanes, 1), HardwareThreadCap());
  threads_.reserve(static_cast<std::size_t>(participants - 1));
  for (int lane = 1; lane < participants; ++lane) {
    threads_.emplace_back([this, lane] { HelperLoop(lane); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::HelperLoop(int lane) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(int, std::size_t)>* fn;
    std::size_t chunks;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && generation_ == seen) work_ready_.Wait(mutex_);
      if (stopping_) return;
      seen = generation_;
      fn = fn_;
      chunks = chunk_count_;
    }
    for (std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
         c < chunks;
         c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) {
      try {
        (*fn)(lane, c);
      } catch (...) {
        // fn's contract: failures are reported via lane-indexed state.
      }
    }
    {
      MutexLock lock(mutex_);
      if (--active_helpers_ == 0) batch_done_.NotifyOne();
    }
  }
}

void WorkerPool::Run(std::size_t chunks,
                     const std::function<void(int, std::size_t)>& fn) {
  if (chunks == 0) return;
  bool woke_helpers = !threads_.empty() && chunks > 1;
  if (woke_helpers) {
    MutexLock lock(mutex_);
    fn_ = &fn;
    chunk_count_ = chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    active_helpers_ = static_cast<int>(threads_.size());
    ++generation_;
    work_ready_.NotifyAll();
  } else {
    next_chunk_.store(0, std::memory_order_relaxed);
  }
  // The caller is lane 0 and drains chunks like any helper.
  for (std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
       c < chunks;
       c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      fn(0, c);
    } catch (...) {
    }
  }
  if (woke_helpers) {
    MutexLock lock(mutex_);
    while (active_helpers_ != 0) batch_done_.Wait(mutex_);
    fn_ = nullptr;
  }
}

}  // namespace linrec
