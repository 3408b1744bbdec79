#include "dassa/common/thread_pool.hpp"

#include <exception>

#include "dassa/common/shape.hpp"
#include "dassa/common/trace.hpp"

namespace dassa {

ThreadPool::ThreadPool(std::size_t num_threads, bool inherit_trace_rank) {
  DASSA_CHECK(num_threads >= 1, "thread pool needs at least one thread");
  const int rank = inherit_trace_rank ? trace::thread_rank() : -1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, rank] {
      trace::set_thread_rank(rank);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    DASSA_CHECK(!stop_, "submit on stopped thread pool");
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  while (!tasks_.empty() || in_flight_ != 0) cv_idle_.wait(lock);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) cv_task_.wait(lock);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
    }
    cv_idle_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  DASSA_CHECK(body != nullptr, "parallel_for needs a callable body");
  if (n == 0) return;
  const std::size_t chunks = size();
  std::exception_ptr first_error;
  Mutex error_mu;
  CondVar done_cv;
  Mutex done_mu;
  // Guarded by done_mu, and counted down under it: the caller may
  // return, and this frame die, as soon as it sees zero, so the last
  // worker must signal before it releases the lock, never after.
  std::size_t remaining = chunks;

  for (std::size_t t = 0; t < chunks; ++t) {
    submit([&, t] {
      const Range r = even_chunk(n, chunks, t);
      try {
        if (r.size() > 0) body(t, r.begin, r.end);
      } catch (...) {
        MutexLock lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      MutexLock lock(done_mu);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  MutexLock lock(done_mu);
  while (remaining != 0) done_cv.wait(lock);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dassa
