#include "support/parallel.hpp"

#include <cstdlib>

namespace drbml::support {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  if (const char* env = std::getenv("DRBML_JOBS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

TaskPool::TaskPool(int threads, std::size_t queue_limit)
    : queue_limit_(queue_limit) {
  const int n = threads > 0 ? threads : 1;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  close();
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool TaskPool::try_submit(int priority, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    if (queue_limit_ > 0 && queue_.size() >= queue_limit_) return false;
    queue_.push(Task{priority, next_seq_++, std::move(fn)});
  }
  work_cv_.notify_one();
  return true;
}

void TaskPool::wait_for_room() {
  std::unique_lock<std::mutex> lock(mu_);
  room_cv_.wait(lock, [this] {
    return closed_ || queue_limit_ == 0 || queue_.size() < queue_limit_;
  });
}

void TaskPool::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void TaskPool::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  room_cv_.notify_all();
}

std::size_t TaskPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::uint64_t TaskPool::executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

std::uint64_t TaskPool::task_exceptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return task_exceptions_;
}

bool TaskPool::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void TaskPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_ && queue_.empty()) return;
    // priority_queue::top() is const&; the function object has to move
    // out through const_cast because pop() discards the element anyway.
    Task task = std::move(const_cast<Task&>(queue_.top()));
    queue_.pop();
    ++in_flight_;
    lock.unlock();
    if (queue_limit_ > 0) room_cv_.notify_all();  // only bounded pools wait
    try {
      task.fn();
    } catch (...) {
      lock.lock();
      ++task_exceptions_;
      lock.unlock();
    }
    lock.lock();
    --in_flight_;
    ++executed_;
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace drbml::support
