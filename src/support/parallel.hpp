// Deterministic parallel execution primitives.
//
// parallel_map fans a pure per-item function out over a transient
// TaskPool and returns results **in input order**, regardless of
// completion order; a batch in which items throw rethrows the same
// error at any job count. With jobs <= 1 the map runs inline on the
// caller's thread in input order -- byte-for-byte the old serial path --
// so parallelism can never change a result, only its wall-clock cost.
// TaskPool is also the serve daemon's execution substrate. OnceMap is
// the thread-safe memoization primitive underneath the artifact caches:
// concurrent get_or_compute calls for the same key run the compute
// function exactly once (per success) and share the result.
//
// The executor preserves the repository's determinism contract
// (DESIGN.md section 6.2): per-item work must already be
// order-independent (counter-based PRNGs keyed by stable strings, no
// shared mutable state), and the fold back into aggregate results
// happens in input order on the caller's thread.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace drbml::support {

/// Resolves a jobs request: `jobs > 0` is taken literally; `jobs == 0`
/// means "auto" -- the DRBML_JOBS environment variable if set to a
/// positive integer, otherwise std::thread::hardware_concurrency().
/// Always returns >= 1.
[[nodiscard]] int resolve_jobs(int jobs);

/// Priority-ordered task submission onto a fixed worker pool, with a
/// bounded queue for admission control: the serve daemon's execution
/// substrate, and parallel_map's. Tasks arrive one at a time, each with a
/// priority: workers always pick the highest-priority queued task, ties
/// resolved FIFO by submission order. try_submit refuses -- instead of
/// blocking -- when the queue is full or the pool is closed, which is
/// what lets a caller answer "backpressure" instead of stalling.
/// Deadlines are the submitter's business: a task that must expire
/// checks its own clock when it starts running.
///
/// Tasks must not throw (wrap work in a catch-all that encodes failure
/// into the task's own result channel); an escaping exception is caught
/// and counted but otherwise dropped, so one bad task cannot take the
/// daemon down.
class TaskPool {
 public:
  /// `threads >= 1` workers; `queue_limit == 0` means unbounded.
  TaskPool(int threads, std::size_t queue_limit);
  /// Drains gracefully: closes admission, runs everything queued, joins.
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues `fn` at `priority` (higher runs sooner). Returns false --
  /// and does not enqueue -- when the queue is at its limit or the pool
  /// is closed.
  bool try_submit(int priority, std::function<void()> fn);

  /// Blocks until the queue is empty and no task is running.
  void drain();

  /// Stops admission; queued and running tasks still complete.
  void close();

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::uint64_t executed() const;
  [[nodiscard]] std::uint64_t task_exceptions() const;
  [[nodiscard]] bool closed() const;

 private:
  struct Task {
    int priority = 0;
    std::uint64_t seq = 0;  // tie-break: FIFO within a priority
    std::function<void()> fn;
  };
  struct TaskOrder {
    // priority_queue keeps the *largest* on top: higher priority first,
    // then earlier submission.
    bool operator()(const Task& a, const Task& b) const noexcept {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;
    }
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  const std::size_t queue_limit_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks
  std::condition_variable idle_cv_;  // drain() waits for quiescence
  std::priority_queue<Task, std::vector<Task>, TaskOrder> queue_;
  std::size_t in_flight_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t task_exceptions_ = 0;
  bool closed_ = false;
  bool stop_ = false;
};

namespace detail {

template <typename Fn, typename In>
using MapResult = std::decay_t<std::invoke_result_t<Fn&, const In&>>;

}  // namespace detail

/// Ordered parallel map: out[i] == fn(items[i]). jobs follows
/// resolve_jobs(); with jobs <= 1 (after resolution) or at most one item
/// it runs inline in input order -- exactly the serial loop it replaces.
/// Otherwise the items run on a transient TaskPool of min(jobs, items)
/// workers, and fn must be safe to call concurrently. Every item runs;
/// if any threw, the exception of the lowest-index item that threw is
/// rethrown after the pool drains.
template <typename In, typename Fn>
std::vector<detail::MapResult<Fn, In>> parallel_map(int jobs,
                                                    const std::vector<In>& items,
                                                    Fn&& fn) {
  using Out = detail::MapResult<Fn, In>;
  std::vector<Out> out;
  out.reserve(items.size());
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(resolve_jobs(jobs)), items.size());
  if (workers <= 1) {
    for (const In& item : items) out.push_back(fn(item));
    return out;
  }
  struct Slot {
    std::optional<Out> value;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(items.size());
  {
    // Unbounded and never closed while submitting, so every submit is
    // admitted; the destructor runs everything queued before it joins.
    TaskPool pool(static_cast<int>(workers), 0);
    for (std::size_t i = 0; i < items.size(); ++i) {
      pool.try_submit(0, [&, i] {
        try {
          slots[i].value.emplace(fn(items[i]));
        } catch (...) {
          slots[i].error = std::current_exception();
        }
      });
    }
  }
  for (const Slot& slot : slots) {
    if (slot.error != nullptr) std::rethrow_exception(slot.error);
  }
  for (Slot& slot : slots) out.push_back(std::move(*slot.value));
  return out;
}

/// Thread-safe memoization map keyed by a caller-computed 64-bit hash.
///
/// get_or_compute runs `fn` exactly once per key among all concurrent
/// callers (losers block until the winner finishes, then share the
/// value); if the compute throws, the exception propagates to that
/// caller and a later call retries. Returned references stay valid
/// until the entry is dropped: values live in stable heap cells, so
/// inserting other keys never invalidates them, but clear() does.
template <typename Value>
class OnceMap {
 public:
  template <typename Fn>
  const Value& get_or_compute(std::uint64_t key, Fn&& fn) {
    std::shared_ptr<Cell> cell;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::shared_ptr<Cell>& slot = cells_[key];
      if (slot == nullptr) slot = std::make_shared<Cell>();
      cell = slot;
    }
    // Hand-rolled once-synchronization instead of std::call_once:
    // libstdc++ implements call_once on pthread_once, which cannot
    // unwind -- a throwing compute would deadlock every later call on
    // the same flag (GCC bug 66146).
    std::unique_lock<std::mutex> lock(cell->mu);
    for (;;) {
      if (cell->value.has_value()) return *cell->value;
      if (!cell->computing) break;
      cell->cv.wait(lock);
    }
    cell->computing = true;
    lock.unlock();
    try {
      Value v = fn();
      lock.lock();
      cell->value.emplace(std::move(v));
    } catch (...) {
      lock.lock();
      cell->computing = false;  // let a later caller retry
      cell->cv.notify_all();
      throw;
    }
    cell->computing = false;
    cell->cv.notify_all();
    return *cell->value;
  }

  /// Number of keys ever requested (including in-progress computes).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cells_.size();
  }

  /// Calls fn(key, value) for every completed entry, in unspecified
  /// order. Holds the map lock for the whole walk: fn must not re-enter
  /// this map (snapshot serialization is the intended use).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, cell] : cells_) {
      std::lock_guard<std::mutex> cell_lock(cell->mu);
      if (cell->value.has_value()) fn(key, *cell->value);
    }
  }

  /// Inserts a precomputed value unless the key is already present or
  /// being computed. Returns true if the value was installed. Later
  /// get_or_compute calls for the key return the seeded value without
  /// running their compute function.
  bool seed(std::uint64_t key, Value v) {
    std::shared_ptr<Cell> cell;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::shared_ptr<Cell>& slot = cells_[key];
      if (slot == nullptr) slot = std::make_shared<Cell>();
      cell = slot;
    }
    std::lock_guard<std::mutex> cell_lock(cell->mu);
    if (cell->value.has_value() || cell->computing) return false;
    cell->value.emplace(std::move(v));
    return true;
  }

  /// Removes `key` from the index so later probes recompute fresh, and
  /// returns an opaque handle that keeps the evicted cell -- and any
  /// reference previously handed out for it -- alive until the handle is
  /// destroyed (the caller decides when reclamation is safe). Returns
  /// nullptr when the key is absent or its compute is still in flight
  /// (an in-flight cell must stay indexed so the winner/loser
  /// synchronization completes).
  std::shared_ptr<const void> erase(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cells_.find(key);
    if (it == cells_.end()) return nullptr;
    {
      std::lock_guard<std::mutex> cell_lock(it->second->mu);
      if (it->second->computing) return nullptr;
    }
    std::shared_ptr<const void> handle = it->second;
    cells_.erase(it);
    return handle;
  }

  /// Drops all entries. References handed out earlier dangle once their
  /// cell's last owner releases it -- only call this while no other
  /// thread is using the map.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    cells_.clear();
  }

 private:
  struct Cell {
    std::mutex mu;
    std::condition_variable cv;
    bool computing = false;
    std::optional<Value> value;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Cell>> cells_;
};

}  // namespace drbml::support
