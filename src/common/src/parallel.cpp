#include "wi/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace wi {
namespace {

/// One parallel_for call: its own cursor over [0, n), the helpers that
/// joined it and the lowest failing index. Lives on the caller's stack.
struct Batch {
  Batch(std::size_t n_, std::size_t max_helpers_,
        const std::function<void(std::size_t)>& fn_)
      : n(n_), max_helpers(max_helpers_), fn(fn_) {}
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  /// Claims and runs indices until none are left. After a failure no
  /// new index is handed out.
  void drain() {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        next.store(n);
      }
    }
  }

  const std::size_t n;
  const std::size_t max_helpers;  ///< threads - 1
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::size_t helpers = 0;            ///< guarded by Pool::mutex_
  std::condition_variable helpers_left;  ///< waited on with Pool::mutex_
  std::mutex error_mutex;
  std::exception_ptr error;  ///< guarded by error_mutex
  std::size_t error_index = n;
};

/// The process-wide helper threads. A caller runs its own batch to the
/// end and then waits only for indices helpers are already running, so
/// every call finishes even when no helper is free, at any nesting
/// depth, and no thread is ever started beyond the pool.
class Pool {
 public:
  explicit Pool(std::size_t helpers) {
    threads_.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t) {
      try {
        threads_.emplace_back([this] { help(); });
      } catch (const std::system_error&) {
        break;  // fewer helpers: callers do more of their own work
      }
    }
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  void run(Batch& batch) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&batch);
    }
    for (std::size_t k = 0; k < batch.max_helpers; ++k) wake_.notify_one();
    batch.drain();
    std::unique_lock<std::mutex> lock(mutex_);
    open_.erase(std::find(open_.begin(), open_.end(), &batch));
    batch.helpers_left.wait(lock, [&] { return batch.helpers == 0; });
  }

 private:
  /// The newest open batch with indices left and a free helper slot.
  Batch* find_work() const {
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      Batch* batch = *it;
      if (batch->helpers < batch->max_helpers &&
          batch->next.load() < batch->n) {
        return batch;
      }
    }
    return nullptr;
  }

  void help() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      Batch* batch = nullptr;
      wake_.wait(lock, [&] {
        return stopping_ || (batch = find_work()) != nullptr;
      });
      if (stopping_) return;
      ++batch->helpers;
      lock.unlock();
      batch->drain();
      lock.lock();
      // Notified under the lock: the caller cannot return and free the
      // batch before this helper has let go of it.
      if (--batch->helpers == 0) batch->helpers_left.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;  ///< idle helpers wait here
  std::vector<Batch*> open_;      ///< guarded by mutex_; oldest first
  bool stopping_ = false;         ///< guarded by mutex_
  std::vector<std::thread> threads_;
};

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Started on the first call that needs a second worker.
Pool& pool() {
  static Pool instance(hardware_threads() - 1);
  return instance;
}

}  // namespace

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads == 0) threads = hardware_threads();
  const std::size_t workers = std::min(threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Batch batch(n, workers - 1, fn);
  pool().run(batch);
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace wi
