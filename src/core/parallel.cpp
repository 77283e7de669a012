#include "core/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/error.h"
#include "core/integer.h"

namespace wild5g::parallel {

namespace {

class ThreadPool;

/// The pool this thread runs tasks for: set on every worker, and on the
/// thread that opened a top-level region while that region runs. A region
/// opened where it is set is nested and becomes a batch of that pool.
thread_local ThreadPool* t_pool = nullptr;

std::size_t resolve_env_thread_count() {
  const char* env = std::getenv("WILD5G_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  return integer_from_text<std::size_t>(env, "WILD5G_THREADS", 0, kMaxThreads);
}

/// One open region. It lives on the stack of the thread that opened it,
/// which does not return before `pending` drains; every field but `body`
/// (fixed before the batch is published) is guarded by the pool mutex.
struct Batch {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n_tasks = 0;
  std::size_t next_index = 0;  // next unclaimed index
  std::size_t pending = 0;     // indices not yet finished
  std::exception_ptr error = nullptr;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
};

/// Fixed-size pool shared by every region, top-level or nested. Batches
/// that still have unclaimed indices are listed oldest first; an idle
/// worker claims from the oldest, and the thread that opened a batch claims
/// only from its own, then waits for the runs others claimed. That cannot
/// deadlock: a thread only ever waits on a batch it opened, whose indices
/// are all claimed and each being run by a live thread, and a run can only
/// wait on batches opened inside it, strictly deeper — so the deepest
/// claimed runs always finish and every wait above them ends in turn.
/// Campaign tasks are milliseconds-to-seconds each, so per-index locking is
/// noise; what matters is that index->thread assignment can never affect
/// the output (tasks are pure functions of their index).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t extra_workers) {
    workers_.reserve(extra_workers);
    for (std::size_t i = 0; i < extra_workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  /// Runs body(0..n_tasks-1), each exactly once; the calling thread
  /// participates. Every task runs even if an earlier one throws; the
  /// exception of the lowest failing index is rethrown here so the surfaced
  /// error does not depend on thread count.
  void run(std::size_t n_tasks,
           const std::function<void(std::size_t)>& body) {
    Batch batch;
    batch.body = &body;
    batch.n_tasks = n_tasks;
    batch.pending = n_tasks;
    std::unique_lock<std::mutex> lock(mutex_);
    open_.push_back(&batch);
    work_cv_.notify_all();
    while (batch.next_index < n_tasks) execute(batch, lock);
    done_cv_.wait(lock, [&batch] { return batch.pending == 0; });
    if (batch.error != nullptr) std::rethrow_exception(batch.error);
  }

 private:
  void worker_loop() {
    t_pool = this;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || !open_.empty(); });
      if (stop_) return;
      execute(*open_.front(), lock);
    }
  }

  /// Claims the next index of `batch` (mutex_ held, an index left), runs it
  /// with mutex_ released and records its outcome. The batch leaves open_
  /// once its last index is claimed.
  void execute(Batch& batch, std::unique_lock<std::mutex>& lock) {
    const std::size_t index = batch.next_index++;
    if (batch.next_index == batch.n_tasks) std::erase(open_, &batch);
    lock.unlock();
    std::exception_ptr task_error = nullptr;
    try {
      (*batch.body)(index);
    } catch (...) {
      task_error = std::current_exception();
    }
    lock.lock();
    if (task_error != nullptr && index < batch.error_index) {
      batch.error = task_error;
      batch.error_index = index;
    }
    // Notified under mutex_: the opener may return (and pop `batch`) as
    // soon as it can observe pending == 0.
    if (--batch.pending == 0) done_cv_.notify_all();
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::vector<Batch*> open_;  // batches with unclaimed indices, oldest first
  bool stop_ = false;
};

/// Pool configuration + lazily provisioned shared pool. `g_pool_mutex` also
/// serializes top-level parallel regions from distinct caller threads (the
/// benches only ever have one).
std::mutex g_pool_mutex;
// The three pool globals are confined to g_pool_mutex: every access is
// either lexically under a g_pool_mutex guard or inside a *_locked helper
// whose callers hold it.
std::size_t g_override_threads = 0;  // 0 = WILD5G_THREADS / hardware
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_pool_threads = 0;  // thread count g_pool was built for

std::size_t resolve_thread_count_locked() {
  if (g_override_threads != 0) return g_override_threads;
  const std::size_t env = resolve_env_thread_count();
  if (env != 0) return env;
  return std::min(hardware_thread_count(), kMaxThreads);
}

ThreadPool& pool_for_locked(std::size_t threads) {
  if (g_pool == nullptr || g_pool_threads != threads) {
    g_pool.reset();  // join old workers before re-provisioning
    g_pool = std::make_unique<ThreadPool>(threads - 1);
    g_pool_threads = threads;
  }
  return *g_pool;
}

}  // namespace

std::size_t hardware_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t thread_count() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return resolve_thread_count_locked();
}

void set_thread_count(std::size_t n) {
  WILD5G_REQUIRE(n <= kMaxThreads,
                 "parallel::set_thread_count: " + std::to_string(n) +
                     " threads is above the cap of " +
                     std::to_string(kMaxThreads));
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_override_threads = n;
}

namespace detail {

void run_indexed(std::size_t n_tasks,
                 const std::function<void(std::size_t)>& body) {
  if (n_tasks == 0) return;
  if (t_pool != nullptr) {  // nested region: a batch of the running pool
    if (n_tasks == 1) {
      body(0);
    } else {
      t_pool->run(n_tasks, body);
    }
    return;
  }
  std::unique_lock<std::mutex> lock(g_pool_mutex);
  const std::size_t threads = resolve_thread_count_locked();
  if (threads <= 1 || n_tasks == 1) {
    lock.unlock();
    for (std::size_t i = 0; i < n_tasks; ++i) body(i);
    return;
  }
  ThreadPool& pool = pool_for_locked(threads);
  t_pool = &pool;
  struct ClearPool {
    ~ClearPool() { t_pool = nullptr; }
  } clear_pool;
  pool.run(n_tasks, body);
}

}  // namespace detail

}  // namespace wild5g::parallel
