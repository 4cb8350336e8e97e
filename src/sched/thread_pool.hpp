// Work-stealing thread pool: the one sanctioned home for threads.
//
// Every parallel path in the repo (sweeps, datagen, bench harnesses) goes
// through this pool; raw std::thread/std::async elsewhere is a lint error
// (rule raw-thread). Concentrating concurrency here keeps the determinism
// contract auditable: tasks receive an explicit index, write to
// pre-allocated slots, and derive any randomness from ssm::Rng streams
// forked per index — never from thread identity or completion order.
//
// Topology: each worker owns a deque (owner pushes/pops the back, thieves
// steal the front) and external submissions land in a global injector
// queue. A worker that runs dry drains the injector, then steals from
// siblings. Blocked joiners (waitAll / parallelFor) help execute pending
// tasks instead of sleeping, so nested parallelFor from inside a task
// cannot deadlock the pool.
//
// jobs == 1 is the degenerate pool: no threads are spawned and every task
// runs inline at the submission point, which makes `--jobs 1` behave
// exactly like the historical serial code path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>  // ssm-lint: allow(raw-thread) — the pool IS the sanctioned home
#include <type_traits>
#include <utility>
#include <vector>

namespace ssm {

class ThreadPool {
 public:
  /// Spawns `jobs - 1` worker threads (the caller participates as the
  /// remaining lane via waitAll/parallelFor helping). jobs must be >= 1;
  /// jobs == 1 runs everything inline.
  explicit ThreadPool(int jobs);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The configured parallelism (the `jobs` constructor argument).
  [[nodiscard]] int jobCount() const noexcept { return jobs_; }

  /// Enqueues one task. Thread-safe; may be called from inside a task
  /// (it then lands on the calling worker's own deque).
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished, executing
  /// pending tasks on the calling thread while it waits. Rethrows the
  /// first exception any task threw since the last waitAll().
  void waitAll();

  /// Runs body(0..n-1) across the pool and returns when all calls are
  /// done. The calling thread helps, so this may be invoked from inside a
  /// task (nested parallelism). Rethrows the first exception thrown by
  /// any iteration. Iterations must not assume any execution order.
  void parallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& body);

  /// Called under the collector lock once per finished job.
  using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

  /// The ordered sweep collector: runs job(0..n-1) across the pool like
  /// parallelFor and hands each result to emit() strictly in index order,
  /// under one lock, as soon as every lower index has been emitted — so a
  /// sweep's output is byte-identical at any `jobs`. `progress(done, n)`,
  /// when set, runs under the same lock after each job. Rethrows the first
  /// job exception once the batch drains; no result at or after a failed
  /// index is emitted.
  template <typename Job, typename Emit>
  void parallelForOrdered(std::size_t n, const Job& job, const Emit& emit,
                          const ProgressFn& progress = {}) {
    using Result = std::invoke_result_t<const Job&, std::size_t>;
    std::vector<std::optional<Result>> ready(n);
    std::mutex mu;
    std::size_t next = 0;
    std::size_t done = 0;
    parallelFor(n, [&](std::size_t i) {
      Result result = job(i);
      std::lock_guard<std::mutex> lk(mu);
      ready[i].emplace(std::move(result));
      for (; next < n && ready[next].has_value(); ++next) {
        emit(std::move(*ready[next]));
        ready[next].reset();
      }
      ++done;
      if (progress) progress(done, n);
    });
  }

  /// Default parallelism for CLI `--jobs`: the SSMDVFS_JOBS environment
  /// variable when set (>= 1), else std::thread::hardware_concurrency().
  [[nodiscard]] static int defaultJobs();

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;
    std::mutex mu;
  };

  void workerLoop(std::size_t self);
  /// Runs one pending task if any is available. Returns false when every
  /// queue was empty at the time of the scan.
  bool tryRunOne(std::size_t self);
  [[nodiscard]] bool popTask(std::size_t self, std::function<void()>* out);
  void recordException();

  int jobs_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;  // ssm-lint: allow(raw-thread)

  std::deque<std::function<void()>> injector_;
  std::mutex mu_;                  ///< guards injector_, stop_, wakeups
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::size_t pending_ = 0;        ///< queued + running tasks (under mu_)
  bool stop_ = false;

  std::mutex err_mu_;
  std::exception_ptr first_error_;
};

}  // namespace ssm
