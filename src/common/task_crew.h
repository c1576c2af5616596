#pragma once
// TaskCrew: the process's one executor for batch fan-out, checkqueue-style.
// The thread that owns a batch does not hand work off and block: it posts
// the batch's tasks and then joins in, executing its own tasks until every
// one of them has been claimed, and waits only for the stragglers other
// threads are still running. Dedicated workers drain every posted batch in
// arrival order.
//
// Contracts:
//   - run() is batch-scoped: it returns exactly when every task it posted
//     has finished, whichever thread ran each one.
//   - A run() caller claims only tasks of its own batch. A sign lane that
//     fans out never ends up running somebody else's gauss slice, so each
//     caller is answered when its own work is done. Nested run() calls (a
//     task that fans out again) are fine for the same reason.
//   - A task may throw. The batch still runs to completion; run() then
//     rethrows the first exception any of its tasks threw.
//   - Workers start at the first run() that posts two or more tasks. A
//     process that only ever runs single tasks (every fan-out at one slot)
//     starts no thread.
//
// Callers keep their per-slot state (PRNG streams, sampler rings, scratch)
// indexed by task, never by OS thread: task i always runs on slot i's
// state, so output for a fixed seed and slot count does not depend on
// which thread ran what.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cgs {

class TaskCrew {
 public:
  /// Up to `workers` dedicated threads, started on first need (0 is valid:
  /// every caller then runs its whole batch itself).
  explicit TaskCrew(int workers);
  ~TaskCrew();

  TaskCrew(const TaskCrew&) = delete;
  TaskCrew& operator=(const TaskCrew&) = delete;

  /// The process-wide instance every fan-out in the library runs on:
  /// hardware_concurrency() - 1 workers, so the worker threads plus one
  /// caller cover every core. Never destroyed — a fan-out during static
  /// destruction (a lane draining at exit) still finds it alive.
  static TaskCrew& shared();

  /// Post `tasks` and execute them alongside the crew until all of them
  /// have completed; rethrows the first exception a task threw.
  void run(std::vector<std::function<void()>> tasks);

  /// Tasks executed by a thread other than their poster, i.e. by workers.
  std::uint64_t stolen() const;

 private:
  struct Batch {
    std::vector<std::function<void()>> tasks;
    std::size_t next = 0;       // first unclaimed task; guarded by mu_
    std::size_t remaining = 0;  // tasks not yet finished; guarded by mu_
    std::exception_ptr error;   // first failure; guarded by mu_
  };

  void worker_loop();
  /// Start the dedicated workers not running yet (mu_ held).
  void start_workers();
  /// Run task `i` of `batch` (mu_ NOT held), then settle its accounting.
  void execute(Batch& batch, std::size_t i);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // open_ gained a batch / stopping
  std::condition_variable done_cv_;  // some batch's remaining hit zero
  std::deque<Batch*> open_;          // posted batches with unclaimed tasks
  std::vector<std::thread> threads_;
  std::size_t max_workers_;
  std::uint64_t stolen_ = 0;
  bool stopping_ = false;
};

}  // namespace cgs
