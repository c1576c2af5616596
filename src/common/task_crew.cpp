#include "common/task_crew.h"

#include <algorithm>
#include <system_error>
#include <utility>

namespace cgs {

TaskCrew::TaskCrew(int workers)
    : max_workers_(static_cast<std::size_t>(std::max(0, workers))) {}

TaskCrew::~TaskCrew() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  // run() never returns before its batch drains, so by the time a crew can
  // be destroyed open_ holds no batch whose owner is still waiting.
}

TaskCrew& TaskCrew::shared() {
  static TaskCrew* const crew = new TaskCrew(static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()) - 1));
  return *crew;
}

void TaskCrew::start_workers() {
  // A failed spawn (thread exhaustion) is not an error: the crew just
  // stays smaller, and every caller still runs its own tasks.
  try {
    while (threads_.size() < max_workers_)
      threads_.emplace_back([this] { worker_loop(); });
  } catch (const std::system_error&) {
    max_workers_ = threads_.size();
  }
}

void TaskCrew::execute(Batch& batch, std::size_t i) {
  std::exception_ptr error;
  try {
    batch.tasks[i]();
  } catch (...) {
    error = std::current_exception();
  }
  bool batch_done = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !batch.error) batch.error = std::move(error);
    batch_done = (--batch.remaining == 0);
  }
  // `batch` may be gone once mu_ is released; the cv belongs to the crew.
  if (batch_done) done_cv_.notify_all();
}

void TaskCrew::run(std::vector<std::function<void()>> tasks) {
  Batch batch;
  batch.tasks = std::move(tasks);
  batch.remaining = batch.tasks.size();
  const std::size_t n = batch.tasks.size();
  bool posted = false;
  if (n >= 2) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      start_workers();
      posted = !threads_.empty();
      if (posted) open_.push_back(&batch);
    }
    if (posted) work_cv_.notify_all();
  }
  // Join in: claim this batch's tasks until none is left unclaimed.
  std::unique_lock<std::mutex> lock(mu_);
  while (batch.next < n) {
    const std::size_t i = batch.next++;
    if (posted && batch.next == n)
      open_.erase(std::find(open_.begin(), open_.end(), &batch));
    lock.unlock();
    execute(batch, i);
    lock.lock();
  }
  // Wait for the stragglers running on workers.
  done_cv_.wait(lock, [&] { return batch.remaining == 0; });
  if (batch.error) std::rethrow_exception(batch.error);
}

std::uint64_t TaskCrew::stolen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stolen_;
}

void TaskCrew::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !open_.empty(); });
    if (open_.empty()) return;  // stopping and drained
    Batch& batch = *open_.front();
    const std::size_t i = batch.next++;
    if (batch.next == batch.tasks.size()) open_.pop_front();
    ++stolen_;
    lock.unlock();
    execute(batch, i);
    lock.lock();
  }
}

}  // namespace cgs
