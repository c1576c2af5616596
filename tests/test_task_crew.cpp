// The process-wide executor: every task of a batch runs exactly once,
// run() claims only its own batch's tasks, task errors reach the caller,
// nested fan-outs complete, and workers start only when a batch needs them.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/task_crew.h"

namespace cgs {
namespace {

std::size_t process_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(TaskCrew, RunExecutesEveryTaskExactlyOnce) {
  TaskCrew crew(2);
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i)
    tasks.push_back([&hits, i] { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  crew.run(std::move(tasks));  // returns only when every task ran
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskCrew, RunClaimsOnlyItsOwnBatch) {
  TaskCrew crew(1);
  std::latch release(1);
  std::atomic<int> blocked{0};
  const auto block = [&] {
    blocked.fetch_add(1);
    release.wait();
  };
  // Occupy the one worker: batch X's caller blocks in one task, the worker
  // in the other.
  std::thread x([&] { crew.run({block, block}); });
  while (blocked.load() < 2) std::this_thread::yield();
  // Batch B: its caller blocks in its first task, the second stays pending.
  std::atomic<bool> b_pending_ran{false};
  std::thread b([&] { crew.run({block, [&] { b_pending_ran = true; }}); });
  while (blocked.load() < 3) std::this_thread::yield();

  std::atomic<int> a_ran{0};
  crew.run({[&] { a_ran.fetch_add(1); }, [&] { a_ran.fetch_add(1); }});
  EXPECT_EQ(a_ran.load(), 2);
  EXPECT_FALSE(b_pending_ran.load());  // never picked up by another caller

  release.count_down();
  x.join();
  b.join();
  EXPECT_TRUE(b_pending_ran.load());
}

TEST(TaskCrew, RunRethrowsTaskErrorAfterTheWholeBatch) {
  TaskCrew crew(3);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back([&ran, i] {
      if (i == 3) throw std::runtime_error("task 3 failed");
      ran.fetch_add(1);
    });
  try {
    crew.run(std::move(tasks));
    ADD_FAILURE() << "run() swallowed the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 failed");
  }
  EXPECT_EQ(ran.load(), 7);  // the other seven all ran before the rethrow
}

TEST(TaskCrew, NestedRunCompletes) {
  TaskCrew crew(2);
  std::atomic<int> leaves{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i)
    outer.push_back([&] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 4; ++j) inner.push_back([&] { leaves.fetch_add(1); });
      crew.run(std::move(inner));
    });
  crew.run(std::move(outer));
  EXPECT_EQ(leaves.load(), 16);
}

TEST(TaskCrew, SingleTaskRunsStartNoThread) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "no /proc/self/task";
  const std::size_t before = process_threads();
  TaskCrew crew(3);
  int ran = 0;
  for (int i = 0; i < 10; ++i) crew.run({[&ran] { ++ran; }});
  crew.run({});
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(process_threads(), before);
  // The first batch of two starts the workers.
  crew.run({[&ran] { ++ran; }, [&ran] { ++ran; }});
  EXPECT_EQ(process_threads(), before + 3);
}

}  // namespace
}  // namespace cgs
