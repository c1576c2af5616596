#pragma once
// MicroBatcher: the adaptive batch-forming policy between the request
// queue and the engine. A batch closes on whichever comes first:
//
//   - max_batch items collected (a thousand concurrent clients fill the
//     64/256 bit-sliced lanes and ride the amortized netlist pass), or
//   - max_linger past the *first* item's arrival (one lone client waits at
//     most one linger, never a full batch's worth of strangers).
//
// The policy is adaptive in the sense that it never sleeps for the linger
// when the work is already there: under backlog the drain loop hits
// max_batch without ever reaching wait_until, so heavy load pays zero
// added latency and light load pays at most max_linger.
//
// It drains a lane's QosQueue, so a batch is popped in the queue's
// priority and fair-share order. An optional idle-work hook turns the wait
// for a first item into a work-stealing loop: an idle lane thread lends
// itself to another lane's crew (checkqueue-style) instead of parking on
// the condition variable.

#include <chrono>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "serve/queue.h"

namespace cgs::serve {

template <typename T>
class MicroBatcher {
 public:
  /// `queue` (not owned) must outlive the batcher.
  MicroBatcher(QosQueue<T>& queue, std::size_t max_batch,
               std::chrono::microseconds max_linger)
      : queue_(&queue), max_batch_(max_batch), max_linger_(max_linger) {
    CGS_CHECK_MSG(max_batch_ >= 1, "micro-batcher needs max_batch >= 1");
  }

  /// Something useful to do while the queue is empty (steal one task from
  /// another lane's crew, say). Returns true when it did work — the
  /// batcher then re-checks the queue immediately instead of waiting out
  /// a poll slice. Runs only between batches, never inside one, so a
  /// batch's linger budget is unaffected.
  void set_idle_work(std::function<bool()> fn) { idle_work_ = std::move(fn); }

  /// Blocks for the next batch: waits for a first item (doing idle work,
  /// when a hook is set), then drains until full or the linger deadline
  /// passes. Returns false (with `out` empty) only once the queue is
  /// closed and fully drained — the consumer loop's exit condition.
  bool next_batch(std::vector<T>& out) {
    out.clear();
    T first;
    if (!pop_first(first)) return false;
    const auto deadline = std::chrono::steady_clock::now() + max_linger_;
    out.push_back(std::move(first));
    while (out.size() < max_batch_) {
      T item;
      if (!queue_->pop_until(item, deadline)) break;
      out.push_back(std::move(item));
    }
    return true;
  }

  std::size_t max_batch() const { return max_batch_; }
  std::chrono::microseconds max_linger() const { return max_linger_; }

 private:
  bool pop_first(T& first) {
    if (!idle_work_) return queue_->pop(first);
    // Alternate short queue waits with stolen tasks. After doing stolen
    // work, poll the queue with a zero wait — our own lane's requests
    // must not sit behind a second borrowed task.
    constexpr auto kPollSlice = std::chrono::microseconds(200);
    for (;;) {
      const bool stole = idle_work_();
      const auto until = std::chrono::steady_clock::now() +
                         (stole ? std::chrono::microseconds(0) : kPollSlice);
      if (queue_->pop_until(first, until)) return true;
      if (queue_->closed() && queue_->size() == 0) return false;
    }
  }

  QosQueue<T>* queue_;
  std::size_t max_batch_;
  std::chrono::microseconds max_linger_;
  std::function<bool()> idle_work_;
};

}  // namespace cgs::serve
