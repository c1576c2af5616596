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
// A zero linger closes a batch on whatever is queued when the first item
// is popped. The dispatcher gives its sign and verify lanes max_linger_us
// (grouping fills sign_many / verify_many) and its gauss and keygen lanes
// zero: they gain nothing from waiting for company.
//
// It drains a lane's QosQueue, so a batch is popped in the queue's
// fair-share order. An idle lane thread simply parks on the
// queue: spare cores are the process-wide executor's to use.

#include <chrono>
#include <cstddef>
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

  /// Blocks for the next batch: waits for a first item, then drains until
  /// full or the linger deadline passes. Returns false (with `out` empty)
  /// only once the queue is closed and fully drained — the consumer loop's
  /// exit condition.
  bool next_batch(std::vector<T>& out) {
    out.clear();
    T first;
    if (!queue_->pop(first)) return false;
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
  QosQueue<T>* queue_;
  std::size_t max_batch_;
  std::chrono::microseconds max_linger_;
};

}  // namespace cgs::serve
